package transport

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// TestStreamFieldWireRoundTrip: the stream id travels in its own frame
// header field — it must round-trip the wire codec exactly, alongside the
// full int64 iter range the old high-bit packing could not carry.
func TestStreamFieldWireRoundTrip(t *testing.T) {
	cases := []struct {
		stream int32
		iter   int64
	}{
		{0, 0}, {0, 1}, {1, 0}, {7, 42}, {1000, -3}, {32767, 123456789},
		{5, 1 << 62}, {2, math.MaxInt64}, {9, math.MinInt64},
	}
	for _, c := range cases {
		buf, err := Encode(nil, Message{Type: MsgChunk, Stream: c.stream, Iter: c.iter})
		if err != nil {
			t.Fatalf("encode(stream=%d, iter=%d): %v", c.stream, c.iter, err)
		}
		got, err := ReadMessage(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("decode(stream=%d, iter=%d): %v", c.stream, c.iter, err)
		}
		if got.Stream != c.stream || got.Iter != c.iter {
			t.Errorf("round trip (stream=%d, iter=%d) -> (%d, %d)", c.stream, c.iter, got.Stream, got.Iter)
		}
	}
	// Negative stream ids are unrepresentable by contract: the encoder
	// refuses them rather than aliasing into the unsigned wire field.
	if _, err := Encode(nil, Message{Type: MsgChunk, Stream: -1}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("negative stream encode err = %v, want ErrBadFrame", err)
	}
}

// psStream is the parameter server's stream id (ps.PSStream).
const psStream int32 = 1 << 16

// TestRawRecvBesideStreamView: a plain Recv and a stream view share one
// endpoint, each taking only its own stream's messages, in whichever order
// they were sent and received.
func TestRawRecvBesideStreamView(t *testing.T) {
	net, err := NewLocalNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	ep0, _ := net.Endpoint(0)
	ep1, _ := net.Endpoint(1)
	if err := ep1.StreamView(psStream).Send(0, Message{Type: MsgPSAck, Iter: 11}); err != nil {
		t.Fatal(err)
	}
	if err := ep1.Send(0, Message{Type: MsgChunk, Iter: 22}); err != nil {
		t.Fatal(err)
	}
	if msg, err := recvWithin(t, ep0, 1); err != nil || msg.Type != MsgChunk || msg.Iter != 22 || msg.Stream != 0 {
		t.Errorf("raw Recv = %+v, %v; want the stream-0 chunk, iter 22", msg, err)
	}
	if msg, err := recvWithin(t, ep0.StreamView(psStream), 1); err != nil || msg.Type != MsgPSAck || msg.Iter != 11 {
		t.Errorf("stream view Recv = %+v, %v; want the PS ack, iter 11", msg, err)
	}
}

// recvWithin is m.Recv(from), failing the test when nothing arrives within
// 5 s.
func recvWithin(t *testing.T, m Mesh, from int) (Message, error) {
	t.Helper()
	type result struct {
		msg Message
		err error
	}
	got := make(chan result, 1)
	go func() {
		msg, err := m.Recv(from)
		got <- result{msg, err}
	}()
	select {
	case r := <-got:
		return r.msg, r.err
	case <-time.After(5 * time.Second):
		t.Fatalf("no message from rank %d within 5 s", from)
		return Message{}, nil
	}
}

// twoRanks builds a two-rank mesh of one kind; it is torn down when the
// test ends, and a TCP test then fails if it left a goroutine running.
type twoRanks struct {
	name string
	make func(t *testing.T) (m0, m1 Mesh)
}

var streamMeshKinds = []twoRanks{
	{name: "local", make: func(t *testing.T) (Mesh, Mesh) {
		net, err := NewLocalNetwork(2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = net.Close() })
		return net.endpoints[0], net.endpoints[1]
	}},
	{name: "tcp", make: func(t *testing.T) (Mesh, Mesh) {
		leakcheck.Check(t)
		meshes, err := NewTCPCluster(2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			for _, m := range meshes {
				_ = m.Close()
			}
		})
		return meshes[0], meshes[1]
	}},
}

// TestStreamViews holds both meshes' native stream views to one contract:
// isolation between streams, order within one, payload integrity, the full
// iteration range, close and bad-rank errors, and delivery to one stream
// while another stream's receiver stays blocked.
func TestStreamViews(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T, m0, m1 Mesh)
	}{
		{"isolation", streamIsolation},
		{"concurrent_pairs", streamConcurrentPairs},
		{"payload_routing", streamPayloadRouting},
		{"full_iter_range", streamFullIterRange},
		{"close_propagates", streamClosePropagates},
		{"recv_bad_rank", streamRecvBadRank},
		{"routed_delivery_while_reader_parked", streamDeliveryWhileParked},
	}
	for _, kind := range streamMeshKinds {
		t.Run(kind.name, func(t *testing.T) {
			for _, row := range rows {
				t.Run(row.name, func(t *testing.T) {
					m0, m1 := kind.make(t)
					row.run(t, m0, m1)
				})
			}
		})
	}
}

// streamIsolation: rank 1 interleaves sends on streams 1, 0 and 2; rank 0
// receives each stream concurrently and must see exactly that stream's
// sequence, payloads included.
func streamIsolation(t *testing.T, m0, m1 Mesh) {
	const perStream = 20
	order := []int32{1, 0, 2}
	want := func(id int32, i int) float64 { return float64(int(id)*100 + i) }
	go func() {
		for i := 0; i < perStream; i++ {
			for _, id := range order {
				_ = m1.StreamView(id).Send(0, Message{Type: MsgChunk, Iter: int64(i), Chunk: id, Payload: []float64{want(id, i)}})
			}
		}
	}()
	var wg sync.WaitGroup
	for _, id := range order {
		view := m0.StreamView(id)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perStream; i++ {
				msg, err := view.Recv(1)
				if err != nil {
					t.Errorf("stream %d recv %d: %v", id, i, err)
					return
				}
				if msg.Iter != int64(i) || msg.Chunk != id || len(msg.Payload) != 1 || msg.Payload[0] != want(id, i) {
					t.Errorf("stream %d recv %d: %+v", id, i, msg)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// streamConcurrentPairs hammers many streams concurrently in both
// directions; every stream must observe its own ordered sequence. Under
// -race this also exercises the routing.
func streamConcurrentPairs(t *testing.T, m0, m1 Mesh) {
	const streams = 8
	const msgs = 50
	meshes := []Mesh{m0, m1}
	var wg sync.WaitGroup
	for rank := 0; rank < 2; rank++ {
		peer := 1 - rank
		for id := int32(0); id < streams; id++ {
			view := meshes[rank].StreamView(id)
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := 0; i < msgs; i++ {
					if err := view.Send(peer, Message{Type: MsgChunk, Iter: int64(i)}); err != nil {
						t.Errorf("send: %v", err)
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < msgs; i++ {
					msg, err := view.Recv(peer)
					if err != nil {
						t.Errorf("stream %d recv: %v", id, err)
						return
					}
					if msg.Iter != int64(i) {
						t.Errorf("stream %d: iter %d at position %d", id, msg.Iter, i)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
}

// streamPayloadRouting: a message that waits on its stream's queue while
// another stream is received first surfaces unmodified.
func streamPayloadRouting(t *testing.T, m0, m1 Mesh) {
	if err := m1.StreamView(5).Send(0, Message{Type: MsgChunk, Iter: 9, Payload: []float64{5, 55, 555}}); err != nil {
		t.Fatal(err)
	}
	if err := m1.StreamView(2).Send(0, Message{Type: MsgChunk, Iter: 4, Payload: []float64{2, 22}}); err != nil {
		t.Fatal(err)
	}
	got2, err := m0.StreamView(2).Recv(1)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Iter != 4 || len(got2.Payload) != 2 || got2.Payload[0] != 2 || got2.Payload[1] != 22 {
		t.Fatalf("stream 2 got %+v", got2)
	}
	got5, err := m0.StreamView(5).Recv(1)
	if err != nil {
		t.Fatal(err)
	}
	if got5.Iter != 9 || len(got5.Payload) != 3 || got5.Payload[0] != 5 || got5.Payload[2] != 555 {
		t.Fatalf("stream 5 got %+v", got5)
	}
}

// streamFullIterRange: a view's stream id travels in its own field, so
// every int64 iteration tag flows through a view on both send paths.
func streamFullIterRange(t *testing.T, m0, m1 Mesh) {
	v := m1.StreamView(1)
	if err := v.Send(0, Message{Type: MsgChunk, Iter: math.MaxInt64}); err != nil {
		t.Fatalf("Send err = %v", err)
	}
	if err := v.(OwnedSender).SendOwned(0, Message{Type: MsgChunk, Iter: -1, Payload: GetPayload(4)}); err != nil {
		t.Fatalf("SendOwned err = %v", err)
	}
	for _, want := range []int64{math.MaxInt64, -1} {
		msg, err := m0.StreamView(1).Recv(1)
		if err != nil {
			t.Fatal(err)
		}
		if msg.Iter != want || msg.Stream != 1 {
			t.Errorf("stream %d iter %d, want stream 1 iter %d", msg.Stream, msg.Iter, want)
		}
	}
}

// streamClosePropagates: closing the endpoint fails every blocked stream
// Recv with ErrClosed.
func streamClosePropagates(t *testing.T, m0, _ Mesh) {
	errs := make(chan error, 3)
	for id := int32(0); id < 3; id++ {
		view := m0.StreamView(id)
		go func() {
			_, err := view.Recv(1)
			errs <- err
		}()
	}
	time.Sleep(20 * time.Millisecond)
	_ = m0.Close()
	for i := 0; i < 3; i++ {
		if err := <-errs; !errors.Is(err, ErrClosed) {
			t.Errorf("recv err = %v, want ErrClosed", err)
		}
	}
}

// streamRecvBadRank: a view keeps the mesh contract for out-of-range peers
// and reports the endpoint's identity.
func streamRecvBadRank(t *testing.T, m0, _ Mesh) {
	v := m0.StreamView(3)
	for _, from := range []int{-1, 2, 99} {
		if _, err := v.Recv(from); err == nil {
			t.Errorf("recv from %d accepted", from)
		}
	}
	if v.Rank() != 0 || v.Size() != 2 {
		t.Errorf("view identity: rank %d size %d", v.Rank(), v.Size())
	}
}

// streamDeliveryWhileParked pins the liveness property that makes
// concurrent collectives on one mesh safe: stream 1's message reaches its
// receiver while stream 0's receiver stays blocked waiting for a message
// that is sent only afterwards. Over TCP the stream-0 receiver holds the
// connection's read election, parked in the socket read, and must route the
// stream-1 frame to its owner.
func streamDeliveryWhileParked(t *testing.T, m0, m1 Mesh) {
	got0 := make(chan error, 1)
	go func() {
		msg, err := m0.Recv(1)
		if err == nil && msg.Iter != 7 {
			err = fmt.Errorf("stream 0 got iter %d", msg.Iter)
		}
		got0 <- err
	}()
	time.Sleep(50 * time.Millisecond)

	got1 := make(chan error, 1)
	go func() {
		msg, err := m0.StreamView(1).Recv(1)
		if err == nil && msg.Iter != 3 {
			err = fmt.Errorf("stream 1 got iter %d", msg.Iter)
		}
		got1 <- err
	}()
	time.Sleep(50 * time.Millisecond)

	if err := m1.StreamView(1).Send(0, Message{Type: MsgReduce, Iter: 3}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got1:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream 1 never received its message while stream 0 waited")
	}

	if err := m1.Send(0, Message{Type: MsgReduce, Iter: 7}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got0:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the parked receiver never received its own message")
	}
}
