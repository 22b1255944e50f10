package transport

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
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

// TestStreamsHelperPicksNativeRouter: Streams() must hand back the mesh's
// own router when the transport routes stream frames natively, and fall back
// to a demux otherwise.
func TestStreamsHelperPicksNativeRouter(t *testing.T) {
	meshes, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, m := range meshes {
			_ = m.Close()
		}
	}()
	if _, ok := Streams(meshes[0]).(*TCPMesh); !ok {
		t.Errorf("Streams(TCPMesh) = %T, want the mesh itself", Streams(meshes[0]))
	}
	net, err := NewLocalNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	if _, ok := Streams(net.endpoints[0]).(*StreamDemux); !ok {
		t.Errorf("Streams(localMesh) = %T, want *StreamDemux", Streams(net.endpoints[0]))
	}
}

// TestStreamDemuxIsolation: two streams between the same pair of peers see
// only their own messages, in order, regardless of the interleaving the
// sender chose.
func TestStreamDemuxIsolation(t *testing.T) {
	net, err := NewLocalNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	d0 := NewStreamDemux(net.endpoints[0])
	d1 := NewStreamDemux(net.endpoints[1])

	// Rank 1 interleaves sends on streams 0, 1, 2; rank 0 receives per
	// stream and must see exactly that stream's Iter sequence.
	const perStream = 20
	send := d1.Stream(0)
	sendB := d1.Stream(1)
	sendC := d1.Stream(2)
	go func() {
		for i := 0; i < perStream; i++ {
			_ = sendB.Send(0, Message{Type: MsgChunk, Iter: int64(i), Chunk: 1})
			_ = send.Send(0, Message{Type: MsgChunk, Iter: int64(i), Chunk: 0})
			_ = sendC.Send(0, Message{Type: MsgChunk, Iter: int64(i), Chunk: 2})
		}
	}()

	var wg sync.WaitGroup
	for id := int32(0); id < 3; id++ {
		id := id
		view := d0.Stream(id)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perStream; i++ {
				msg, err := view.Recv(1)
				if err != nil {
					t.Errorf("stream %d recv %d: %v", id, i, err)
					return
				}
				if msg.Iter != int64(i) || msg.Chunk != id {
					t.Errorf("stream %d recv %d: got iter=%d chunk=%d", id, i, msg.Iter, msg.Chunk)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestStreamDemuxConcurrentPairs hammers many streams concurrently in both
// directions between two ranks; every stream must observe its own ordered
// sequence. Run under -race this also exercises the pull-lock routing.
func TestStreamDemuxConcurrentPairs(t *testing.T) {
	const streams = 8
	const msgs = 50
	net, err := NewLocalNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	demux := []*StreamDemux{NewStreamDemux(net.endpoints[0]), NewStreamDemux(net.endpoints[1])}

	var wg sync.WaitGroup
	for rank := 0; rank < 2; rank++ {
		peer := 1 - rank
		for id := int32(0); id < streams; id++ {
			view := demux[rank].Stream(id)
			wg.Add(2)
			go func(v Mesh) {
				defer wg.Done()
				for i := 0; i < msgs; i++ {
					if err := v.Send(peer, Message{Type: MsgChunk, Iter: int64(i)}); err != nil {
						t.Errorf("send: %v", err)
						return
					}
				}
			}(view)
			go func(v Mesh, id int32) {
				defer wg.Done()
				for i := 0; i < msgs; i++ {
					msg, err := v.Recv(peer)
					if err != nil {
						t.Errorf("stream %d recv: %v", id, err)
						return
					}
					if msg.Iter != int64(i) {
						t.Errorf("stream %d: iter %d at position %d", id, msg.Iter, i)
						return
					}
				}
			}(view, id)
		}
	}
	wg.Wait()
}

// TestStreamDemuxPayloadRouting checks payload integrity through the stray
// routing path: a message parked on another stream's queue must surface
// unmodified.
func TestStreamDemuxPayloadRouting(t *testing.T) {
	net, err := NewLocalNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	d0 := NewStreamDemux(net.endpoints[0])
	d1 := NewStreamDemux(net.endpoints[1])

	// Send on stream 5 first, then stream 2; receive stream 2 first so the
	// stream-5 message takes the routed path.
	pay5 := []float64{5, 55, 555}
	pay2 := []float64{2, 22}
	if err := d1.Stream(5).Send(0, Message{Type: MsgChunk, Iter: 9, Payload: pay5}); err != nil {
		t.Fatal(err)
	}
	if err := d1.Stream(2).Send(0, Message{Type: MsgChunk, Iter: 4, Payload: pay2}); err != nil {
		t.Fatal(err)
	}
	got2, err := d0.Stream(2).Recv(1)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Iter != 4 || len(got2.Payload) != 2 || got2.Payload[0] != 2 {
		t.Fatalf("stream 2 got %+v", got2)
	}
	got5, err := d0.Stream(5).Recv(1)
	if err != nil {
		t.Fatal(err)
	}
	if got5.Iter != 9 || len(got5.Payload) != 3 || got5.Payload[2] != 555 {
		t.Fatalf("stream 5 got %+v", got5)
	}
}

// TestStreamDemuxFullIterRange: stream views no longer steal Iter's high
// bits, so iters the old packing rejected must now flow through a view on
// both send paths.
func TestStreamDemuxFullIterRange(t *testing.T) {
	net, err := NewLocalNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	d0 := NewStreamDemux(net.endpoints[0])
	d1 := NewStreamDemux(net.endpoints[1])
	v := d1.Stream(1)
	if err := v.Send(0, Message{Type: MsgChunk, Iter: math.MaxInt64}); err != nil {
		t.Fatalf("Send err = %v", err)
	}
	pay := GetPayload(4)
	if err := v.(OwnedSender).SendOwned(0, Message{Type: MsgChunk, Iter: -1, Payload: pay}); err != nil {
		t.Fatalf("SendOwned err = %v", err)
	}
	for _, want := range []int64{math.MaxInt64, -1} {
		msg, err := d0.Stream(1).Recv(1)
		if err != nil {
			t.Fatal(err)
		}
		if msg.Iter != want {
			t.Errorf("iter = %d, want %d", msg.Iter, want)
		}
	}
}

// TestStreamDemuxClosePropagates: closing the parent fails every blocked
// stream Recv with ErrClosed.
func TestStreamDemuxClosePropagates(t *testing.T) {
	net, err := NewLocalNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	d := NewStreamDemux(net.endpoints[0])
	errs := make(chan error, 3)
	for id := int32(0); id < 3; id++ {
		view := d.Stream(id)
		go func() {
			_, err := view.Recv(1)
			errs <- err
		}()
	}
	_ = net.Close()
	for i := 0; i < 3; i++ {
		if err := <-errs; !errors.Is(err, ErrClosed) {
			t.Errorf("recv err = %v, want ErrClosed", err)
		}
	}
}

// TestStreamDemuxOverTCP runs the isolation scenario over the real TCP
// transport: the stream id must survive the wire encode/decode of Iter.
func TestStreamDemuxOverTCP(t *testing.T) {
	meshes, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, m := range meshes {
			_ = m.Close()
		}
	}()
	d0 := NewStreamDemux(meshes[0])
	d1 := NewStreamDemux(meshes[1])
	const perStream = 10
	go func() {
		for i := 0; i < perStream; i++ {
			for id := int32(0); id < 3; id++ {
				_ = d1.Stream(id).Send(0, Message{Type: MsgChunk, Iter: int64(i), Chunk: id, Payload: []float64{float64(int(id)*100 + i)}})
			}
		}
	}()
	var wg sync.WaitGroup
	for id := int32(0); id < 3; id++ {
		id := id
		view := d0.Stream(id)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perStream; i++ {
				msg, err := view.Recv(1)
				if err != nil {
					t.Errorf("stream %d: %v", id, err)
					return
				}
				want := float64(int(id)*100 + i)
				if msg.Iter != int64(i) || len(msg.Payload) != 1 || msg.Payload[0] != want {
					t.Errorf("stream %d pos %d: %+v", id, i, msg)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestStreamDemuxRecvBadRank mirrors the mesh contract for out-of-range
// peers.
func TestStreamDemuxRecvBadRank(t *testing.T) {
	net, err := NewLocalNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	v := NewStreamDemux(net.endpoints[0]).Stream(0)
	for _, from := range []int{-1, 2, 99} {
		if _, err := v.Recv(from); err == nil {
			t.Errorf("recv from %d accepted", from)
		}
	}
	if v.Rank() != 0 || v.Size() != 2 {
		t.Errorf("view identity: rank %d size %d", v.Rank(), v.Size())
	}
	_ = fmt.Sprintf("%v", v)
}

// TestTCPStreamRoutedDeliveryWhilePullerParked is the TCP-native analogue of
// TestStreamDemuxRoutedDeliveryWhilePullerParked: the mesh's own read
// election must deliver a routed stream's frame while another stream's
// consumer stays parked in the socket read.
func TestTCPStreamRoutedDeliveryWhilePullerParked(t *testing.T) {
	meshes, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, m := range meshes {
			_ = m.Close()
		}
	}()

	// Stream 0 on rank 0 parks first (its frame is sent last).
	got0 := make(chan error, 1)
	go func() {
		msg, err := meshes[0].Recv(1)
		if err == nil && msg.Iter != 7 {
			err = fmt.Errorf("stream 0 got iter %d", msg.Iter)
		}
		got0 <- err
	}()
	time.Sleep(50 * time.Millisecond)

	got1 := make(chan error, 1)
	go func() {
		msg, err := meshes[0].StreamView(1).Recv(1)
		if err == nil && msg.Iter != 3 {
			err = fmt.Errorf("stream 1 got iter %d", msg.Iter)
		}
		got1 <- err
	}()
	time.Sleep(50 * time.Millisecond)

	if err := meshes[1].StreamView(1).Send(0, Message{Type: MsgReduce, Iter: 3}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got1:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream 1 never received its routed frame")
	}

	if err := meshes[1].Send(0, Message{Type: MsgReduce, Iter: 7}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got0:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked reader never received its own frame")
	}
}

// TestStreamDemuxRoutedDeliveryWhilePullerParked pins the liveness property
// that makes concurrent collectives on one mesh safe: a stream whose message is
// routed by the elected puller must receive it even though the puller stays
// parked in parent.Recv. With a mutex election the waiter would be committed
// to the lock acquire, blind to its own queue, and a distributed cycle
// (puller's message depending on the waiter's progress) would deadlock.
func TestStreamDemuxRoutedDeliveryWhilePullerParked(t *testing.T) {
	net, err := NewLocalNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	d0 := NewStreamDemux(net.endpoints[0])
	d1 := NewStreamDemux(net.endpoints[1])

	// Stream 0 on rank 0 starts first and wins the pull election for peer 1,
	// then parks in parent.Recv: its message is deliberately sent last.
	got0 := make(chan error, 1)
	go func() {
		msg, err := d0.Stream(0).Recv(1)
		if err == nil && msg.Iter != 7 {
			err = fmt.Errorf("stream 0 got iter %d", msg.Iter)
		}
		got0 <- err
	}()
	time.Sleep(50 * time.Millisecond)

	// Stream 1 on rank 0 now waits behind the parked puller.
	got1 := make(chan error, 1)
	go func() {
		msg, err := d0.Stream(1).Recv(1)
		if err == nil && msg.Iter != 3 {
			err = fmt.Errorf("stream 1 got iter %d", msg.Iter)
		}
		got1 <- err
	}()
	time.Sleep(50 * time.Millisecond)

	// Rank 1 sends stream 1's message: the parked puller routes it, and
	// stream 1 must complete while the puller keeps waiting.
	if err := d1.Stream(1).Send(0, Message{Type: MsgReduce, Iter: 3}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got1:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream 1 never received its routed message (waiter blind to its queue)")
	}

	// Only now release the puller.
	if err := d1.Stream(0).Send(0, Message{Type: MsgReduce, Iter: 7}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got0:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked puller never received its own message")
	}
}
