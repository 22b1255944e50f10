package transport

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"
)

// landCase names the frame both sides of a landing test agree on.
var landCase = Landing{Type: MsgChunk, Iter: 5, Chunk: 2}

// landPayload is a recognizable chunk body: large enough that the writer
// ships it as a zero-copy view and the reader lands it with read(2).
func landPayload(n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = float64(i)*0.25 - 3
	}
	return p
}

// filled returns a dst of n elements preset to v.
func filled(n int, v float64) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = v
	}
	return d
}

// TestRecvIntoMismatchNeverWritesDst: a frame whose type, iteration, tag or
// element count differs from what the Landing names comes back whole, as a
// pooled payload with ErrUnexpectedFrame, and dst keeps every bit — over TCP,
// where the reader sees the header before it can decide to land, and on the
// in-memory mesh. A Landing that accepts any iteration (a parameter-server
// ack's version) still refuses another tag. The expected frame that follows
// on the same connection lands, and so does one of another iteration into an
// any-version Landing, which returns that iteration. Matching on the element
// count alone fails this test.
func TestRecvIntoMismatchNeverWritesDst(t *testing.T) {
	const n = 4096
	payload := landPayload(n)
	wrong := []struct {
		name    string
		msg     Message
		anyIter bool
	}{
		{"type", Message{Type: MsgReduce, Iter: landCase.Iter, Chunk: landCase.Chunk, Payload: payload}, false},
		{"iter", Message{Type: landCase.Type, Iter: landCase.Iter + 1, Chunk: landCase.Chunk, Payload: payload}, false},
		{"tag", Message{Type: landCase.Type, Iter: landCase.Iter, Chunk: landCase.Chunk + 1, Payload: payload}, false},
		{"longer", Message{Type: landCase.Type, Iter: landCase.Iter, Chunk: landCase.Chunk, Payload: payload, Tail: 1, HasTail: true}, false},
		{"shorter", Message{Type: landCase.Type, Iter: landCase.Iter, Chunk: landCase.Chunk, Payload: payload[:n-1]}, false},
		{"any version, tag", Message{Type: landCase.Type, Iter: landCase.Iter + 3, Chunk: landCase.Chunk + 1, Payload: payload}, true},
	}
	for kind, pair := range landPairs(t) {
		for _, add := range []bool{false, true} {
			for _, w := range wrong {
				name := fmt.Sprintf("%s/add=%t/%s", kind, add, w.name)
				if err := pair[1].Send(0, w.msg); err != nil {
					t.Fatal(err)
				}
				l := landCase
				l.Dst, l.Add, l.AnyIter = filled(n, 7), add, w.anyIter
				got, err := RecvInto(pair[0], 1, l)
				if !errors.Is(err, ErrUnexpectedFrame) {
					t.Fatalf("%s: err = %v, want ErrUnexpectedFrame", name, err)
				}
				for i, x := range l.Dst {
					if x != 7 {
						t.Fatalf("%s: dst[%d] = %v: an unexpected frame was written into dst", name, i, x)
					}
				}
				if got.Type != w.msg.Type || got.Iter != w.msg.Iter || got.Chunk != w.msg.Chunk || len(got.Payload) != w.msg.elems() {
					t.Fatalf("%s: came back as %v/%d/%d with %d elems", name, got.Type, got.Iter, got.Chunk, len(got.Payload))
				}
				for i := range w.msg.Payload {
					if got.Payload[i] != w.msg.Payload[i] {
						t.Fatalf("%s: returned payload[%d] = %v, sent %v", name, i, got.Payload[i], w.msg.Payload[i])
					}
				}
				PutPayload(got.Payload)
			}
			// The connection is still framed: the expected frame lands, and
			// so does one of another iteration where any is accepted.
			for _, anyIter := range []bool{false, true} {
				iter := landCase.Iter
				if anyIter {
					iter += 11
				}
				if err := pair[1].Send(0, Message{Type: landCase.Type, Iter: iter, Chunk: landCase.Chunk, Payload: payload}); err != nil {
					t.Fatal(err)
				}
				l := landCase
				l.Dst, l.Add, l.AnyIter = filled(n, 7), add, anyIter
				stop := CountLandings()
				got, err := RecvInto(pair[0], 1, l)
				landed, _ := stop()
				if err != nil {
					t.Fatalf("%s/add=%t/any=%t: the expected frame: %v", kind, add, anyIter, err)
				}
				if got.Iter != iter {
					t.Errorf("%s/add=%t/any=%t: landed frame reports iteration %d, sent %d", kind, add, anyIter, got.Iter, iter)
				}
				if kind == "tcp" && landed != 1 {
					t.Errorf("%s/add=%t/any=%t: the expected frame did not land off the socket", kind, add, anyIter)
				}
				for i, x := range l.Dst {
					want := payload[i]
					if add {
						want += 7
					}
					if x != want {
						t.Fatalf("%s/add=%t/any=%t: dst[%d] = %v, want %v", kind, add, anyIter, i, x, want)
					}
				}
			}
		}
	}
}

// landPairs returns a two-rank in-memory mesh and a two-rank TCP mesh.
func landPairs(t *testing.T) map[string][2]Mesh {
	t.Helper()
	local, err := NewLocalNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = local.Close()
		for _, m := range tcp {
			_ = m.Close()
		}
	})
	eps := local.Endpoints()
	return map[string][2]Mesh{"mem": {eps[0], eps[1]}, "tcp": {tcp[0], tcp[1]}}
}

// TestRecvIntoPeerLost: a peer that dies halfway through a body fails the
// landing receive with ErrClosed within 2 s — it is not left waiting for the
// rest — and nothing writes to dst after the call returns, copy or add.
func TestRecvIntoPeerLost(t *testing.T) {
	const n = 1 << 14
	for _, add := range []bool{false, true} {
		meshes, err := NewTCPCluster(2)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := Encode(nil, Message{Type: landCase.Type, Iter: landCase.Iter, Chunk: landCase.Chunk, Payload: landPayload(n)})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			// Header and half the body straight onto rank 1's socket, then
			// the peer is gone.
			time.Sleep(20 * time.Millisecond)
			_, _ = meshes[1].peers[0].conn.Write(frame[:frameHeaderBytes+4*n])
			time.Sleep(20 * time.Millisecond)
			_ = meshes[1].Close()
		}()
		l := landCase
		l.Dst, l.Add = filled(n, 7), add
		start := time.Now()
		stop := CountLandings()
		_, err = RecvInto(meshes[0], 1, l)
		stop()
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("add=%t: the receive took %v to notice the lost peer", add, elapsed)
		}
		if !errors.Is(err, ErrClosed) {
			t.Errorf("add=%t: err = %v, want ErrClosed", add, err)
		}
		// The half that arrived was landed (so this is the landing path, not
		// the decoder's), and dst stays as the call left it.
		if want := -3.0; add {
			if l.Dst[0] != want+7 {
				t.Errorf("add=%t: dst[0] = %v, the landed half should hold %v", add, l.Dst[0], want+7)
			}
		} else if l.Dst[0] != want {
			t.Errorf("add=%t: dst[0] = %v, the landed half should hold %v", add, l.Dst[0], want)
		}
		snapshot := append([]float64(nil), l.Dst...)
		time.Sleep(50 * time.Millisecond)
		for i := range snapshot {
			if math.Float64bits(l.Dst[i]) != math.Float64bits(snapshot[i]) {
				t.Fatalf("add=%t: dst[%d] written after RecvInto returned", add, i)
			}
		}
		_ = meshes[0].Close()
	}
}

// TestRecvIntoAfterDrain: every rank sends a frame far larger than the
// socket buffers before it receives, so write-stall drains decode part of
// each frame into a pooled payload before any RecvInto runs. The receive
// must finish that frame through the decoder and fold the same values a
// landing would.
func TestRecvIntoAfterDrain(t *testing.T) {
	const (
		n   = 4
		dim = 1 << 20 // 8 MiB per frame
	)
	meshes, err := NewTCPCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, m := range meshes {
			_ = m.Close()
		}
	}()
	stop := CountLandings()
	defer func() {
		landed, pooled := stop()
		t.Logf("%d landed off the socket, %d finished through the decoder", landed, pooled)
	}()
	done := make(chan error, n)
	for _, m := range meshes {
		go func() {
			payload := make([]float64, dim)
			for i := range payload {
				payload[i] = float64(m.Rank()*dim + i)
			}
			if err := m.Send((m.Rank()+1)%n, Message{Type: MsgReduce, Iter: 1, Payload: payload}); err != nil {
				done <- err
				return
			}
			left := (m.Rank() + n - 1) % n
			dst := filled(dim, 0.5)
			if _, err := RecvInto(m, left, Landing{Type: MsgReduce, Iter: 1, Dst: dst, Add: true}); err != nil {
				done <- err
				return
			}
			for _, i := range []int{0, 1, dim / 2, dim - 1} {
				if want := float64(left*dim+i) + 0.5; dst[i] != want {
					done <- fmt.Errorf("rank %d: dst[%d] = %v, want %v", m.Rank(), i, dst[i], want)
					return
				}
			}
			done <- nil
		}()
	}
	timeout := time.After(60 * time.Second)
	for range meshes {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			t.Fatal("deadlock: ranks still blocked after 60s")
		}
	}
}
