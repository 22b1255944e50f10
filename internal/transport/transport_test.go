package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	msgs := []Message{
		{Type: MsgChunk, From: 1, To: 2, Iter: 42, Chunk: 3, Payload: []float64{1.5, -2.25, 0}},
		{Type: MsgBroadcast, From: 0, To: 7, Iter: -1, Chunk: 0, Payload: nil},
		{Type: MsgControl, From: 100, To: 0, Iter: 1 << 40, Chunk: -1, Payload: []float64{math.Pi}},
	}
	var buf bytes.Buffer
	for _, m := range msgs {
		buf.Write(encode(t, m))
	}
	for i, want := range msgs {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if got.Type != want.Type || got.From != want.From || got.To != want.To ||
			got.Iter != want.Iter || got.Chunk != want.Chunk {
			t.Errorf("msg %d header = %+v, want %+v", i, got, want)
		}
		if len(got.Payload) != len(want.Payload) {
			t.Fatalf("msg %d payload len = %d, want %d", i, len(got.Payload), len(want.Payload))
		}
		for j := range want.Payload {
			if got.Payload[j] != want.Payload[j] {
				t.Errorf("msg %d payload[%d] = %v, want %v", i, j, got.Payload[j], want.Payload[j])
			}
		}
	}
	if _, err := ReadMessage(&buf); !errors.Is(err, io.EOF) {
		t.Errorf("read past end = %v, want EOF", err)
	}
}

func TestEncodeAppends(t *testing.T) {
	prefix := []byte{0xAA, 0xBB}
	buf, err := Encode(prefix, Message{Type: MsgControl})
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xAA || buf[1] != 0xBB {
		t.Error("Encode clobbered existing bytes")
	}
	got, err := ReadMessage(bytes.NewReader(buf[2:]))
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != MsgControl {
		t.Errorf("decoded type = %v", got.Type)
	}
}

func TestReadMessageTruncated(t *testing.T) {
	buf, err := Encode(nil, Message{Type: MsgChunk, Payload: []float64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	// Truncated header.
	if _, err := ReadMessage(bytes.NewReader(buf[:5])); err == nil {
		t.Error("truncated header should error")
	}
	// Truncated payload.
	if _, err := ReadMessage(bytes.NewReader(buf[:len(buf)-4])); err == nil {
		t.Error("truncated payload should error")
	}
}

func TestReadMessageHugePayloadRejected(t *testing.T) {
	buf, err := Encode(nil, Message{Type: MsgChunk})
	if err != nil {
		t.Fatal(err)
	}
	// Forge a giant payload length (v1 nelems field at offset 32).
	buf[32], buf[33], buf[34], buf[35] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, err := ReadMessage(bytes.NewReader(buf)); !errors.Is(err, ErrPayloadTooLarge) {
		t.Errorf("forged length error = %v, want ErrPayloadTooLarge", err)
	}
}

func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(typ uint8, from, to int32, iter int64, chunk int32, payload []float64) bool {
		m := Message{
			Type: MsgType(typ%3 + 1), From: from, To: to,
			Iter: iter, Chunk: chunk, Payload: payload,
		}
		buf, err := Encode(nil, m)
		if err != nil {
			return false
		}
		got, err := ReadMessage(bytes.NewReader(buf))
		if err != nil {
			return false
		}
		if got.Type != m.Type || got.From != m.From || got.To != m.To ||
			got.Iter != m.Iter || got.Chunk != m.Chunk || len(got.Payload) != len(m.Payload) {
			return false
		}
		for i := range m.Payload {
			a, b := got.Payload[i], m.Payload[i]
			if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func testMeshBasics(t *testing.T, meshes []Mesh) {
	t.Helper()
	n := len(meshes)
	// Every rank sends a tagged message to every other rank.
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				err := meshes[i].Send(j, Message{
					Type:    MsgChunk,
					Iter:    int64(i*100 + j),
					Payload: []float64{float64(i), float64(j)},
				})
				if err != nil {
					t.Errorf("send %d->%d: %v", i, j, err)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				m, err := meshes[i].Recv(j)
				if err != nil {
					t.Errorf("recv %d<-%d: %v", i, j, err)
					return
				}
				if int(m.From) != j || int(m.To) != i {
					t.Errorf("rank %d got From=%d To=%d, want From=%d To=%d", i, m.From, m.To, j, i)
				}
				if m.Iter != int64(j*100+i) {
					t.Errorf("rank %d from %d: iter %d, want %d", i, j, m.Iter, j*100+i)
				}
			}
		}()
	}
	wg.Wait()
}

func testMeshOrdering(t *testing.T, a, b Mesh) {
	t.Helper()
	const n = 200
	for k := 0; k < n; k++ {
		if err := a.Send(b.Rank(), Message{Type: MsgControl, Iter: int64(k)}); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < n; k++ {
		m, err := b.Recv(a.Rank())
		if err != nil {
			t.Fatal(err)
		}
		if m.Iter != int64(k) {
			t.Fatalf("ordering violated: got iter %d at position %d", m.Iter, k)
		}
	}
}

func TestLocalNetwork(t *testing.T) {
	net, err := NewLocalNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	meshes := net.Endpoints()
	if len(meshes) != 4 {
		t.Fatalf("endpoints = %d", len(meshes))
	}
	if meshes[2].Rank() != 2 || meshes[2].Size() != 4 {
		t.Errorf("rank/size = %d/%d", meshes[2].Rank(), meshes[2].Size())
	}
	testMeshBasics(t, meshes)
	testMeshOrdering(t, meshes[0], meshes[3])
}

func TestLocalNetworkInvalid(t *testing.T) {
	if _, err := NewLocalNetwork(0); err == nil {
		t.Error("NewLocalNetwork(0) should error")
	}
	net, err := NewLocalNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	if _, err := net.Endpoint(5); err == nil {
		t.Error("out-of-range Endpoint should error")
	}
	ep, err := net.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(9, Message{}); err == nil {
		t.Error("send to bad rank should error")
	}
	if _, err := ep.Recv(-1); err == nil {
		t.Error("recv from bad rank should error")
	}
}

func TestLocalMeshClose(t *testing.T) {
	net, err := NewLocalNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	ep0, _ := net.Endpoint(0)
	ep1, _ := net.Endpoint(1)

	done := make(chan error, 1)
	go func() {
		_, err := ep1.Recv(0)
		done <- err
	}()
	if err := ep1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Errorf("recv on closed mesh = %v, want ErrClosed", err)
	}
	if err := ep1.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
	if err := ep0.Send(1, Message{}); !errors.Is(err, ErrClosed) {
		t.Errorf("send to closed peer = %v, want ErrClosed", err)
	}
	_ = net.Close()
}

func TestTCPCluster(t *testing.T) {
	meshes, err := NewTCPCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, m := range meshes {
			_ = m.Close()
		}
	}()
	asMesh := make([]Mesh, len(meshes))
	for i, m := range meshes {
		asMesh[i] = m
	}
	testMeshBasics(t, asMesh)
	testMeshOrdering(t, meshes[1], meshes[2])
}

func TestTCPSelfSend(t *testing.T) {
	meshes, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, m := range meshes {
			_ = m.Close()
		}
	}()
	if err := meshes[0].Send(0, Message{Type: MsgControl, Iter: 7}); err != nil {
		t.Fatal(err)
	}
	m, err := meshes[0].Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Iter != 7 {
		t.Errorf("self-send iter = %d", m.Iter)
	}
}

// TestRingBulkSendBeforeRecv pins the transport against the mutual-bulk
// deadlock: every rank sends one frame far larger than the kernel socket
// buffers to its right neighbor BEFORE posting its receive, so no consumer
// read ever drains the sockets and progress depends entirely on the
// write-stall drain. The drain must both actually read the socket (a probe
// under an expired deadline silently reads nothing) and checkpoint
// mid-frame (blocking for a frame tail forms a circular wait around the
// ring); regressions in either deadlock this test.
func TestRingBulkSendBeforeRecv(t *testing.T) {
	const (
		n   = 4
		dim = 2 << 20 // 16 MiB of f64 per frame, >> socket buffering
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
	done := make(chan error, n)
	for _, m := range meshes {
		m := m
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
			got, err := m.Recv(left)
			if err != nil {
				done <- err
				return
			}
			if len(got.Payload) != dim {
				done <- fmt.Errorf("rank %d: got %d elems, want %d", m.Rank(), len(got.Payload), dim)
				return
			}
			for _, i := range []int{0, 1, dim / 2, dim - 1} {
				if want := float64(left*dim + i); got.Payload[i] != want {
					done <- fmt.Errorf("rank %d: payload[%d] = %v, want %v", m.Rank(), i, got.Payload[i], want)
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
			t.Fatal("deadlock: ranks still blocked after 60s (write-stall drain not making progress)")
		}
	}
}

func TestTCPClose(t *testing.T) {
	meshes, err := NewTCPCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := meshes[0].Recv(1)
		done <- err
	}()
	if err := meshes[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Errorf("recv after close = %v, want ErrClosed", err)
	}
	if err := meshes[0].Send(1, Message{}); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close = %v, want ErrClosed", err)
	}
	if err := meshes[0].Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
	for _, m := range meshes[1:] {
		_ = m.Close()
	}
}

func TestTCPClusterInvalid(t *testing.T) {
	if _, err := NewTCPCluster(0); err == nil {
		t.Error("NewTCPCluster(0) should error")
	}
}

func TestTCPLargePayload(t *testing.T) {
	meshes, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, m := range meshes {
			_ = m.Close()
		}
	}()
	payload := make([]float64, 100_000)
	for i := range payload {
		payload[i] = float64(i) * 0.25
	}
	go func() {
		_ = meshes[0].Send(1, Message{Type: MsgBroadcast, Payload: payload})
	}()
	m, err := meshes[1].Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Payload) != len(payload) {
		t.Fatalf("payload len = %d", len(m.Payload))
	}
	for i := 0; i < len(payload); i += 9973 {
		if m.Payload[i] != payload[i] {
			t.Fatalf("payload[%d] = %v, want %v", i, m.Payload[i], payload[i])
		}
	}
}

func TestSubMesh(t *testing.T) {
	net, err := NewLocalNetwork(5)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	// Group {1,3,4}; rank 3's view.
	parent, err := net.Endpoint(3)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := NewSubMesh(parent, []int{1, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Rank() != 1 || sub.Size() != 3 {
		t.Errorf("rank/size = %d/%d, want 1/3", sub.Rank(), sub.Size())
	}
	g, err := sub.GlobalRank(2)
	if err != nil || g != 4 {
		t.Errorf("GlobalRank(2) = (%d,%v)", g, err)
	}
	if _, err := sub.GlobalRank(3); err == nil {
		t.Error("out-of-range local rank should error")
	}

	// Send local 0 (= global 1) a message; verify it arrives at global 1
	// stamped with global From/To.
	if err := sub.Send(0, Message{Type: MsgControl, Iter: 9}); err != nil {
		t.Fatal(err)
	}
	ep1, err := net.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := ep1.Recv(3)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Iter != 9 || msg.From != 3 || msg.To != 1 {
		t.Errorf("msg = %+v", msg)
	}

	// Recv through the submesh translates peer indices.
	if err := ep1.Send(3, Message{Type: MsgControl, Iter: 11}); err != nil {
		t.Fatal(err)
	}
	got, err := sub.Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iter != 11 {
		t.Errorf("sub recv iter = %d", got.Iter)
	}
	if err := sub.Send(7, Message{}); err == nil {
		t.Error("send to bad local rank should error")
	}
	if _, err := sub.Recv(-1); err == nil {
		t.Error("recv from bad local rank should error")
	}
}

func TestSubMeshValidation(t *testing.T) {
	net, err := NewLocalNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	parent, err := net.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSubMesh(parent, nil); err == nil {
		t.Error("empty members should error")
	}
	if _, err := NewSubMesh(parent, []int{0, 5}); err == nil {
		t.Error("out-of-range member should error")
	}
	if _, err := NewSubMesh(parent, []int{0, 0}); err == nil {
		t.Error("duplicate member should error")
	}
	if _, err := NewSubMesh(parent, []int{1, 2}); err == nil {
		t.Error("subset excluding own rank should error")
	}
}

func TestSubMeshCollective(t *testing.T) {
	// A ring allreduce confined to a 3-member subgroup of a 5-rank mesh.
	net, err := NewLocalNetwork(5)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	members := []int{0, 2, 4}
	var wg sync.WaitGroup
	sums := make([]float64, 5)
	errs := make([]error, 5)
	for _, g := range members {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			parent, err := net.Endpoint(g)
			if err != nil {
				errs[g] = err
				return
			}
			sub, err := NewSubMesh(parent, members)
			if err != nil {
				errs[g] = err
				return
			}
			// Poor man's allreduce over the submesh: everyone sends
			// its value to local 0, which totals and broadcasts back.
			v := float64(g + 1)
			if sub.Rank() == 0 {
				total := v
				for p := 1; p < sub.Size(); p++ {
					m, err := sub.Recv(p)
					if err != nil {
						errs[g] = err
						return
					}
					total += m.Payload[0]
				}
				for p := 1; p < sub.Size(); p++ {
					if err := sub.Send(p, Message{Type: MsgControl, Payload: []float64{total}}); err != nil {
						errs[g] = err
						return
					}
				}
				sums[g] = total
			} else {
				if err := sub.Send(0, Message{Type: MsgControl, Payload: []float64{v}}); err != nil {
					errs[g] = err
					return
				}
				m, err := sub.Recv(0)
				if err != nil {
					errs[g] = err
					return
				}
				sums[g] = m.Payload[0]
			}
		}()
	}
	wg.Wait()
	for _, g := range members {
		if errs[g] != nil {
			t.Fatalf("rank %d: %v", g, errs[g])
		}
		if sums[g] != 9 { // 1+3+5
			t.Errorf("rank %d sum = %v, want 9", g, sums[g])
		}
	}
}
