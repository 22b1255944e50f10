package transport

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/tensor"
)

// Tests for the v1 connect hello: version negotiation and typed rejection of
// peers that do not speak the protocol.

func TestHelloRoundTrip(t *testing.T) {
	var b [helloBytes]byte
	for i := range b {
		b[i] = 0xAA
	}
	putHello(b[:], ProtocolV1, 7)
	version, rank, err := parseHello(b[:])
	if err != nil {
		t.Fatal(err)
	}
	if version != ProtocolV1 || rank != 7 {
		t.Errorf("round trip = (v%d, rank %d)", version, rank)
	}
	for i := 5; i < 16; i++ {
		if b[i] != 0 {
			t.Errorf("reserved hello byte %d = %#x, want 0", i, b[i])
		}
	}
}

// tcpPair returns the two ends of a fresh localhost TCP connection. (A
// net.Pipe would deadlock the symmetric hello: it is unbuffered, and both
// ends write before reading — real sockets buffer a hello easily.)
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	type res struct {
		conn net.Conn
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		conn, err := ln.Accept()
		ch <- res{conn, err}
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		_ = a.Close()
		t.Fatal(r.err)
	}
	return a, r.conn
}

// exchangePipe runs exchangeHello on both ends of a fresh connection.
func exchangePipe(t *testing.T, va uint8, ra int, vb uint8, rb int) (
	peerA, peerB int32, verA, verB uint8, errA, errB error) {
	t.Helper()
	a, b := tcpPair(t)
	defer func() { _ = a.Close(); _ = b.Close() }()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); peerA, verA, errA = exchangeHello(a, va, ra) }()
	go func() { defer wg.Done(); peerB, verB, errB = exchangeHello(b, vb, rb) }()
	wg.Wait()
	return
}

// TestExchangeHelloNegotiation: both ends independently land on the min
// version and see each other's rank. A hello from a newer build is
// accepted, and the connection speaks v1.
func TestExchangeHelloNegotiation(t *testing.T) {
	testCases := []struct {
		name     string
		peerV    uint8
		peerRank int
	}{
		{name: "v1 peer", peerV: ProtocolV1, peerRank: 1},
		{name: "forged v2 peer speaks v1", peerV: ProtocolV1 + 1, peerRank: 2},
		{name: "future peer speaks v1", peerV: ProtocolV1 + 6, peerRank: 3},
	}
	for _, tc := range testCases {
		t.Run(tc.name, func(t *testing.T) {
			peerA, peerB, verA, verB, errA, errB := exchangePipe(t, ProtocolV1, 0, tc.peerV, tc.peerRank)
			if errA != nil || errB != nil {
				t.Fatalf("errs: %v / %v", errA, errB)
			}
			if peerA != int32(tc.peerRank) || peerB != 0 {
				t.Errorf("peer ranks %d / %d", peerA, peerB)
			}
			if verA != ProtocolV1 || verB != ProtocolV1 {
				t.Errorf("negotiated versions %d / %d, want %d", verA, verB, ProtocolV1)
			}
		})
	}
}

// TestHelloDowngrade: a cluster whose hellos still carry a capability mask
// in bytes 8–15, as earlier builds sent, connects, and the connection then
// carries an f64 frame with a tail bit for bit in both directions. The first
// row is a build that still advertised the f32, f16 and i8 encodings in bits
// 0–2.
func TestHelloDowngrade(t *testing.T) {
	testCases := []struct {
		name string
		caps uint64
	}{
		{name: "pre-change CapsAll (bits 0-5)", caps: 0x3f},
		{name: "streams and ps only", caps: 0x30},
		{name: "current CapsAll", caps: 0x38},
	}
	payload := []float64{1.25, -3.7e-3, math.Pi, 0, math.Copysign(0, -1), 6.02e23}
	const tail = -2.5e-7
	want := append(append([]float64(nil), payload...), tail)

	for _, tc := range testCases {
		t.Run(tc.name, func(t *testing.T) {
			meshes := capsCluster(t, tc.caps)
			for from, to := range []int{1, 0} {
				done := make(chan error, 1)
				go func() {
					done <- meshes[from].Send(to, Message{Type: MsgChunk, Iter: 4, Chunk: 1, Payload: payload, Tail: tail, HasTail: true})
				}()
				msg, err := meshes[to].Recv(from)
				if err != nil || <-done != nil {
					t.Fatalf("rank %d to %d, f64 frame with a tail: %v", from, to, err)
				}
				if msg.Dtype != tensor.F64 || len(msg.Payload) != len(want) {
					t.Fatalf("rank %d to %d: got dtype %v, %d elems; want f64, %d", from, to, msg.Dtype, len(msg.Payload), len(want))
				}
				for i := range want {
					if math.Float64bits(msg.Payload[i]) != math.Float64bits(want[i]) {
						t.Errorf("rank %d to %d, elem %d: got %x, want %x", from, to, i, math.Float64bits(msg.Payload[i]), math.Float64bits(want[i]))
					}
				}
			}
		})
	}
}

// capsCluster connects a two-rank TCP mesh through a relay that writes caps
// into bytes 8–15 of both ranks' hellos and passes every later byte through
// unchanged. The meshes and the relay are closed when t ends.
func capsCluster(t *testing.T, caps uint64) [2]*TCPMesh {
	t.Helper()
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln1.Close() }()
	relay, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = relay.Close() }()

	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns []net.Conn
	)
	keep := func(c net.Conn) {
		mu.Lock()
		conns = append(conns, c)
		mu.Unlock()
	}
	// copyHello forwards src's hello with the mask written in, then
	// everything after it as is.
	copyHello := func(dst, src net.Conn) {
		defer wg.Done()
		var hello [helloBytes]byte
		if _, err := io.ReadFull(src, hello[:]); err != nil {
			return
		}
		binary.LittleEndian.PutUint64(hello[8:], caps)
		if _, err := dst.Write(hello[:]); err != nil {
			return
		}
		_, _ = io.Copy(dst, src)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		from0, err := relay.Accept()
		if err != nil {
			return
		}
		keep(from0)
		to1, err := net.Dial("tcp", ln1.Addr().String())
		if err != nil {
			_ = from0.Close()
			return
		}
		keep(to1)
		wg.Add(2)
		go copyHello(to1, from0)
		go copyHello(from0, to1)
	}()
	t.Cleanup(func() {
		mu.Lock()
		for _, c := range conns {
			_ = c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})

	var (
		meshes [2]*TCPMesh
		errs   [2]error
		dial   sync.WaitGroup
	)
	dial.Add(2)
	go func() {
		defer dial.Done()
		meshes[0], errs[0] = DialMesh(0, []string{"unused", relay.Addr().String()}, nil)
	}()
	go func() {
		defer dial.Done()
		meshes[1], errs[1] = DialMesh(1, []string{"unused", ln1.Addr().String()}, ln1)
	}()
	dial.Wait()
	t.Cleanup(func() {
		for _, m := range meshes {
			if m != nil {
				_ = m.Close()
			}
		}
	})
	if err := errors.Join(errs[:]...); err != nil {
		t.Fatal(err)
	}
	return meshes
}

// TestExchangeHelloRejectsOldVersion: a peer below the oldest version this
// build serves fails typed on the side that can tell.
func TestExchangeHelloRejectsOldVersion(t *testing.T) {
	_, _, _, _, errA, _ := exchangePipe(t,
		ProtocolV1, 0,
		0, 1)
	if !errors.Is(errA, ErrVersionMismatch) {
		t.Errorf("err = %v, want ErrVersionMismatch", errA)
	}
}

// TestExchangeHelloBadMagic: a peer that is not a mesh endpoint at all (its
// first bytes are not the magic) is rejected typed, not decoded as garbage.
func TestExchangeHelloBadMagic(t *testing.T) {
	a, b := tcpPair(t)
	defer func() { _ = a.Close(); _ = b.Close() }()
	go func() {
		var junk [helloBytes]byte
		for i := range junk {
			junk[i] = 0xEE
		}
		_, _ = b.Write(junk[:])
	}()
	_, _, err := exchangeHello(a, ProtocolV1, 0)
	if !errors.Is(err, ErrVersionMismatch) {
		t.Errorf("err = %v, want ErrVersionMismatch", err)
	}
}

// TestExchangeHelloShort: a peer that hangs up mid-hello is a protocol
// mismatch, not a retryable I/O error.
func TestExchangeHelloShort(t *testing.T) {
	a, b := tcpPair(t)
	defer func() { _ = a.Close() }()
	go func() {
		_, _ = b.Write([]byte{'R', 'N', 'A'})
		// Drain the peer's hello before closing so the close arrives as a
		// graceful FIN (EOF), not a reset of unread data.
		var sink [helloBytes]byte
		_, _ = io.ReadFull(b, sink[:])
		_ = b.Close()
	}()
	_, _, err := exchangeHello(a, ProtocolV1, 0)
	if !errors.Is(err, ErrVersionMismatch) {
		t.Errorf("err = %v, want ErrVersionMismatch", err)
	}
}

// TestDialMeshRejectsNonProtocolPeer: end to end, a raw TCP client that
// connects to a mesh listener and talks anything but the protocol fails mesh
// construction with ErrVersionMismatch.
func TestDialMeshRejectsNonProtocolPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return
		}
		junk := make([]byte, helloBytes)
		for i := range junk {
			junk[i] = 0x55
		}
		_, _ = conn.Write(junk)
		// Keep the socket open so the failure is the magic check, not EOF.
		time.Sleep(2 * time.Second)
		_ = conn.Close()
	}()
	// Rank 1 of 2 accepts exactly one connection (from "rank 0").
	_, err = DialMesh(1, []string{"unused", ln.Addr().String()}, ln)
	if !errors.Is(err, ErrVersionMismatch) {
		t.Errorf("DialMesh err = %v, want ErrVersionMismatch", err)
	}
}

// TestDialMeshRejectsOldPeer: a conforming hello advertising a pre-v1
// version is rejected the same way — elastic clusters with a stale binary
// fail fast at connect, not mid-collective.
func TestDialMeshRejectsOldPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return
		}
		var hello [helloBytes]byte
		putHello(hello[:], 0, 0) // version 0: before v1 existed
		_, _ = conn.Write(hello[:])
		time.Sleep(2 * time.Second)
		_ = conn.Close()
	}()
	_, err = DialMesh(1, []string{"unused", ln.Addr().String()}, ln)
	if !errors.Is(err, ErrVersionMismatch) {
		t.Errorf("DialMesh err = %v, want ErrVersionMismatch", err)
	}
}
