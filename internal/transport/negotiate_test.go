package transport

import (
	"errors"
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/tensor"
)

// Tests for the v1 connect hello: version negotiation, capability
// intersection, and typed rejection of peers that do not speak the protocol.

func TestHelloRoundTrip(t *testing.T) {
	var b [helloBytes]byte
	putHello(b[:], ProtocolV1, CapSparse|CapPS, 7)
	version, caps, rank, err := parseHello(b[:])
	if err != nil {
		t.Fatal(err)
	}
	if version != ProtocolV1 || caps != CapSparse|CapPS || rank != 7 {
		t.Errorf("round trip = (v%d, %v, rank %d)", version, caps, rank)
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
func exchangePipe(t *testing.T, va uint8, ca Caps, ra int, vb uint8, cb Caps, rb int) (
	peerA, peerB int32, verA, verB uint8, capsA, capsB Caps, errA, errB error) {
	t.Helper()
	a, b := tcpPair(t)
	defer func() { _ = a.Close(); _ = b.Close() }()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); peerA, verA, capsA, errA = exchangeHello(a, va, ca, ra) }()
	go func() { defer wg.Done(); peerB, verB, capsB, errB = exchangeHello(b, vb, cb, rb) }()
	wg.Wait()
	return
}

// TestExchangeHelloNegotiation: both ends independently land on the min
// version and the AND of the capability masks, and see each other's rank.
func TestExchangeHelloNegotiation(t *testing.T) {
	peerA, peerB, verA, verB, capsA, capsB, errA, errB := exchangePipe(t,
		ProtocolV1, CapsAll, 0,
		ProtocolV1+2, CapSparse|CapStreams, 1)
	if errA != nil || errB != nil {
		t.Fatalf("errs: %v / %v", errA, errB)
	}
	if peerA != 1 || peerB != 0 {
		t.Errorf("peer ranks %d / %d", peerA, peerB)
	}
	if verA != ProtocolV1 || verB != ProtocolV1 {
		t.Errorf("negotiated versions %d / %d, want %d", verA, verB, ProtocolV1)
	}
	want := CapSparse | CapStreams
	if capsA != want || capsB != want {
		t.Errorf("negotiated caps %v / %v, want %v", capsA, capsB, want)
	}
}

// TestExchangeHelloRejectsOldVersion: a peer below the oldest version this
// build serves fails typed on the side that can tell.
func TestExchangeHelloRejectsOldVersion(t *testing.T) {
	_, _, _, _, _, _, errA, _ := exchangePipe(t,
		ProtocolV1, CapsAll, 0,
		0, CapsAll, 1)
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
	_, _, _, err := exchangeHello(a, ProtocolV1, CapsAll, 0)
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
	_, _, _, err := exchangeHello(a, ProtocolV1, CapsAll, 0)
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
		putHello(hello[:], 0, CapsAll, 0) // version 0: before v1 existed
		_, _ = conn.Write(hello[:])
		time.Sleep(2 * time.Second)
		_ = conn.Close()
	}()
	_, err = DialMesh(1, []string{"unused", ln.Addr().String()}, ln)
	if !errors.Is(err, ErrVersionMismatch) {
		t.Errorf("DialMesh err = %v, want ErrVersionMismatch", err)
	}
}

// TestMixedVersionClusterDowngrades: a rank advertising a FUTURE version
// negotiates down to v1 with its v1 peers and the mesh still moves traffic.
func TestMixedVersionClusterDowngrades(t *testing.T) {
	meshes, err := NewTCPClusterOpts(3, func(rank int) MeshOptions {
		if rank == 0 {
			return MeshOptions{Version: ProtocolV1 + 6}
		}
		return MeshOptions{}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, m := range meshes {
			_ = m.Close()
		}
	}()
	for r, m := range meshes {
		if m.Version() != ProtocolV1 {
			t.Errorf("rank %d negotiated v%d, want v%d", r, m.Version(), ProtocolV1)
		}
		if m.Caps() != CapsAll {
			t.Errorf("rank %d caps %v, want all", r, m.Caps())
		}
	}
	done := make(chan error, 1)
	go func() { done <- meshes[0].Send(1, Message{Type: MsgChunk, Iter: 3, Payload: []float64{1, 2}}) }()
	msg, err := meshes[1].Recv(0)
	if err != nil || <-done != nil {
		t.Fatalf("traffic on downgraded mesh failed: %v", err)
	}
	if msg.Iter != 3 || len(msg.Payload) != 2 {
		t.Errorf("got %+v", msg)
	}
}

// TestHelloDowngrade: a peer's hello negotiates down to the capability bits
// both ends share, whatever else it advertises, and the connection then
// carries an f64 frame with a tail bit for bit. The first row is a build
// that still advertised the f32, f16 and i8 encodings in bits 0–2.
func TestHelloDowngrade(t *testing.T) {
	if CapSparse != 1<<3 || CapStreams != 1<<4 || CapPS != 1<<5 {
		t.Fatalf("capability bits moved: sparse %#x, streams %#x, ps %#x", uint64(CapSparse), uint64(CapStreams), uint64(CapPS))
	}
	testCases := []struct {
		name string
		peer Caps
		want Caps
	}{
		{name: "pre-change CapsAll (bits 0-5)", peer: 0x3f, want: CapsAll},
		{name: "streams and ps only", peer: CapStreams | CapPS, want: CapStreams | CapPS},
		{name: "current CapsAll", peer: CapsAll, want: CapsAll},
	}
	payload := []float64{1.25, -3.7e-3, math.Pi, 0, math.Copysign(0, -1), 6.02e23}
	const tail = -2.5e-7

	for _, tc := range testCases {
		t.Run(tc.name, func(t *testing.T) {
			meshes, err := NewTCPClusterOpts(2, func(rank int) MeshOptions {
				if rank == 1 {
					return MeshOptions{Caps: tc.peer}
				}
				return MeshOptions{}
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				for _, m := range meshes {
					_ = m.Close()
				}
			}()
			for r, m := range meshes {
				if m.Caps() != tc.want {
					t.Errorf("rank %d negotiated %v, want %v", r, m.Caps(), tc.want)
				}
			}

			done := make(chan error, 1)
			go func() {
				done <- meshes[0].Send(1, Message{Type: MsgChunk, Iter: 4, Chunk: 1, Payload: payload, Tail: tail, HasTail: true})
			}()
			msg, err := meshes[1].Recv(0)
			if err != nil || <-done != nil {
				t.Fatalf("f64 frame with a tail: %v", err)
			}
			want := append(append([]float64(nil), payload...), tail)
			if msg.Dtype != tensor.F64 || len(msg.Payload) != len(want) {
				t.Fatalf("got dtype %v, %d elems; want f64, %d", msg.Dtype, len(msg.Payload), len(want))
			}
			for i := range want {
				if math.Float64bits(msg.Payload[i]) != math.Float64bits(want[i]) {
					t.Errorf("elem %d: got %x, want %x", i, math.Float64bits(msg.Payload[i]), math.Float64bits(want[i]))
				}
			}
		})
	}
}

// TestCapabilityGateSparseAndStreams: frames the peer declared itself unable
// to decode are rejected typed at send, before any bytes hit the wire.
func TestCapabilityGateSparseAndStreams(t *testing.T) {
	meshes, err := NewTCPClusterOpts(2, func(rank int) MeshOptions {
		if rank == 1 {
			return MeshOptions{Caps: CapPS} // no sparse, no streams
		}
		return MeshOptions{}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, m := range meshes {
			_ = m.Close()
		}
	}()
	sparse := Message{Type: MsgReduce, Payload: []float64{1}, Indices: []int32{4}}
	if err := meshes[0].Send(1, sparse); !errors.Is(err, ErrCapability) {
		t.Errorf("sparse send err = %v, want ErrCapability", err)
	}
	if err := meshes[0].StreamView(2).Send(1, Message{Type: MsgChunk}); !errors.Is(err, ErrCapability) {
		t.Errorf("stream send err = %v, want ErrCapability", err)
	}
	// The negotiated mesh set reflects the weakest rank on BOTH endpoints, so
	// SPMD code branches identically everywhere.
	for r, m := range meshes {
		if m.Caps()&CapSparse != 0 || m.Caps()&CapStreams != 0 {
			t.Errorf("rank %d caps %v still advertise gated features", r, m.Caps())
		}
		if MeshCaps(m) != m.Caps() {
			t.Errorf("rank %d MeshCaps %v != Caps %v", r, MeshCaps(m), m.Caps())
		}
	}
	// Loopback is ungated: a rank can always decode its own frames.
	if err := meshes[1].StreamView(2).Send(1, Message{Type: MsgChunk, Iter: 8}); err != nil {
		t.Fatalf("loopback stream send: %v", err)
	}
	msg, err := meshes[1].StreamView(2).Recv(1)
	if err != nil || msg.Iter != 8 {
		t.Fatalf("loopback stream recv: %+v, %v", msg, err)
	}
}

// TestCapabilityGatePS: parameter-server frames toward a peer built before
// the PS family (no CapPS in its hello) are rejected typed at send — the
// old decoder would treat the unknown types as malformed frames and tear
// the connection down, so the frames must never leave.
func TestCapabilityGatePS(t *testing.T) {
	meshes, err := NewTCPClusterOpts(2, func(rank int) MeshOptions {
		if rank == 1 {
			return MeshOptions{Caps: CapsAll &^ CapPS}
		}
		return MeshOptions{}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, m := range meshes {
			_ = m.Close()
		}
	}()
	for _, typ := range []MsgType{MsgPSPush, MsgPSPull, MsgPSPushPull, MsgPSAck} {
		if err := meshes[0].Send(1, Message{Type: typ, Payload: []float64{1}}); !errors.Is(err, ErrCapability) {
			t.Errorf("type %d send err = %v, want ErrCapability", typ, err)
		}
	}
	// Non-PS traffic to the same peer still flows.
	go func() { _ = meshes[0].Send(1, Message{Type: MsgChunk, Iter: 5, Payload: []float64{2}}) }()
	msg, err := meshes[1].Recv(0)
	if err != nil || msg.Iter != 5 {
		t.Fatalf("plain frame after gating: %+v, %v", msg, err)
	}
	// A full-capability pair carries PS frames end to end.
	if err := meshes[1].Send(1, Message{Type: MsgPSAck, Iter: 9}); err != nil {
		t.Fatalf("loopback ps send: %v", err)
	}
	if msg, err := meshes[1].Recv(1); err != nil || msg.Iter != 9 {
		t.Fatalf("loopback ps recv: %+v, %v", msg, err)
	}
}
