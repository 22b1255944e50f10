package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"testing"

	"repro/internal/tensor"
)

// Dtype bytes of the narrower payload encodings earlier builds shipped.
const (
	legacyF32 byte = 1
	legacyF16 byte = 2
	legacyI8  byte = 3
)

// legacyFrame forges the frame an earlier build sent for m under dtype byte
// d: the reserved flag bit 1 set, and a body as long as that encoding's (4
// or 2 bytes an element for f32 and f16; for i8 one byte an element plus an
// 8-byte scale per 1024-element block).
func legacyFrame(tb testing.TB, m Message, d byte) []byte {
	tb.Helper()
	f64, err := Encode(nil, m)
	if err != nil {
		tb.Fatal(err)
	}
	n := len(m.Payload)
	index := 0
	if m.Indices != nil {
		index = 4 * n
	}
	body := make([]byte, map[byte]int{legacyF32: 4 * n, legacyF16: 2 * n, legacyI8: n + 8*((n+1023)/1024)}[d])
	copy(body, f64[frameHeaderBytes+index:])
	fr := append(append([]byte(nil), f64[:frameHeaderBytes+index]...), body...)
	binary.LittleEndian.PutUint32(fr, uint32(len(fr)-4))
	fr[6] |= 1 << 1
	fr[7] = d
	return fr
}

// wireCorpus is the seed corpus of the wire fuzzers: valid encodings of
// every frame family, frames of the narrower dtypes earlier builds shipped,
// and near-valid corruptions.
func wireCorpus(tb testing.TB) [][]byte {
	var corpus [][]byte
	add := func(b []byte) { corpus = append(corpus, b) }
	// A frame goes in whole and cut short.
	addCut := func(b []byte) {
		add(b)
		if len(b) > 4 {
			add(b[:len(b)-3])
		}
	}
	seeds := []Message{
		{Type: MsgChunk, Iter: 1, Chunk: 2, Payload: []float64{1, 2, 3}},
		{Type: MsgBroadcast},
		{Type: MsgControl, Iter: -9, Payload: []float64{0.5}},
	}
	for _, d := range []byte{legacyF32, legacyF16, legacyI8} {
		addCut(legacyFrame(tb, Message{
			Type: MsgChunk, Iter: 3, Chunk: 1,
			Payload: []float64{-1.5, 0, 3.25e-3, 7e4, math.Pi},
		}, d))
	}
	// Sparse (index+value) frames, f64 and f16.
	seeds = append(seeds,
		Message{Type: MsgReduce, Iter: 4, Payload: []float64{1.25, -7, 0.5}, Indices: []int32{3, 17, 4096}},
	)
	addCut(legacyFrame(tb, Message{Type: MsgReduce, Iter: 5, Payload: []float64{2, 3, 5}, Indices: []int32{0, 1, 2}}, legacyF16))
	// Parameter-server frame family: chunked push/pull/push-pull requests
	// (mode packed into the chunk tag's high bits, version horizon in Iter)
	// and acks (new version in Iter), f64 and f16.
	seeds = append(seeds,
		Message{Type: MsgPSPush, Stream: 1 << 16, Iter: 0, Chunk: 2<<24 | 3, Payload: []float64{0.5, -1}},
		Message{Type: MsgPSPull, Stream: 1 << 16, Chunk: 1},
		Message{Type: MsgPSPushPull, Stream: 1 << 16, Iter: 7, Chunk: 3<<24 | 0, Payload: []float64{1, 2, 3}},
		Message{Type: MsgPSAck, Stream: 1 << 16, Iter: 42, Chunk: 3<<24 | 0, Payload: []float64{4, 5, 6}},
		Message{Type: MsgPSAck, Stream: 1 << 16, Iter: 1, Chunk: 2<<24 | 3},
	)
	addCut(legacyFrame(tb, Message{Type: MsgPSPushPull, Stream: 1 << 16, Iter: 2, Chunk: 2<<24 | 5, Payload: []float64{-2.5, 8}}, legacyF16))
	// Ring-pair chunks: a body past the writer's zero-copy threshold, and a
	// scatter chunk with the contributor count as its tail.
	chunk := make([]float64, 700)
	for i := range chunk {
		chunk[i] = math.Sin(float64(i)) * 1e3
	}
	seeds = append(seeds,
		Message{Type: MsgChunk, Iter: 6, Chunk: 3, Payload: chunk},
		Message{Type: MsgChunk, Iter: 6, Chunk: 2, Payload: chunk[:9], Tail: 3, HasTail: true},
	)
	for _, m := range seeds {
		buf, err := Encode(nil, m)
		if err != nil {
			tb.Fatal(err)
		}
		addCut(buf)
	}
	add([]byte{})
	add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	// v1 adversarial corpus: truncation at every header byte boundary, plus
	// forged header fields (unknown version, unknown type, unknown flag bits,
	// flag/len contradictions, absurd element counts, inconsistent prefix).
	base, err := Encode(nil, Message{
		Type: MsgReduce, Stream: 3, Iter: 11, Chunk: 2,
		Payload: []float64{1, 2, 3, 4}, Indices: []int32{0, 5, 9, 12},
	})
	if err != nil {
		tb.Fatal(err)
	}
	for cut := 0; cut <= frameHeaderBytes; cut++ {
		add(base[:cut])
	}
	forge := func(off int, b byte) []byte {
		fr := append([]byte(nil), base...)
		fr[off] = b
		return fr
	}
	add(forge(4, 0))     // version below v1
	add(forge(4, 0x7F))  // version far future
	add(forge(5, 0))     // type zero
	add(forge(5, 0x99))  // type unknown
	add(forge(6, 0xFF))  // unknown flag bits
	add(forge(6, 0))     // sparse flag cleared, len still sparse
	add(forge(0, 0x01))  // frameLen contradicts the header fields
	add(forge(32, 0xFF)) // nelems inflated
	add(forge(35, 0x7F)) // nelems beyond MaxPayloadElems
	return corpus
}

// FuzzReadMessage feeds arbitrary bytes to the wire decoder: it must never
// panic and never allocate unboundedly, only return messages or errors.
func FuzzReadMessage(f *testing.F) {
	for _, b := range wireCorpus(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successful decode must round-trip: its re-encoding decodes to
		// the same frame and encodes to the same bytes.
		out, err := Encode(nil, msg)
		if err != nil {
			t.Fatalf("re-encode of decoded message failed: %v", err)
		}
		back, err := ReadMessage(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if back.Type != msg.Type || back.Iter != msg.Iter || back.Chunk != msg.Chunk ||
			back.Dtype != msg.Dtype || len(back.Payload) != len(msg.Payload) ||
			len(back.Indices) != len(msg.Indices) {
			t.Fatalf("round trip mismatch: %+v vs %+v", back, msg)
		}
		for i := range msg.Indices {
			if back.Indices[i] != msg.Indices[i] {
				t.Fatalf("index %d: round trip %d vs %d", i, back.Indices[i], msg.Indices[i])
			}
		}
		out2, err := Encode(nil, back)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatal("encoding not idempotent")
		}
	})
}

// FuzzRecvInto holds a landing to the pooled path it replaces. The first
// frame of any byte stream is received as the TCP mesh's reader of the
// frame's stream receives it for RecvInto — land, and decode plus deliver
// when it does not land — through read windows of many sizes, into a Landing
// built from the frame's own header with one field skewed or none (or any
// iteration accepted, as a parameter-server client takes an ack), copy or
// add, with or without a tail. That must end with the bits of decoding the
// frame into a pooled payload (ReadMessage) and then copying or adding it,
// and with the same tail; a frame the Landing does not name must leave dst
// byte-identical and come back whole; a frame that does not decode must fail
// both ways.
func FuzzRecvInto(f *testing.F) {
	for i, b := range wireCorpus(f) {
		f.Add(b, i%2 == 0, i%3 == 0, uint16(i*37), uint8(i))
	}
	// A parameter server's f64 ack on its stream, its version unknown to the
	// landing: it lands, and with another tag it does not.
	ack := make([]float64, 600)
	for i := range ack {
		ack[i] = math.Cos(float64(i)) * 1e-2
	}
	psAck, err := Encode(nil, Message{Type: MsgPSAck, Stream: 1 << 16, Iter: 9, Chunk: 3<<24 | 2, Payload: ack})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(psAck, false, false, uint16(1000), uint8(5))
	f.Add(psAck, false, false, uint16(100), uint8(6))
	f.Fuzz(func(t *testing.T, data []byte, add, tail bool, window uint16, skew uint8) {
		var hdr Message
		n := 0
		if len(data) >= frameHeaderBytes {
			hdr, n, _ = parseFrameHeader(data[:frameHeaderBytes])
		}
		if n > len(data) {
			// Truncated by more elements than the input has bytes: only the
			// decoder's bound is at stake, and FuzzReadMessage holds it
			// without a Dst of up to 128 MiB per input.
			return
		}
		l := Landing{Type: hdr.Type, Iter: hdr.Iter, Chunk: hdr.Chunk, HasTail: tail, Add: add}
		dn := n
		if tail && dn > 0 {
			dn--
		}
		switch skew % 8 {
		case 1:
			l.Type++
		case 2:
			l.Iter++
		case 3:
			l.Chunk++
		case 4:
			dn++
		case 5:
			l.AnyIter, l.Iter = true, l.Iter+1
		case 6:
			l.AnyIter, l.Chunk = true, l.Chunk+1
		}
		l.Dst = make([]float64, dn)
		for i := range l.Dst {
			l.Dst[i] = float64(i%7) - 2.5
		}
		before := append([]float64(nil), l.Dst...)

		// Reference: a pooled payload, then CopyFrom or Add.
		ref := append([]float64(nil), before...)
		var refTail float64
		msg, refErr := ReadMessage(bytes.NewReader(data))
		match := refErr == nil && l.expects(&msg, len(msg.Payload))
		if match {
			body := tensor.Vector(msg.Payload[:dn])
			if add {
				_ = tensor.Vector(ref).Add(body)
			} else {
				_ = tensor.Vector(ref).CopyFrom(body)
			}
			if tail {
				refTail = msg.Payload[dn]
			}
		}

		r := bytes.NewReader(data)
		br := bufio.NewReaderSize(r, frameHeaderBytes+int(window)%8192) // the header must fit
		got, landed, err := land(br, r, hdr.Stream, &l)
		if err == nil && !landed {
			var dec Message
			if dec, err = readFrame(br); err == nil {
				got, err = l.deliver(dec)
			}
		}
		switch {
		case refErr != nil:
			if err == nil {
				t.Fatalf("a frame ReadMessage rejects (%v) was received", refErr)
			}
		case !match:
			if !errors.Is(err, ErrUnexpectedFrame) {
				t.Fatalf("a frame the landing does not name: err = %v, want ErrUnexpectedFrame", err)
			}
			if len(got.Payload) != len(msg.Payload) {
				t.Fatalf("unexpected frame came back with %d elems, sent %d", len(got.Payload), len(msg.Payload))
			}
			for i := range before {
				if math.Float64bits(l.Dst[i]) != math.Float64bits(before[i]) {
					t.Fatalf("unexpected frame wrote dst[%d]", i)
				}
			}
		default:
			if err != nil {
				t.Fatalf("landing failed: %v", err)
			}
			for i := range ref {
				if math.Float64bits(l.Dst[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("add=%t landed=%t dst[%d] = %x, pooled path %x", add, landed, i, math.Float64bits(l.Dst[i]), math.Float64bits(ref[i]))
				}
			}
			if tail && (!got.HasTail || math.Float64bits(got.Tail) != math.Float64bits(refTail)) {
				t.Fatalf("tail = %v (set %t), pooled path %v", got.Tail, got.HasTail, refTail)
			}
		}
	})
}

// FuzzReadHello feeds arbitrary bytes to the hello parser: no input may
// panic it, a hello is accepted exactly when its magic is right, and the
// reserved bytes 8–15 are never read. The last three seeds carry capability
// masks earlier builds sent there: all six bits (0x3f), streams and PS only
// (0x30), and sparse, streams and PS (0x38).
func FuzzReadHello(f *testing.F) {
	var good [helloBytes]byte
	putHello(good[:], ProtocolV1, 3)
	f.Add(good[:])
	future := good
	future[4] = ProtocolV1 + 9
	f.Add(future[:])
	old := good
	old[4] = 0
	f.Add(old[:])
	bad := good
	bad[0] = 'X'
	f.Add(bad[:])
	f.Add([]byte{})
	f.Add(good[:helloBytes-1])
	for _, caps := range []uint64{0x3f, 0x30, 0x38} {
		withCaps := good
		binary.LittleEndian.PutUint64(withCaps[8:], caps)
		f.Add(withCaps[:])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < helloBytes {
			return
		}
		version, rank, err := parseHello(data[:helloBytes])
		if magicOK := binary.LittleEndian.Uint32(data) == helloMagic; magicOK != (err == nil) {
			t.Fatalf("magic ok %t, parse error %v", magicOK, err)
		}
		if err != nil {
			if !errors.Is(err, ErrVersionMismatch) {
				t.Fatalf("parse error not typed: %v", err)
			}
			return
		}
		// Reserved bytes do not matter, and a parsed hello re-encodes to the
		// same version and rank.
		var out [helloBytes]byte
		copy(out[:], data)
		clear(out[5:16])
		v1, r1, err1 := parseHello(out[:])
		putHello(out[:], version, int(rank))
		v2, r2, err2 := parseHello(out[:])
		if err1 != nil || err2 != nil || v1 != version || r1 != rank || v2 != version || r2 != rank {
			t.Fatalf("(v%d, rank %d) reads (v%d, rank %d, %v) with reserved bytes cleared, (v%d, rank %d, %v) re-encoded",
				version, rank, v1, r1, err1, v2, r2, err2)
		}
	})
}

// TestReadMessageUnknownDtype: a frame whose dtype byte names one of the
// narrower encodings earlier builds shipped fails with ErrUnknownDtype, from
// the header alone, through the decoder and through a TCP mesh's RecvInto;
// and the encoder refuses to produce such a frame in the first place.
func TestReadMessageUnknownDtype(t *testing.T) {
	payload := make([]float64, 1024+37)
	for i := range payload {
		payload[i] = (float64(i%255) - 127) * 1.7e-3
	}
	m := Message{Type: MsgChunk, Iter: 6, Chunk: 2, Payload: payload}
	testCases := []struct {
		name  string
		dtype byte
		cut   int // bytes of the frame sent; 0 sends it whole
	}{
		{name: "f32", dtype: legacyF32},
		{name: "f16", dtype: legacyF16},
		{name: "i8", dtype: legacyI8},
		{name: "i8 cut mid-scale", dtype: legacyI8, cut: frameHeaderBytes + 5},
	}
	for _, tc := range testCases {
		t.Run(tc.name, func(t *testing.T) {
			fr := legacyFrame(t, m, tc.dtype)
			if tc.cut > 0 {
				fr = fr[:tc.cut]
			}
			if _, err := readFrame(bufio.NewReader(bytes.NewReader(fr))); !errors.Is(err, ErrUnknownDtype) {
				t.Errorf("readFrame: %v, want ErrUnknownDtype", err)
			}
			if _, err := ReadMessage(bytes.NewReader(fr)); !errors.Is(err, ErrUnknownDtype) {
				t.Errorf("exact read: %v, want ErrUnknownDtype", err)
			}
			mesh := rawPeerMesh(t, fr)
			dst := make([]float64, len(payload))
			_, err := RecvInto(mesh, 0, Landing{Type: m.Type, Iter: m.Iter, Chunk: m.Chunk, Dst: dst})
			if !errors.Is(err, ErrUnknownDtype) {
				t.Errorf("RecvInto: %v, want ErrUnknownDtype", err)
			}
			for i, x := range dst {
				if x != 0 {
					t.Fatalf("RecvInto wrote dst[%d] = %v", i, x)
				}
			}
		})
	}
	if _, err := Encode(nil, Message{Type: MsgChunk, Dtype: tensor.Dtype(legacyF16)}); !errors.Is(err, ErrUnknownDtype) {
		t.Errorf("encode with dtype f16: %v, want ErrUnknownDtype", err)
	}
}

// rawPeerMesh returns rank 1 of a two-rank TCP mesh whose rank 0 is a raw
// connection: it says hello and then writes frame, and stays open until the
// test ends.
func rawPeerMesh(t *testing.T, frame []byte) *TCPMesh {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conns := make(chan net.Conn, 1)
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			close(conns)
			return
		}
		conns <- conn
		var hello [helloBytes]byte
		putHello(hello[:], ProtocolV1, 0)
		_, _ = conn.Write(hello[:])
		_, _ = conn.Write(frame)
	}()
	mesh, err := DialMesh(1, []string{"unused", ln.Addr().String()}, ln)
	conn := <-conns
	t.Cleanup(func() {
		if conn != nil {
			_ = conn.Close()
		}
		if mesh != nil {
			_ = mesh.Close()
		}
		_ = ln.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	return mesh
}
