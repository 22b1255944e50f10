package transport

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/tensor"
)

// wireCorpus is the seed corpus of the wire fuzzers: valid encodings across
// every dtype and frame family, and near-valid corruptions.
func wireCorpus(tb testing.TB) [][]byte {
	var corpus [][]byte
	add := func(b []byte) { corpus = append(corpus, b) }
	seeds := []Message{
		{Type: MsgChunk, Iter: 1, Chunk: 2, Payload: []float64{1, 2, 3}},
		{Type: MsgBroadcast},
		{Type: MsgControl, Iter: -9, Payload: []float64{0.5}},
	}
	for _, d := range []tensor.Dtype{tensor.F32, tensor.F16, tensor.I8} {
		seeds = append(seeds, Message{
			Type: MsgChunk, Iter: 3, Chunk: 1, Dtype: d,
			Payload: []float64{-1.5, 0, 3.25e-3, 7e4, math.Pi},
		})
	}
	// Sparse (index+value) frames, dense-equal dtypes and lossy ones.
	seeds = append(seeds,
		Message{Type: MsgReduce, Iter: 4, Payload: []float64{1.25, -7, 0.5}, Indices: []int32{3, 17, 4096}},
		Message{Type: MsgReduce, Iter: 5, Dtype: tensor.F16, Payload: []float64{2, 3, 5}, Indices: []int32{0, 1, 2}},
	)
	// Parameter-server frame family: chunked push/pull/push-pull requests
	// (mode packed into the chunk tag's high bits, version horizon in Iter)
	// and acks (new version in Iter), dense and compressed.
	seeds = append(seeds,
		Message{Type: MsgPSPush, Stream: 1 << 16, Iter: 0, Chunk: 2<<24 | 3, Payload: []float64{0.5, -1}},
		Message{Type: MsgPSPull, Stream: 1 << 16, Chunk: 1},
		Message{Type: MsgPSPushPull, Stream: 1 << 16, Iter: 7, Chunk: 3<<24 | 0, Payload: []float64{1, 2, 3}},
		Message{Type: MsgPSPushPull, Stream: 1 << 16, Iter: 2, Chunk: 2<<24 | 5, Dtype: tensor.F16, Payload: []float64{-2.5, 8}},
		Message{Type: MsgPSAck, Stream: 1 << 16, Iter: 42, Chunk: 3<<24 | 0, Payload: []float64{4, 5, 6}},
		Message{Type: MsgPSAck, Stream: 1 << 16, Iter: 1, Chunk: 2<<24 | 3},
	)
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
		add(buf)
		if len(buf) > 4 {
			add(buf[:len(buf)-3])
		}
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
		// A successful decode must round-trip. For a lossy dtype the
		// fuzzer may have forged a scale our encoder would never emit, so
		// ONE re-encode may move the values — but the re-encoded message
		// decodes onto our own quantization grid, which must then be a
		// fixed point (idempotence).
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
			t.Fatalf("dtype %v encoding not idempotent", msg.Dtype)
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

// FuzzReadHello feeds arbitrary bytes to the hello parser and, end to end,
// to the negotiating side of a live connection: no input may panic the
// parser, and anything that is not a valid current-version hello must reject
// the connection with ErrVersionMismatch.
func FuzzReadHello(f *testing.F) {
	var good [helloBytes]byte
	putHello(good[:], ProtocolV1, CapsAll, 3)
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

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < helloBytes {
			return
		}
		version, caps, rank, err := parseHello(data[:helloBytes])
		if err != nil {
			if !errors.Is(err, ErrVersionMismatch) {
				t.Fatalf("parse error not typed: %v", err)
			}
			return
		}
		// A parsed hello must re-encode to the same negotiation inputs.
		var out [helloBytes]byte
		putHello(out[:], version, caps, int(rank))
		v2, c2, r2, err := parseHello(out[:])
		if err != nil || v2 != version || c2 != caps || r2 != rank {
			t.Fatalf("hello round trip: (%d,%v,%d,%v) vs (%d,%v,%d)", v2, c2, r2, err, version, caps, rank)
		}
	})
}

// TestReadMessageUnknownDtype: a frame advertising a dtype the decoder does
// not know must fail with ErrUnknownDtype before any payload read, and the
// encoder must refuse to produce such a frame in the first place.
func TestReadMessageUnknownDtype(t *testing.T) {
	buf, err := Encode(nil, Message{Type: MsgChunk, Payload: []float64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	buf[7] = 0x7E // dtype byte (v1 offset 7)
	if _, err := ReadMessage(bytes.NewReader(buf)); !errors.Is(err, ErrUnknownDtype) {
		t.Errorf("forged dtype error = %v, want ErrUnknownDtype", err)
	}
	if _, err := Encode(nil, Message{Type: MsgChunk, Dtype: tensor.Dtype(9)}); !errors.Is(err, ErrUnknownDtype) {
		t.Errorf("encode with bad dtype error = %v, want ErrUnknownDtype", err)
	}
}

// TestReadMessageTruncatedQuantized: quantized frames cut anywhere in the
// payload (including mid-scale for I8) must error, not hang or panic; the
// intact frame must decode to exactly the values the sender-side RoundTrip
// predicts.
func TestReadMessageTruncatedQuantized(t *testing.T) {
	payload := make([]float64, tensor.I8BlockElems+37)
	for i := range payload {
		payload[i] = (float64(i%255) - 127) * 1.7e-3
	}
	for _, d := range []tensor.Dtype{tensor.F32, tensor.F16, tensor.I8} {
		buf, err := Encode(nil, Message{Type: MsgChunk, Dtype: d, Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		if want := frameHeaderBytes + d.WireBytes(len(payload)); len(buf) != want {
			t.Fatalf("dtype %v frame is %d bytes, want %d", d, len(buf), want)
		}
		for _, cut := range []int{frameHeaderBytes, frameHeaderBytes + 1, frameHeaderBytes + 9, len(buf) - 1} {
			if _, err := ReadMessage(bytes.NewReader(buf[:cut])); err == nil {
				t.Errorf("dtype %v truncated at %d decoded without error", d, cut)
			}
		}
		msg, err := ReadMessage(bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		want := append([]float64(nil), payload...)
		tensor.RoundTrip(d, want)
		for i := range want {
			if math.Float64bits(msg.Payload[i]) != math.Float64bits(want[i]) {
				t.Fatalf("dtype %v elem %d: wire %v, RoundTrip %v", d, i, msg.Payload[i], want[i])
			}
		}
	}
}
