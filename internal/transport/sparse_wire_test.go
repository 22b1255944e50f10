package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/tensor"
)

// Wire-format tests for sparse (index+value) messages. Companion to the dtype
// fuzz tests in fuzz_test.go.

func sparseSeed(n int) Message {
	m := Message{Type: MsgReduce, Iter: 42, Chunk: 7}
	m.Payload = make([]float64, n)
	m.Indices = make([]int32, n)
	for i := range m.Payload {
		m.Payload[i] = float64(i)*1.5 - 3
		m.Indices[i] = int32(i * 13)
	}
	return m
}

// TestSparseMessageRoundTrip: a sparse frame must decode to exactly the
// indices and values it was encoded from, across the dtypes the collective
// ships.
func TestSparseMessageRoundTrip(t *testing.T) {
	for _, d := range []tensor.Dtype{tensor.F64, tensor.F32} {
		msg := sparseSeed(9)
		msg.Dtype = d
		buf, err := Encode(nil, msg)
		if err != nil {
			t.Fatal(err)
		}
		if want := frameHeaderBytes + 4*len(msg.Indices) + d.WireBytes(len(msg.Payload)); len(buf) != want {
			t.Fatalf("dtype %v sparse frame is %d bytes, want %d", d, len(buf), want)
		}
		got, err := ReadMessage(bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Indices) != len(msg.Indices) || len(got.Payload) != len(msg.Payload) {
			t.Fatalf("lengths %d/%d, want %d/%d", len(got.Indices), len(got.Payload), len(msg.Indices), len(msg.Payload))
		}
		for i := range msg.Indices {
			if got.Indices[i] != msg.Indices[i] {
				t.Errorf("dtype %v index %d = %d, want %d", d, i, got.Indices[i], msg.Indices[i])
			}
		}
		want := append([]float64(nil), msg.Payload...)
		tensor.RoundTrip(d, want)
		for i := range want {
			if math.Float64bits(got.Payload[i]) != math.Float64bits(want[i]) {
				t.Errorf("dtype %v value %d = %v, want %v", d, i, got.Payload[i], want[i])
			}
		}
	}
}

// TestSparseMessageEncodeMismatch: the encoder must refuse index/value
// length disagreements rather than emit a frame no decoder accepts.
func TestSparseMessageEncodeMismatch(t *testing.T) {
	msg := sparseSeed(4)
	msg.Indices = msg.Indices[:3]
	if _, err := Encode(nil, msg); !errors.Is(err, ErrSparseMismatch) {
		t.Errorf("mismatched encode error = %v, want ErrSparseMismatch", err)
	}
}

// TestSparseMessageTruncated: frames cut in the header, mid-index-list, or
// mid-payload must error, never hang or deliver partial data.
func TestSparseMessageTruncated(t *testing.T) {
	msg := sparseSeed(16)
	buf, err := Encode(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int{
		frameHeaderBytes - 1,         // inside the header
		frameHeaderBytes,             // before any index byte
		frameHeaderBytes + 1,         // mid-index
		frameHeaderBytes + 4*16 - 2,  // last index cut short
		frameHeaderBytes + 4*16,      // indices intact, payload missing
		frameHeaderBytes + 4*16 + 11, // mid-value
		len(buf) - 1,                 // one byte short
	}
	for _, cut := range cuts {
		if _, err := ReadMessage(bytes.NewReader(buf[:cut])); err == nil {
			t.Errorf("frame truncated at %d decoded without error", cut)
		}
	}
	if _, err := ReadMessage(bytes.NewReader(buf)); err != nil {
		t.Errorf("intact frame failed: %v", err)
	}
}

// TestSparseMessageGarbageCounts: the v1 frame cannot EXPRESS an
// index/value count mismatch (sparse frames carry exactly one index per
// element), so the forgeries that remain are flag/length contradictions and
// absurd element counts — all of which must be rejected before any
// allocation-scale damage.
func TestSparseMessageGarbageCounts(t *testing.T) {
	msg := sparseSeed(8)
	buf, err := Encode(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	// Clearing the sparse flag leaves a frame whose length prefix still
	// includes the index bytes: a flag/len contradiction.
	f := append([]byte(nil), buf...)
	f[6] &^= FlagSparse
	if _, err := ReadMessage(bytes.NewReader(f)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("cleared sparse flag error = %v, want ErrBadFrame", err)
	}
	// Setting the sparse flag on a dense frame is the mirror-image forgery.
	dense, err := Encode(nil, Message{Type: MsgChunk, Payload: []float64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	dense[6] |= FlagSparse
	if _, err := ReadMessage(bytes.NewReader(dense)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("forged sparse flag error = %v, want ErrBadFrame", err)
	}
	// An absurd element count trips the global bound before the length
	// prefix is even consulted.
	f = append([]byte(nil), buf...)
	binary.LittleEndian.PutUint32(f[32:], MaxPayloadElems+1)
	if _, err := ReadMessage(bytes.NewReader(f)); !errors.Is(err, ErrPayloadTooLarge) {
		t.Errorf("oversized sparse frame error = %v, want ErrPayloadTooLarge", err)
	}
	// The encoder still refuses a caller-side mismatch (see
	// TestSparseMessageEncodeMismatch); the wire simply cannot carry one.
}

// TestSparseSendThroughLocalMesh: the in-memory mesh must deliver sparse
// messages by value — the receiver's index slice must not alias the
// sender's.
func TestSparseSendThroughLocalMesh(t *testing.T) {
	net, err := NewLocalNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	eps := net.Endpoints()
	msg := sparseSeed(5)
	sent := append([]int32(nil), msg.Indices...)
	if err := eps[0].Send(1, msg); err != nil {
		t.Fatal(err)
	}
	msg.Indices[0] = -999 // sender keeps mutating its buffers
	msg.Payload[0] = -999
	got, err := eps[1].Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sent {
		if got.Indices[i] != sent[i] {
			t.Errorf("index %d = %d, want %d (aliasing?)", i, got.Indices[i], sent[i])
		}
	}
	if got.Payload[0] == -999 {
		t.Error("payload aliases the sender's buffer")
	}
}
