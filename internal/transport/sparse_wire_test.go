package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// Tests of the sparse (index+value) frame earlier builds sent: flag bit 0
// and 4·n index bytes between the header and the payload. No build encodes
// it now; each of these checks that it is refused, whole or forged or cut
// short, and that no mesh sends a message that sets Indices. The forger is
// sparseFrame in fuzz_test.go.

func sparseSeed() (Message, []int32) {
	dense := Message{Type: MsgReduce, Iter: 42, Chunk: 7, Payload: []float64{-3, -1.5, 0, 1.5, 3}}
	return dense, []int32{0, 13, 26, 39, 52}
}

// requireRefused: frame fails with want through the decoder on either reader
// and through a TCP consumer's Recv, where it counts as a decode error.
func requireRefused(t *testing.T, frame []byte, want error) {
	t.Helper()
	if _, err := ReadMessage(bytes.NewReader(frame)); !errors.Is(err, want) {
		t.Errorf("ReadMessage: %v, want %v", err, want)
	}
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(frame))); !errors.Is(err, want) {
		t.Errorf("readFrame: %v, want %v", err, want)
	}
	if _, err := rawPeerMesh(t, frame).Recv(0); !errors.Is(err, want) || !isDecodeErr(err) {
		t.Errorf("TCP Recv: %v, want %v", err, want)
	}
}

// TestSparseMessageRoundTrip: an index list makes no round trip. Encode
// refuses it, a whole sparse frame is refused from its header alone, and
// the same values as a dense frame decode bit for bit.
func TestSparseMessageRoundTrip(t *testing.T) {
	dense, idx := sparseSeed()
	withIndices := dense
	withIndices.Indices = idx
	if _, err := Encode(nil, withIndices); !errors.Is(err, ErrBadFrame) {
		t.Errorf("Encode of a message with indices: %v, want ErrBadFrame", err)
	}
	t.Run("f64", func(t *testing.T) { requireRefused(t, sparseFrame(encode(t, dense), idx), ErrBadFrame) })
	t.Run("f16", func(t *testing.T) {
		requireRefused(t, sparseFrame(legacyFrame(t, dense, legacyF16), idx), ErrUnknownDtype)
	})

	got, err := ReadMessage(bytes.NewReader(encode(t, dense)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Indices != nil || len(got.Payload) != len(dense.Payload) {
		t.Fatalf("dense frame decoded to %d indices, %d values; want none, %d", len(got.Indices), len(got.Payload), len(dense.Payload))
	}
	for i, x := range dense.Payload {
		if math.Float64bits(got.Payload[i]) != math.Float64bits(x) {
			t.Errorf("value %d = %v, want %v", i, got.Payload[i], x)
		}
	}
}

// TestSparseMessageEncodeMismatch: Encode refuses Indices whatever their
// length, so no index/value disagreement reaches the wire.
func TestSparseMessageEncodeMismatch(t *testing.T) {
	dense, idx := sparseSeed()
	for _, ix := range [][]int32{idx, idx[:3], {}} {
		m := dense
		m.Indices = ix
		if _, err := Encode(nil, m); !errors.Is(err, ErrBadFrame) {
			t.Errorf("Encode with %d indices for %d values: %v, want ErrBadFrame", len(ix), len(m.Payload), err)
		}
	}
}

// TestSparseMessageTruncated: a sparse frame cut before its indices,
// mid-index or mid-value errors and delivers nothing.
func TestSparseMessageTruncated(t *testing.T) {
	dense, idx := sparseSeed()
	sparse := sparseFrame(encode(t, dense), idx)
	cuts := []struct {
		name string
		n    int
	}{
		{"before the indices", frameHeaderBytes},
		{"mid-index", frameHeaderBytes + 6},
		{"mid-value", len(sparse) - 3},
	}
	for _, tc := range cuts {
		t.Run(tc.name, func(t *testing.T) { requireRefused(t, sparse[:tc.n], ErrBadFrame) })
	}
}

// TestSparseMessageGarbageCounts: the forgeries a sparse flag allows, the
// flag set on a dense frame and a sparse frame with an absurd element
// count, are refused before any allocation-scale damage.
func TestSparseMessageGarbageCounts(t *testing.T) {
	dense, idx := sparseSeed()
	t.Run("sparse flag on a dense frame", func(t *testing.T) {
		flagged := encode(t, dense)
		flagged[6] |= 1 << 0
		requireRefused(t, flagged, ErrBadFrame)
	})
	t.Run("absurd count", func(t *testing.T) {
		huge := sparseFrame(encode(t, dense), idx)
		binary.LittleEndian.PutUint32(huge[32:], MaxPayloadElems+1)
		requireRefused(t, huge, ErrBadFrame) // the flag refuses it first
	})
}

// TestSparseSendThroughLocalMesh: no mesh sends a message that sets
// Indices, so none is silently dropped, and the refusal delivers nothing:
// the receiver's next message is the dense one sent after it.
func TestSparseSendThroughLocalMesh(t *testing.T) {
	local, err := NewLocalNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = local.Close() }()
	tcp, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, m := range tcp {
			_ = m.Close()
		}
	}()
	eps := local.Endpoints()
	dense, idx := sparseSeed()
	withIndices := dense
	withIndices.Indices = idx
	meshes := []struct {
		name     string
		from, to Mesh
		toRank   int
		fromRank int
	}{
		{"in-memory", eps[0], eps[1], 1, 0},
		{"TCP", tcp[0], tcp[1], 1, 0},
		{"TCP to itself", tcp[0], tcp[0], 0, 0},
	}
	for _, tc := range meshes {
		if err := tc.from.Send(tc.toRank, withIndices); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s Send of a message with indices: %v, want ErrBadFrame", tc.name, err)
		}
		if err := tc.from.Send(tc.toRank, dense); err != nil {
			t.Fatalf("%s dense Send: %v", tc.name, err)
		}
		got, err := tc.to.Recv(tc.fromRank)
		if err != nil {
			t.Fatalf("%s Recv: %v", tc.name, err)
		}
		if got.Indices != nil || got.Iter != dense.Iter || len(got.Payload) != len(dense.Payload) {
			t.Errorf("%s received %d indices, iter %d, %d values; want the dense message", tc.name, len(got.Indices), got.Iter, len(got.Payload))
		}
	}
}
