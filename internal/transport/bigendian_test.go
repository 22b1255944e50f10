package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"unsafe"
)

// bitsPayload is a payload of n elements whose bits a byte-order slip
// changes: distinct mantissas, a negative zero, a NaN with a payload and an
// infinity.
func bitsPayload(n int) []float64 {
	p := landPayload(n)
	for i, v := range []float64{math.Copysign(0, -1), math.Float64frombits(0x7ff8_0000_dead_beef), math.Inf(-1)} {
		if i < n {
			p[n-1-i] = v
		}
	}
	return p
}

// leBytes is p's little-endian wire encoding.
func leBytes(p []float64) []byte {
	b := make([]byte, 8*len(p))
	for i, v := range p {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// sameBits fails the test unless got and want hold the same bits.
func sameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %#x, want %#x", name, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestBigEndianFallback runs the send and receive paths a big-endian host
// takes, on this host: with hostLittleEndian forced false the frame writer
// stages a body of zeroCopyMin bytes or more into pooled scratch instead of
// queueing a view of it, the codecs convert element by element, and land
// refuses, so every RecvInto takes the pooled path. Frames of 0 elements,
// below zeroCopyMin and above it, with and without a tail, keep their bits
// over the in-memory and TCP meshes through Recv and RecvInto. It flips a
// package variable, so it must not run in parallel with other tests.
func TestBigEndianFallback(t *testing.T) {
	saved := hostLittleEndian
	hostLittleEndian = false
	t.Cleanup(func() { hostLittleEndian = saved })

	// The largest frame whose parts all go to the arena: a 36-byte header, a
	// 2 040-byte body (the largest below zeroCopyMin) and an 8-byte tail.
	fw := newFrameWriter(nil, nil)
	small := Message{Type: landCase.Type, Iter: landCase.Iter, Chunk: landCase.Chunk, Payload: bitsPayload(zeroCopyMin/8 - 1), Tail: -1, HasTail: true}
	if err := fw.enqueue(&small); err != nil {
		t.Fatal(err)
	}
	if len(fw.arena) != frameHeaderBytes+8*len(small.Payload)+8 || cap(fw.arena) != arenaCap || len(fw.iov) != 1 || len(fw.scratch) != 0 {
		t.Fatalf("largest arena-bound frame: arena %d of %d bytes, %d iovecs, %d staged, want %d of %d, 1, 0",
			len(fw.arena), cap(fw.arena), len(fw.iov), len(fw.scratch), frameHeaderBytes+8*len(small.Payload)+8, arenaCap)
	}
	fw.reset()
	// A body of zeroCopyMin bytes is staged, not viewed.
	big := small
	big.Payload = bitsPayload(zeroCopyMin / 8)
	if err := fw.enqueue(&big); err != nil {
		t.Fatal(err)
	}
	if len(fw.iov) != 3 || len(fw.scratch) != 1 || unsafe.Pointer(&fw.iov[1][0]) == unsafe.Pointer(&big.Payload[0]) {
		t.Fatalf("body of zeroCopyMin bytes: %d iovecs, %d staged, want 3 and 1, not a view of the payload", len(fw.iov), len(fw.scratch))
	}
	if !bytes.Equal(fw.iov[1], leBytes(big.Payload)) {
		t.Fatal("staged body is not the payload's little-endian encoding")
	}
	fw.reset()

	stop := CountLandings()
	for kind, pair := range landPairs(t) {
		for _, n := range []int{0, zeroCopyMin/8 - 1, zeroCopyMin / 8, 1 << 13} {
			for _, tail := range []bool{false, true} {
				name := fmt.Sprintf("%s/n=%d/tail=%t", kind, n, tail)
				msg := Message{Type: landCase.Type, Iter: landCase.Iter, Chunk: landCase.Chunk, Payload: bitsPayload(n)}
				if tail {
					msg.Tail, msg.HasTail = math.Float64frombits(0xfff0_0000_0000_0001), true
				}
				want := msg.Payload
				if tail {
					want = append(append([]float64(nil), want...), msg.Tail)
				}
				if err := pair[1].Send(0, msg); err != nil {
					t.Fatal(err)
				}
				got, err := pair[0].Recv(1)
				if err != nil {
					t.Fatalf("%s: Recv: %v", name, err)
				}
				sameBits(t, name+"/Recv", got.Payload, want)
				PutPayload(got.Payload)

				if err := pair[1].Send(0, msg); err != nil {
					t.Fatal(err)
				}
				l := landCase
				l.Dst, l.HasTail = filled(n, 7), tail
				got, err = RecvInto(pair[0], 1, l)
				if err != nil {
					t.Fatalf("%s: RecvInto: %v", name, err)
				}
				sameBits(t, name+"/RecvInto", l.Dst, msg.Payload)
				if tail && math.Float64bits(got.Tail) != math.Float64bits(msg.Tail) {
					t.Fatalf("%s: RecvInto tail %#x, want %#x", name, math.Float64bits(got.Tail), math.Float64bits(msg.Tail))
				}
			}
		}
	}
	if landed, _ := stop(); landed != 0 {
		t.Errorf("%d frames landed off the socket on a big-endian host, want 0", landed)
	}
}
