package collective

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
	"repro/internal/transport"
)

// referenceAllReduce replays the serial ring's exact accumulation order in
// plain scalar code: chunk c starts from rank c's data and folds the
// remaining ranks' contributions in ring order (c+1, c+2, …). Pairwise FP
// addition is commutative bitwise, so this is the unique bit pattern every
// correct ring schedule must produce; averaging multiplies the completed sum
// by 1/n exactly as the collective does.
func referenceAllReduce(inputs []tensor.Vector, op ReduceOp) tensor.Vector {
	n := len(inputs)
	dim := len(inputs[0])
	out := tensor.New(dim)
	for c := 0; c < n; c++ {
		cs, ce, _ := tensor.ChunkBounds(dim, n, c)
		for i := cs; i < ce; i++ {
			acc := inputs[c][i]
			for j := 1; j < n; j++ {
				acc += inputs[(c+j)%n][i]
			}
			out[i] = acc
		}
	}
	if op == OpAverage {
		inv := 1 / float64(n)
		for i := range out {
			out[i] *= inv
		}
	}
	return out
}

// TestRingMatchesReference is the property test for the ring: for random
// vectors, every rank count and both reduce ops, the result must be
// BIT-identical to the reference accumulation on every rank.
func TestRingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dims := []int{0, 1, 2, 7, 64, 97, 1000, 4099}
	for _, n := range []int{2, 3, 4, 5, 8} {
		for _, dim := range dims {
			for _, op := range []ReduceOp{OpSum, OpAverage} {
				inputs := make([]tensor.Vector, n)
				for r := range inputs {
					inputs[r] = tensor.New(dim)
					for j := range inputs[r] {
						// Wide magnitude spread so any reordering of the
						// accumulation would change low-order bits.
						inputs[r][j] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(9)-4))
					}
				}
				want := referenceAllReduce(inputs, op)
				got := cloneVecs(inputs)
				runSPMD(t, n, func(m transport.Mesh) error {
					return RingAllReduce(m, 3, got[m.Rank()], op)
				})
				for r := 0; r < n; r++ {
					if j, ok := sameBits(got[r], want); !ok {
						t.Fatalf("n=%d dim=%d op=%v rank=%d elem %d: got %x (%v), want %x (%v)",
							n, dim, op, r, j,
							math.Float64bits(got[r][j]), got[r][j],
							math.Float64bits(want[j]), want[j])
					}
				}
			}
		}
	}
}

// TestRingSegmentedRepeated runs 20 back-to-back RingAllReduce calls on one
// mesh, each under its own iter, and checks every call lands the reference
// bits: no frame of one call is taken by the next, and nothing one call
// leaves in v or in the payload pools leaks into another.
func TestRingSegmentedRepeated(t *testing.T) {
	const n, dim, iters = 4, 513, 20
	inputs := make([]tensor.Vector, n)
	for r := range inputs {
		inputs[r] = tensor.New(dim)
		for j := range inputs[r] {
			inputs[r][j] = float64(r+1) + float64(j)/7
		}
	}
	want := referenceAllReduce(inputs, OpAverage)
	net, err := transport.NewLocalNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	for it := 0; it < iters; it++ {
		got := cloneVecs(inputs)
		spmd(t, net.Endpoints(), func(m transport.Mesh) error {
			return RingAllReduce(m, int64(it), got[m.Rank()], OpAverage)
		})
		for r := range got {
			if j, ok := sameBits(got[r], want); !ok {
				t.Fatalf("iter %d rank %d elem %d: got %v, want %v", it, r, j, got[r][j], want[j])
			}
		}
	}
}
