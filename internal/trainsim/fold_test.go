package trainsim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/tensor"
)

// TestFoldMatchesAccumulator holds the simulator and the runtime to one
// contribution rule: the same gradients under the same stamps, taken at the
// same synchronization, come out of partialSim.fold and core.Accumulator.TakeN
// with identical bits and the same mini-batch count. The patterns cover one
// gradient, several under one stamp (one slot), several stamps, drops and
// empty takes.
func TestFoldMatchesAccumulator(t *testing.T) {
	const dim = 37 // odd: exercises the kernels' unroll tails
	src := rand.New(rand.NewSource(40))
	var multi, dropped int
	for _, bound := range []int{1, 2, 3, 8} {
		s := &partialSim{cfg: &Config{StalenessBound: bound}}
		for round := 0; round < 200; round++ {
			k := int64(src.Intn(30))
			acc, err := core.NewAccumulator(dim, bound)
			if err != nil {
				t.Fatal(err)
			}
			entries := make([]gradEntry, src.Intn(6))
			for i := range entries {
				stamp := k - int64(src.Intn(bound+2))
				if i > 0 && src.Intn(2) == 0 {
					stamp = entries[i-1].stamp // a second gradient of one version
				}
				g := tensor.New(dim)
				for j := range g {
					g[j] = src.NormFloat64() * math.Pow(10, float64(src.Intn(7)-3))
				}
				if err := acc.Put(stamp, g); err != nil {
					t.Fatal(err)
				}
				entries[i] = gradEntry{stamp: stamp, grad: g} // fold may write it
			}
			before := s.dropped
			want, wantN, err := acc.TakeN(k)
			if err != nil {
				t.Fatal(err)
			}
			got, n := s.fold(k, entries)
			if n != wantN || (got == nil) != (want == nil) {
				t.Fatalf("bound %d k %d: fold carries %d mini-batches (nil %v), TakeN %d (nil %v)",
					bound, k, n, got == nil, wantN, want == nil)
			}
			if s.dropped-before != acc.Dropped() {
				t.Fatalf("bound %d k %d: fold dropped %d, TakeN %d", bound, k, s.dropped-before, acc.Dropped())
			}
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("bound %d k %d elem %d: fold %v, TakeN %v", bound, k, j, got[j], want[j])
				}
			}
			if n > 1 {
				multi++
			}
			if acc.Dropped() > 0 {
				dropped++
			}
		}
	}
	if multi < 200 || dropped < 100 {
		t.Errorf("%d takes of several mini-batches, %d with drops: the patterns no longer cover both", multi, dropped)
	}
}
