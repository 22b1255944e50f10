package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/controller"
	"repro/internal/race"
	"repro/internal/tensor"
)

func TestAccumulatorEmptyTake(t *testing.T) {
	a, err := NewAccumulator(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, ok, err := a.Take(5)
	if err != nil {
		t.Fatal(err)
	}
	if ok || g != nil {
		t.Errorf("empty Take = (%v,%v)", g, ok)
	}
}

func TestAccumulatorSingleGradientIdentity(t *testing.T) {
	a, err := NewAccumulator(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := tensor.FromSlice([]float64{3, -1})
	if err := a.Put(7, g); err != nil {
		t.Fatal(err)
	}
	g[0] = 99 // Put must copy
	out, ok, err := a.Take(7)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Take reported empty")
	}
	if !out.Equal(tensor.FromSlice([]float64{3, -1}), 1e-12) {
		t.Errorf("Take = %v", out)
	}
	if a.Len() != 0 {
		t.Error("buffer not cleared after Take")
	}
}

func TestAccumulatorWeightedAveragePaperFormula(t *testing.T) {
	// Two gradients at iterations t and t+1, taken at k=t+1. τ = 1, so
	// weights are [t−(k−τ)+1] = [1] for the old and [2] for the new, and
	// the contribution carries both mini-batches:
	// g' = 2·(1·g_t + 2·g_{t+1})/3.
	a, err := NewAccumulator(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put(4, tensor.FromSlice([]float64{3})); err != nil {
		t.Fatal(err)
	}
	if err := a.Put(5, tensor.FromSlice([]float64{9})); err != nil {
		t.Fatal(err)
	}
	out, n, err := a.TakeN(5)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("TakeN carries %d mini-batches, want 2", n)
	}
	want := 2 * (1.0*3 + 2.0*9) / 3
	if out[0] != want {
		t.Errorf("weighted reduce = %v, want %v", out[0], want)
	}
}

func TestAccumulatorThreeWayWeights(t *testing.T) {
	// Gradients at iterations 2,3,4 taken at k=4: weights 1,2,3, summing to
	// the three mini-batches.
	a, err := NewAccumulator(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []float64{10, 20, 30} {
		if err := a.Put(int64(2+i), tensor.FromSlice([]float64{v})); err != nil {
			t.Fatal(err)
		}
	}
	out, n, err := a.TakeN(4)
	if err != nil || n != 3 {
		t.Fatalf("TakeN = (%v,%v), want 3 mini-batches", n, err)
	}
	want := 3 * (1.0*10 + 2.0*20 + 3.0*30) / 6
	if out[0] != want {
		t.Errorf("= %v, want %v", out[0], want)
	}
}

func TestAccumulatorBoundDropsStale(t *testing.T) {
	a, err := NewAccumulator(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put(0, tensor.FromSlice([]float64{100})); err != nil { // stale at k=2 (gap 2 ≥ bound 2)
		t.Fatal(err)
	}
	if err := a.Put(2, tensor.FromSlice([]float64{5})); err != nil {
		t.Fatal(err)
	}
	out, ok, err := a.Take(2)
	if err != nil || !ok {
		t.Fatalf("Take = (%v,%v)", ok, err)
	}
	if out[0] != 5 {
		t.Errorf("stale gradient leaked into reduce: %v", out[0])
	}
	if a.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", a.Dropped())
	}
}

// TestAccumulatorTagAndStaleness: Commit tags a gradient with the first
// synchronization that can still take it, whatever step or version it came
// from, and Take files what it hands on under τ = current − stamp.
func TestAccumulatorTagAndStaleness(t *testing.T) {
	a, err := NewAccumulator(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	commit := func(step, stamp, wantTag int64) {
		t.Helper()
		if tag, err := a.Commit(step, stamp, a.Lease()); err != nil || tag != wantTag {
			t.Fatalf("Commit(step %d, stamp %d) = tag %d, %v; want tag %d", step, stamp, tag, err, wantTag)
		}
	}
	commit(0, 0, 0)
	commit(1, 0, 0) // a second step on the same version: the same synchronization takes both
	if _, ok, _ := a.Take(0); !ok {
		t.Fatal("Take(0) found nothing")
	}
	if _, ok, _ := a.Take(1); ok { // an empty join still moves the tag on
		t.Fatal("Take(1) found something")
	}
	commit(2, 1, 2) // read version 0, finished after synchronization 1 was joined
	commit(3, 0, 2) // read the initial parameters: τ = 2 − 0 < 3 survives, at 3 it would not
	if _, ok, _ := a.Take(2); !ok {
		t.Fatal("Take(2) found nothing")
	}
	commit(4, 1, 3)
	if _, ok, _ := a.Take(4); ok { // τ = 4 − 1 = 3 = η
		t.Fatal("Take(4) kept a gradient three versions old")
	}
	if got, want := a.Staleness(), []int{2, 1, 1}; !slices.Equal(got, want) || a.Dropped() != 1 {
		t.Errorf("Staleness = %v, Dropped = %d; want %v and 1", got, a.Dropped(), want)
	}
}

func TestAccumulatorAllStale(t *testing.T) {
	a, err := NewAccumulator(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put(0, tensor.FromSlice([]float64{1})); err != nil {
		t.Fatal(err)
	}
	_, ok, err := a.Take(10)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("all-stale buffer should report no contribution")
	}
	if a.Dropped() != 1 {
		t.Errorf("Dropped = %d", a.Dropped())
	}
}

func TestAccumulatorUnboundedKeepsAll(t *testing.T) {
	a, err := NewAccumulator(1, 0) // unbounded
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put(0, tensor.FromSlice([]float64{1})); err != nil {
		t.Fatal(err)
	}
	out, ok, err := a.Take(1000)
	if err != nil || !ok {
		t.Fatalf("Take = (%v,%v)", ok, err)
	}
	if out[0] != 1 {
		t.Errorf("= %v", out[0])
	}
}

func TestAccumulatorCurrentIterationNotDropped(t *testing.T) {
	// A gradient from the current iteration (gap 0) must survive even
	// with bound 1.
	a, err := NewAccumulator(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put(3, tensor.FromSlice([]float64{7})); err != nil {
		t.Fatal(err)
	}
	out, ok, err := a.Take(3)
	if err != nil || !ok {
		t.Fatalf("Take = (%v,%v)", ok, err)
	}
	if out[0] != 7 {
		t.Errorf("= %v", out[0])
	}
}

// TestAccumulatorWeighs holds controller.Weigh to the rule of Section 3.3 on
// a small table of slots (stamp, pre-summed count) at synchronization k under
// bound η — the paper's relative weights, normalised to the gradients kept —
// and TakeN to applying its weights bit for bit: Σ W·sum over the survivors
// in commit order.
func TestAccumulatorWeighs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		k, eta  int64
		stamps  []int64
		counts  []int
		weights []float64
	}{
		{"two of k, one of k−1", 9, 8, []int64{8, 9}, []int{1, 2}, []float64{1 * 3.0 / 5, 2 * 3.0 / 5}},
		{"drop at τ = η", 5, 2, []int64{3, 4, 5}, []int{1, 1, 1}, []float64{0, 1 * 2.0 / 3, 2 * 2.0 / 3}},
		{"no drop at τ = 0 when η = 1", 3, 1, []int64{2, 3}, []int{1, 1}, []float64{0, 1}},
		{"one surviving gradient", 7, 4, []int64{7}, []int{1}, []float64{1}},
		{"pre-summed slots", 4, 8, []int64{2, 3, 4}, []int{2, 1, 3}, []float64{1 * 6.0 / 13, 2 * 6.0 / 13, 3 * 6.0 / 13}},
		{"one stamp, three gradients", 4, 8, []int64{3}, []int{3}, []float64{1}},
		{"everything stale", 10, 1, []int64{0, 9}, []int{2, 1}, []float64{0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			slots := make([]controller.Slot, len(tc.stamps))
			for i, st := range tc.stamps {
				slots[i] = controller.Slot{Stamp: st, N: tc.counts[i]}
			}
			kept := controller.Weigh(tc.k, tc.eta, slots)
			var wantKept, wantDropped int
			var sum float64
			oldest := -1
			for i, sl := range slots {
				if sl.W != tc.weights[i] {
					t.Errorf("slot %d: W = %v, want %v", i, sl.W, tc.weights[i])
				}
				if tc.weights[i] == 0 {
					wantDropped += tc.counts[i]
					continue
				}
				wantKept += tc.counts[i]
				sum += float64(sl.N) * sl.W
				// The paper's relative weights: the oldest survivor weighs
				// 1, each later version one more.
				if oldest < 0 {
					oldest = i
				}
				rel := float64(sl.Stamp - slots[oldest].Stamp + 1)
				if got := sl.W / slots[oldest].W; math.Abs(got-rel) > 1e-12 {
					t.Errorf("slot %d: W/W_oldest = %v, want %v", i, got, rel)
				}
			}
			if kept != wantKept {
				t.Errorf("Weigh kept %d gradients, want %d", kept, wantKept)
			}
			if math.Abs(sum-float64(wantKept)) > 1e-12 {
				t.Errorf("Σ N·W = %v, want the %d mini-batches kept", sum, wantKept)
			}

			const dim = 5
			src := rand.New(rand.NewSource(tc.k))
			a, err := NewAccumulator(dim, int(tc.eta))
			if err != nil {
				t.Fatal(err)
			}
			want := tensor.New(dim)
			var first tensor.Vector // the first committed buffer
			for i, st := range tc.stamps {
				sum := tensor.New(dim)
				for range tc.counts[i] {
					g := a.Lease()
					for j := range g {
						g[j] = src.NormFloat64()
					}
					_ = sum.Add(g)
					if first == nil {
						first = g
					}
					if _, err := a.Commit(0, st, g); err != nil {
						t.Fatal(err)
					}
				}
				_ = want.AddScaled(tc.weights[i], sum)
			}
			got, n, err := a.TakeN(tc.k)
			if err != nil || n != wantKept {
				t.Fatalf("TakeN = (%v, %v), want %d mini-batches", n, err, wantKept)
			}
			if a.Dropped() != int64(wantDropped) {
				t.Errorf("Dropped = %d, want %d", a.Dropped(), wantDropped)
			}
			if n == 0 {
				return
			}
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("elem %d: Take %v, Σ W·sum %v", j, got[j], want[j])
				}
			}
			if len(tc.stamps) == 1 && tc.counts[0] == 1 && &got[0] != &first[0] {
				t.Error("a single surviving gradient was not handed over in its own buffer")
			}
		})
	}
}

func TestAccumulatorErrors(t *testing.T) {
	if _, err := NewAccumulator(0, 1); err == nil {
		t.Error("dim 0 should error")
	}
	a, err := NewAccumulator(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put(0, tensor.New(3)); err == nil {
		t.Error("shape mismatch should error")
	}
}

// Property: the weighted reduce over its mini-batch count — the mean it
// stands for — lies in the convex hull of the inputs (coordinate-wise between
// min and max). The inputs are small integers over 100, so every generated
// case is a real one.
func TestQuickAccumulatorConvexHull(t *testing.T) {
	checked := 0
	f := func(raw []int16, kRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, min(len(raw), 10))
		for i := range vals {
			vals[i] = float64(raw[i]) / 100
		}
		a, err := NewAccumulator(1, 0)
		if err != nil {
			return false
		}
		min, max := vals[0], vals[0]
		for i, v := range vals {
			if err := a.Put(int64(i), tensor.FromSlice([]float64{v})); err != nil {
				return false
			}
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		out, n, err := a.TakeN(int64(len(vals) - 1))
		if err != nil || n != len(vals) {
			return false
		}
		checked++
		mean := out[0] / float64(n)
		const eps = 1e-9
		return mean >= min-eps*(1+absf(min)) && mean <= max+eps*(1+absf(max))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if checked < 250 {
		t.Errorf("only %d of 300 generated cases were checked", checked)
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// referenceTake is the copying reduction, the oracle the in-place fold must
// match bit for bit: sum gradients committed in a row under one stamp into a
// slot (in commit order; equal stamps that are not adjacent stay apart, as in
// Commit), filter the slots by the staleness bound, weight by
// t − (current − τ) + 1, and fold Σ (w_j·kept/W)·sum_j in slot order into a
// fresh vector, with W = Σ m_j·w_j over the m_j gradients of each slot and
// kept = Σ m_j the gradients that survive. dropped counts gradients; merged
// reports a surviving slot of more than one. It is kept times the weighted
// mean of the survivors.
func referenceTake(grads []tensor.Vector, iters []int64, current, bound int64) (out tensor.Vector, kept int, merged bool, dropped int, err error) {
	var sums []tensor.Vector
	var stamps []int64
	var counts []float64
	for i, it := range iters {
		if n := len(stamps); n > 0 && stamps[n-1] == it {
			if err := sums[n-1].Add(grads[i]); err != nil {
				return nil, 0, false, 0, err
			}
			counts[n-1]++
			continue
		}
		sums, stamps, counts = append(sums, grads[i].Clone()), append(stamps, it), append(counts, 1)
	}
	keep := 0
	for i, it := range stamps {
		if current-it >= bound && current-it > 0 {
			dropped += int(counts[i])
			continue
		}
		sums[keep], stamps[keep], counts[keep] = sums[i], it, counts[i]
		keep++
	}
	sums, stamps, counts = sums[:keep], stamps[:keep], counts[:keep]
	if keep == 0 {
		return nil, 0, false, dropped, nil
	}
	kept = len(grads) - dropped
	var tau int64
	for _, it := range stamps {
		if g := current - it; g > tau {
			tau = g
		}
	}
	weights := make([]float64, keep)
	var total float64
	for i, it := range stamps {
		weights[i] = float64(it - (current - tau) + 1)
		total += counts[i] * weights[i]
	}
	out = tensor.New(len(sums[0]))
	for i, sum := range sums {
		if err := out.AddScaled(weights[i]*float64(kept)/total, sum); err != nil {
			return nil, 0, false, 0, err
		}
	}
	return out, kept, kept != keep, dropped, nil
}

// TestAccumulatorTakeMatchesWeightedMeanBits drives seeded (iters, current,
// bound) patterns — in order, out of order, repeated stamps adjacent (one
// slot) and apart (separate slots), with and without drops, up to everything
// dropped — through Lease/Commit/TakeN/Recycle on one long-lived accumulator
// per bound, and requires TakeN to equal the copying reference bitwise — the
// survivors' weighted mean times their count, and that count — on a leased
// buffer that still carries the flag slot, over patterns with and without a
// shared slot.
func TestAccumulatorTakeMatchesWeightedMeanBits(t *testing.T) {
	const dim = 37 // odd: exercises the kernels' unroll tails
	src := rand.New(rand.NewSource(12))
	var mergedRounds, plainRounds int
	for _, bound := range []int{0, 1, 2, 3, 8} {
		a, err := NewAccumulator(dim, bound)
		if err != nil {
			t.Fatal(err)
		}
		refBound := int64(bound)
		if bound < 1 {
			refBound = 1<<62 - 1
		}
		var wantDropped int64
		for round := 0; round < 200; round++ {
			current := int64(src.Intn(40))
			count := src.Intn(7) // 0 = empty Take
			grads := make([]tensor.Vector, count)
			iters := make([]int64, count)
			for i := range grads {
				// Mostly at or behind current, sometimes ahead of it, in
				// commit order or shuffled.
				iters[i] = current - int64(src.Intn(12)) + int64(src.Intn(3))
				grads[i] = tensor.New(dim)
				for j := range grads[i] {
					grads[i][j] = src.NormFloat64() * math.Pow(10, float64(src.Intn(9)-4))
				}
				g := a.Lease()
				if len(g) != dim || cap(g) < dim+1 {
					t.Fatalf("Lease: len %d cap %d, want %d and ≥ %d", len(g), cap(g), dim, dim+1)
				}
				copy(g, grads[i])
				if _, err := a.Commit(int64(i), iters[i], g); err != nil {
					t.Fatal(err)
				}
			}
			if a.Len() != count {
				t.Fatalf("bound %d round %d: Len = %d after %d commits", bound, round, a.Len(), count)
			}
			want, kept, merged, dropped, err := referenceTake(grads, iters, current, refBound)
			if err != nil {
				t.Fatal(err)
			}
			wantDropped += int64(dropped)
			got, n, err := a.TakeN(current)
			if err != nil {
				t.Fatal(err)
			}
			if n != kept {
				t.Fatalf("bound %d round %d: TakeN carries %d mini-batches, reference %d", bound, round, n, kept)
			}
			if a.Len() != 0 {
				t.Fatalf("bound %d round %d: %d gradients left after Take", bound, round, a.Len())
			}
			if n == 0 {
				continue
			}
			if len(got) != dim || cap(got) < dim+1 {
				t.Fatalf("Take: len %d cap %d, want %d and ≥ %d", len(got), cap(got), dim, dim+1)
			}
			if merged {
				mergedRounds++
			} else {
				plainRounds++
			}
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("bound %d round %d iters %v current %d elem %d: got %v, want %v",
						bound, round, iters, current, j, got[j], want[j])
				}
			}
			a.Recycle(got)
		}
		if a.Dropped() != wantDropped {
			t.Errorf("bound %d: Dropped = %d, want %d", bound, a.Dropped(), wantDropped)
		}
	}
	if mergedRounds < 50 || plainRounds < 50 {
		t.Errorf("%d rounds with a shared slot, %d without: the patterns no longer cover both", mergedRounds, plainRounds)
	}
}

// TestAccumulatorBufferOwnership: only leased-shape buffers enter the free
// list, which never grows past maxFree whatever the bound is, and a committed
// buffer of the wrong shape is refused.
func TestAccumulatorBufferOwnership(t *testing.T) {
	const dim, bound = 4, 3
	a, err := NewAccumulator(dim, bound)
	if err != nil {
		t.Fatal(err)
	}
	freeLen := func() int {
		a.mu.Lock()
		defer a.mu.Unlock()
		return len(a.free)
	}
	a.Recycle(nil)
	a.Recycle(tensor.New(dim))     // foreign: no flag slot
	a.Recycle(tensor.New(dim - 1)) // short
	a.Recycle(a.Lease()[:dim-1])   // leased but truncated
	if n := freeLen(); n != 0 {
		t.Fatalf("free list holds %d foreign buffers", n)
	}
	if _, err := a.Commit(0, 0, tensor.New(dim)); !errors.Is(err, tensor.ErrShapeMismatch) {
		t.Errorf("Commit of an unleased vector: %v", err)
	}
	if _, err := a.Commit(0, 0, a.Lease()[:dim-1]); !errors.Is(err, tensor.ErrShapeMismatch) {
		t.Errorf("Commit of a short vector: %v", err)
	}

	// A burst of distinct stamps far beyond the staleness window is committed
	// and dropped wholesale; the free list keeps maxFree of its buffers.
	before := a.Buffers()
	for k := int64(0); k < 40; k++ {
		if _, err := a.Commit(k, k, a.Lease()); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, _ := a.Take(1000); ok {
		t.Fatal("stale burst survived")
	}
	if n := freeLen(); n != maxFree {
		t.Errorf("free list holds %d buffers after a burst, want %d", n, maxFree)
	}
	if n := a.Buffers() - before; n != 40 || a.Dropped() != 40 {
		t.Errorf("%d buffers allocated, %d gradients dropped by 40 leases on an empty free list; want 40 and 40", n, a.Dropped())
	}
	for i := 0; i < 10; i++ {
		a.Recycle(make(tensor.Vector, dim, dim+1))
	}
	if n := freeLen(); n != maxFree {
		t.Errorf("free list holds %d buffers after extra recycles, want %d", n, maxFree)
	}
	// A recycled buffer is what the next Lease hands out.
	g := a.Lease()
	g[0] = 42
	a.Recycle(g)
	if h := a.Lease(); &h[0] != &g[0] {
		t.Error("Lease did not reuse the recycled buffer")
	}
}

// TestAccumulatorSameVersionSharesBuffer: η gradients committed under one
// stamp — what a compute thread running η steps ahead of synchronization 0
// produces — occupy one pending slot and one buffer, are counted one by one,
// and come out as their plain sum, carrying η mini-batches: they weigh alike,
// and the synchronization divides by the mini-batches it carries.
func TestAccumulatorSameVersionSharesBuffer(t *testing.T) {
	const dim, eta = 5, 8
	a, err := NewAccumulator(dim, eta)
	if err != nil {
		t.Fatal(err)
	}
	commit := func(step, stamp int64, v float64) {
		t.Helper()
		g := a.Lease()
		g.Fill(v)
		if _, err := a.Commit(step, stamp, g); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < eta; i++ {
		commit(i, 0, float64(i+1))
	}
	if len(a.pending) != 1 || a.Len() != eta {
		t.Errorf("%d pending slots holding %d gradients, want 1 and %d", len(a.pending), a.Len(), eta)
	}
	if a.Buffers() > 2 {
		t.Errorf("%d buffers allocated for %d gradients of one version, want ≤ 2", a.Buffers(), eta)
	}
	got, n, err := a.TakeN(0)
	if err != nil || n != eta {
		t.Fatalf("TakeN = (%v, %v), want %d mini-batches", n, err, eta)
	}
	want := tensor.New(dim)
	want.Fill(1 + 2 + 3 + 4 + 5 + 6 + 7 + 8)
	if !got.Equal(want, 0) {
		t.Errorf("Take = %v, want the plain sum %v", got, want)
	}
	a.Recycle(got)
	if got, want := a.Staleness()[0], eta; got != want {
		t.Errorf("Staleness[0] = %d gradients, want %d", got, want)
	}

	// Dropped counts gradients too: three of one stale version, one fresh.
	for i := int64(0); i < 3; i++ {
		commit(eta+i, 1, 100)
	}
	commit(eta+3, eta+1, 7)
	got, n, _ = a.TakeN(eta + 1) // τ = η for stamp 1
	if n != 1 || got[0] != 7 {
		t.Errorf("TakeN = %v, %d; want the fresh gradient alone", got, n)
	}
	if a.Dropped() != 3 || a.Buffers() > 2 {
		t.Errorf("Dropped = %d, Buffers = %d; want 3 gradients and ≤ 2 buffers", a.Dropped(), a.Buffers())
	}
}

// TestAccumulatorSteadyStateAllocs: once the free list is warm, a
// Lease/Commit/Take/Recycle cycle — one gradient per synchronization, and
// a compute thread running a few iterations ahead — allocates nothing.
func TestAccumulatorSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const dim, bound = 1 << 12, 4
	a, err := NewAccumulator(dim, bound)
	if err != nil {
		t.Fatal(err)
	}
	k := int64(0)
	cycle := func(ahead int) {
		for i := 0; i < ahead; i++ {
			g := a.Lease()
			g[0] = float64(k)
			if _, err := a.Commit(k, k, g); err != nil {
				t.Fatal(err)
			}
			k++
		}
		out, ok, err := a.Take(k - 1)
		if err != nil || !ok {
			t.Fatalf("Take = (%v, %v)", ok, err)
		}
		a.Recycle(out)
	}
	for _, ahead := range []int{1, bound} {
		cycle(ahead) // warm the free list and the slice headers
		if n := testing.AllocsPerRun(50, func() { cycle(ahead) }); n != 0 {
			t.Errorf("%d gradients per sync: %v allocs per cycle, want 0", ahead, n)
		}
	}
}
