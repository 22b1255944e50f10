package collective

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// TestSelectPrefersLatencyOptimalSmall: small tensors must never land on the
// ring's 2(n−1)-step latency chain. Under an α-dominated model the tree's
// 2⌈log₂n⌉ messages are the shorter critical path (a tie at n ≤ 3 goes to the
// tree), and the fitted defaults agree for a tensor of a few KiB.
func TestSelectPrefersLatencyOptimalSmall(t *testing.T) {
	alphaOnly := CostModel{Ring: AlgoCost{AlphaNs: 1}, Tree: AlgoCost{AlphaNs: 1}}
	m := DefaultCostModel()
	for _, n := range []int{2, 3, 6, 8, 16, 32, 64} {
		for _, elems := range []int{64, 4096} {
			if got := alphaOnly.Select(n, elems); got != AlgoTree {
				t.Errorf("alpha-only Select(%d ranks, %d elems) = %v; want tree", n, elems, got)
			}
		}
		if got := m.Select(n, 64); got != AlgoTree {
			t.Errorf("Select(%d ranks, 64 elems) = %v; want tree", n, got)
		}
	}
}

// TestSelectPrefersBandwidthOptimalLarge: huge tensors must land on a
// schedule whose byte volume is O(bytes), i.e. not the tree (which moves the
// full vector every hop), and the package-level selector AllReduce consults
// agrees with the shipped model.
func TestSelectPrefersBandwidthOptimalLarge(t *testing.T) {
	m := DefaultCostModel()
	for _, n := range []int{8, 16} {
		for _, elems := range []int{1 << 20, 1 << 22} {
			if got := m.Select(n, elems); got == AlgoTree {
				t.Errorf("Select(%d ranks, %d elems) = tree; want ring", n, elems)
			}
			if got, want := SelectAlgorithm(n, elems), m.Select(n, elems); got != want {
				t.Errorf("SelectAlgorithm(%d ranks, %d elems) = %v, the shipped model picks %v", n, elems, got, want)
			}
		}
	}
}

// TestSelectDeterministicAndMonotone: selection is a pure function of
// (n, elems) — SPMD ranks sharing one model must always agree.
func TestSelectDeterministicAndMonotone(t *testing.T) {
	m := DefaultCostModel()
	for _, n := range []int{2, 3, 8, 17} {
		for _, elems := range []int{0, 1, 512, 4096, 1 << 16, 1 << 20} {
			first := m.Select(n, elems)
			for i := 0; i < 3; i++ {
				if got := m.Select(n, elems); got != first {
					t.Fatalf("Select(%d, %d) flapped: %v then %v", n, elems, first, got)
				}
			}
		}
	}
}

// TestSelectSingleRank: a 1-rank mesh needs no traffic; any algorithm is a
// no-op, and the selector must not divide by zero getting there.
func TestSelectSingleRank(t *testing.T) {
	if got := DefaultCostModel().Select(1, 1024); got != AlgoRing {
		t.Errorf("Select(1, 1024) = %v, want ring fallback", got)
	}
	if ns := DefaultCostModel().PredictNs(AlgoAuto, 1, 1024); ns != 0 {
		t.Errorf("PredictNs(auto, 1 rank) = %v, want 0", ns)
	}
	// 2 and 4 named schedules that were removed: they are not valid and
	// have no price, at any rank count, rather than pricing as auto.
	for _, stale := range []Algorithm{2, 4, -1} {
		if stale.Valid() {
			t.Errorf("Algorithm(%d).Valid() = true", int(stale))
		}
		for _, n := range []int{1, 8} {
			if ns := DefaultCostModel().PredictNs(stale, n, 1024); !math.IsInf(ns, 1) {
				t.Errorf("PredictNs(Algorithm(%d), %d ranks) = %v, want +Inf", int(stale), n, ns)
			}
		}
	}
}

// TestPredictMatchesConstructedModel pins the shape arithmetic with a
// hand-checkable model: α=1 per message, β=0.
func TestPredictMatchesConstructedModel(t *testing.T) {
	unit := AlgoCost{AlphaNs: 1, BetaNsPerByte: 0}
	m := CostModel{Ring: unit, Tree: unit}
	cases := []struct {
		algo  Algorithm
		n     int
		elems int
		want  float64
	}{
		// The ring's 2(n−1) at any size.
		{AlgoRing, 4, 100, 6},
		{AlgoRing, 6, 100, 10},
		{AlgoRing, 8, 10000, 14},
		{AlgoTree, 8, 100, 6}, // 2·⌈log2 8⌉
		{AlgoTree, 5, 100, 6}, // 2·⌈log2 5⌉
	}
	for _, tc := range cases {
		if got := m.PredictNs(tc.algo, tc.n, tc.elems); got != tc.want {
			t.Errorf("PredictNs(%v, n=%d, %d elems) = %v, want %v", tc.algo, tc.n, tc.elems, got, tc.want)
		}
	}
}

// TestHostFingerprint: the host shape a benchmark report records is a real
// one.
func TestHostFingerprint(t *testing.T) {
	if gmp, ncpu := HostFingerprint(); gmp < 1 || ncpu < 1 {
		t.Errorf("fingerprint = (%d, %d)", gmp, ncpu)
	}
}

// TestBitHelpersMatchLoops holds the math/bits forms of ceilLog2 and
// highestBit to the hand loops they replaced, over 0–4 096.
func TestBitHelpersMatchLoops(t *testing.T) {
	ceilLog2Loop := func(n int) int {
		l := 0
		for (1 << l) < n {
			l++
		}
		return l
	}
	highestBitLoop := func(x int) int {
		if x <= 0 {
			return 0
		}
		b := 1
		for b<<1 <= x {
			b <<= 1
		}
		return b
	}
	for x := 0; x <= 4096; x++ {
		if got, want := ceilLog2(x), ceilLog2Loop(x); got != want {
			t.Errorf("ceilLog2(%d) = %d, loop %d", x, got, want)
		}
		if got, want := highestBit(x), highestBitLoop(x); got != want {
			t.Errorf("highestBit(%d) = %d, loop %d", x, got, want)
		}
	}
}

// TestPredictWireConsistency: the forms that name a wire dtype, which
// benchmark/probes.go calls, price and select exactly as the f64 forms do.
func TestPredictWireConsistency(t *testing.T) {
	c := ActiveCostModel()
	for _, n := range []int{1, 2, 4, 8, 16} {
		for _, elems := range []int{0, 64, 4680, 139792, 1 << 20} {
			for _, a := range []Algorithm{AlgoAuto, AlgoRing, AlgoTree} {
				if got, want := c.PredictWireNs(a, n, elems, tensor.F64), c.PredictNs(a, n, elems); got != want {
					t.Errorf("%v n=%d elems=%d: PredictWireNs %v, PredictNs %v", a, n, elems, got, want)
				}
			}
			if got, want := SelectAlgorithmWire(n, elems, tensor.F64), SelectAlgorithm(n, elems); got != want {
				t.Errorf("n=%d elems=%d: SelectAlgorithmWire %v, SelectAlgorithm %v", n, elems, got, want)
			}
		}
	}
}
