package collective

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/tensor"
)

// TestSelectPrefersLatencyOptimalSmall: small tensors must never land on a
// 2(n−1)-step latency chain. Inside the inline envelope (≤ 8 KiB, ≤ 32
// ranks) the ring itself runs the log-depth allgather, so the selector must
// price it as such: under an α-dominated model the inline ring's log₂N
// rounds are the shortest critical path at power-of-two n and must win,
// while outside the envelope — where ring means the pipelined 2(n−1)
// schedule — ring must lose. Which algorithm wins inside the envelope under
// fitted constants depends on the β spread; the structural invariant is
// that the pipelined chain is never picked for small tensors.
func TestSelectPrefersLatencyOptimalSmall(t *testing.T) {
	alphaOnly := CostModel{Ring: AlgoCost{AlphaNs: 1}, Tree: AlgoCost{AlphaNs: 1}}
	for _, n := range []int{8, 16, 32} {
		// log₂n inline rounds < the tree's 2·log₂n.
		if got := alphaOnly.SelectWire(n, 64, tensor.F64); got != AlgoRing {
			t.Errorf("alpha-only Select(%d ranks, 64 elems) = %v; want ring (inline allgather is latency-optimal)", n, got)
		}
		// 4096 elems = 32 KiB: past the inline cap, ring is 2(n−1) deep.
		if got := alphaOnly.SelectWire(n, 4096, tensor.F64); got == AlgoRing {
			t.Errorf("alpha-only Select(%d ranks, 4096 elems) = ring; want a log-depth schedule", n)
		}
	}
	// Non-power-of-two inline: n−1 direct exchanges still beat
	// 2⌈log₂n⌉ = 6 at n = 6.
	if got := alphaOnly.SelectWire(6, 64, tensor.F64); got != AlgoRing {
		t.Errorf("alpha-only Select(6 ranks, 64 elems) = %v; want ring", got)
	}
	m := DefaultCostModel()
	for _, n := range []int{8, 16, 32} {
		if got := m.SelectWire(n, 4096, tensor.F64); got == AlgoRing {
			t.Errorf("Select(%d ranks, 4096 elems) = ring; want a log-depth schedule", n)
		}
	}
	// Past the rank cap the inline path is off even for tiny tensors.
	for _, n := range []int{64, 128} {
		if got := m.SelectWire(n, 64, tensor.F64); got == AlgoRing {
			t.Errorf("Select(%d ranks, 64 elems) = ring; want a log-depth schedule", n)
		}
	}
}

// TestSelectPrefersBandwidthOptimalLarge: huge tensors must land on a
// schedule whose byte volume is O(bytes), i.e. not the tree (which moves the
// full vector every hop).
func TestSelectPrefersBandwidthOptimalLarge(t *testing.T) {
	m := DefaultCostModel()
	for _, n := range []int{8, 16} {
		if got := m.SelectWire(n, 1<<22, tensor.F64); got == AlgoTree {
			t.Errorf("Select(%d ranks, 4M elems) = tree; want ring", n)
		}
	}
}

// TestSelectDeterministicAndMonotone: selection is a pure function of
// (n, elems) — SPMD ranks sharing one model must always agree.
func TestSelectDeterministicAndMonotone(t *testing.T) {
	m := DefaultCostModel()
	for _, n := range []int{2, 3, 8, 17} {
		for _, elems := range []int{0, 1, 512, 4096, 1 << 16, 1 << 20} {
			first := m.SelectWire(n, elems, tensor.F64)
			for i := 0; i < 3; i++ {
				if got := m.SelectWire(n, elems, tensor.F64); got != first {
					t.Fatalf("Select(%d, %d) flapped: %v then %v", n, elems, first, got)
				}
			}
		}
	}
}

// TestSelectSingleRank: a 1-rank mesh needs no traffic; any algorithm is a
// no-op, and the selector must not divide by zero getting there.
func TestSelectSingleRank(t *testing.T) {
	if got := DefaultCostModel().SelectWire(1, 1024, tensor.F64); got != AlgoRing {
		t.Errorf("Select(1, 1024) = %v, want ring fallback", got)
	}
	if ns := DefaultCostModel().PredictWireNs(AlgoAuto, 1, 1024, tensor.F64); ns != 0 {
		t.Errorf("PredictWireNs(auto, 1 rank) = %v, want 0", ns)
	}
	// 2 and 4 named schedules that were removed: they are not valid and
	// have no price, at any rank count, rather than pricing as auto.
	for _, stale := range []Algorithm{2, 4, -1} {
		if stale.Valid() {
			t.Errorf("Algorithm(%d).Valid() = true", int(stale))
		}
		for _, n := range []int{1, 8} {
			if ns := DefaultCostModel().PredictWireNs(stale, n, 1024, tensor.F64); !math.IsInf(ns, 1) {
				t.Errorf("PredictWireNs(Algorithm(%d), %d ranks) = %v, want +Inf", int(stale), n, ns)
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
		// 800 B sits inside the inline-ring envelope: log₂n rounds at
		// power-of-two n, n−1 direct exchanges otherwise.
		{AlgoRing, 4, 100, 2}, // log2(4)
		{AlgoRing, 8, 100, 3}, // log2(8)
		{AlgoRing, 6, 100, 5}, // n−1 (non-power-of-two)
		// 80 KB is past the inline cap: the pipelined ring's 2(n−1).
		{AlgoRing, 4, 10000, 6},  //
		{AlgoRing, 8, 10000, 14}, //
		{AlgoTree, 8, 100, 6},    // 2·⌈log2 8⌉
		{AlgoTree, 5, 100, 6},    // 2·⌈log2 5⌉
	}
	for _, tc := range cases {
		if got := m.PredictWireNs(tc.algo, tc.n, tc.elems, tensor.F64); got != tc.want {
			t.Errorf("PredictWireNs(%v, n=%d, %d elems) = %v, want %v", tc.algo, tc.n, tc.elems, got, tc.want)
		}
	}
}

// TestCalibrationSaveLoadRoundTrip: the persisted calibration must reload
// bit-for-bit so every rank of a job can install the identical model.
func TestCalibrationSaveLoadRoundTrip(t *testing.T) {
	cal := Calibration{
		Model: CostModel{
			Ring: AlgoCost{AlphaNs: 123.5, BetaNsPerByte: 0.25},
			Tree: AlgoCost{AlphaNs: 77.25, BetaNsPerByte: 1.125},
		},
		Ranks: 8, SmallDim: 256, LargeDim: 1 << 18, Rounds: 30,
	}
	path := filepath.Join(t.TempDir(), "cal.json")
	if err := cal.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCalibration(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cal) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, cal)
	}
}

// TestLoadCalibrationErrors: missing and malformed files both fail loudly.
func TestLoadCalibrationErrors(t *testing.T) {
	if _, err := LoadCalibration(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("loading a missing calibration should error")
	}
}

// TestSetCostModelDrivesSelector: installing a model changes what AllReduce
// auto-selection picks, and restoring the default restores the choice.
func TestSetCostModelDrivesSelector(t *testing.T) {
	defer SetCostModel(DefaultCostModel())
	// A model where the tree is free wins everywhere.
	treeOnly := CostModel{
		Ring: AlgoCost{AlphaNs: 1e9, BetaNsPerByte: 1e6},
		Tree: AlgoCost{AlphaNs: 1, BetaNsPerByte: 0},
	}
	SetCostModel(treeOnly)
	if got := SelectAlgorithmWire(8, 1<<20, tensor.F64); got != AlgoTree {
		t.Errorf("with tree-only model SelectAlgorithmWire = %v, want tree", got)
	}
	SetCostModel(DefaultCostModel())
	if got := SelectAlgorithmWire(8, 1<<20, tensor.F64); got == AlgoTree {
		t.Errorf("default model picked tree for 1M elems; want a bandwidth-optimal schedule")
	}
}

// TestCalibrateSmoke runs a tiny calibration end to end: constants must come
// out positive and the calibration must record its probe conditions.
func TestCalibrateSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probe in -short mode")
	}
	cal, err := Calibrate(4, 64, 8192, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cal.Ranks != 4 || cal.SmallDim != 64 || cal.LargeDim != 8192 || cal.Rounds != 3 {
		t.Errorf("probe conditions not recorded: %+v", cal)
	}
	for name, c := range map[string]AlgoCost{"ring": cal.Model.Ring, "tree": cal.Model.Tree} {
		if c.AlphaNs <= 0 || c.BetaNsPerByte < 0 {
			t.Errorf("%s constants out of range: %+v", name, c)
		}
	}
}

// TestCalibrationFingerprint: Calibrate stamps the host fingerprint, the
// stamp survives the JSON round trip, and FingerprintMatches accepts this
// host plus legacy (unstamped) files while rejecting foreign shapes.
func TestCalibrationFingerprint(t *testing.T) {
	gmp, ncpu := HostFingerprint()
	if gmp < 1 || ncpu < 1 {
		t.Fatalf("fingerprint = (%d, %d)", gmp, ncpu)
	}
	cal := Calibration{GoMaxProcs: gmp, NumCPU: ncpu}
	if !cal.FingerprintMatches() {
		t.Error("own-host fingerprint rejected")
	}
	if !(Calibration{}).FingerprintMatches() {
		t.Error("legacy calibration without fingerprint rejected")
	}
	foreign := Calibration{GoMaxProcs: gmp + 3, NumCPU: ncpu}
	if foreign.FingerprintMatches() {
		t.Error("foreign fingerprint accepted")
	}
	// Round trip through the persisted form.
	path := filepath.Join(t.TempDir(), "cal.json")
	stamped := Calibration{
		Model:      DefaultCostModel(),
		Ranks:      2,
		GoMaxProcs: gmp + 1, // deliberately foreign
		NumCPU:     ncpu,
	}
	if err := stamped.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCalibration(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.GoMaxProcs != gmp+1 || got.NumCPU != ncpu {
		t.Errorf("fingerprint did not survive round trip: %+v", got)
	}
	if got.FingerprintMatches() {
		t.Error("stale calibration accepted after round trip")
	}
}

// TestBitHelpersMatchLoops holds the math/bits forms of log2, ceilLog2 and
// highestBit to the hand loops they replaced, over 0–4 096.
func TestBitHelpersMatchLoops(t *testing.T) {
	log2Loop := func(p int) int {
		l := 0
		for p > 1 {
			p >>= 1
			l++
		}
		return l
	}
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
		if got, want := log2(x), log2Loop(x); got != want {
			t.Errorf("log2(%d) = %d, loop %d", x, got, want)
		}
		if got, want := ceilLog2(x), ceilLog2Loop(x); got != want {
			t.Errorf("ceilLog2(%d) = %d, loop %d", x, got, want)
		}
		if got, want := highestBit(x), highestBitLoop(x); got != want {
			t.Errorf("highestBit(%d) = %d, loop %d", x, got, want)
		}
	}
}
