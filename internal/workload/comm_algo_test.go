package workload

import (
	"testing"

	"repro/internal/tensor"
)

// TestAllReduceAlgoZeroValueIsRing: the zero value must price exactly like
// the historical ring so existing engine configurations are unchanged.
func TestAllReduceAlgoZeroValueIsRing(t *testing.T) {
	c := DefaultComm()
	for _, n := range []int{2, 4, 7, 16} {
		for _, bytes := range []int64{0, 4096, 3_400_000} {
			var zero AllReduceAlgo
			if got, want := c.AllReduce(zero, n, bytes), c.RingAllReduce(n, bytes); got != want {
				t.Errorf("AllReduce(zero, %d, %d) = %v, want ring %v", n, bytes, got, want)
			}
		}
	}
}

// TestAllReduceAutoIsMin: the auto price is the min of the two schedules.
func TestAllReduceAutoIsMin(t *testing.T) {
	c := TenGbEComm()
	for _, n := range []int{2, 3, 8, 12} {
		for _, bytes := range []int64{64, 8192, 1 << 22} {
			got := c.AllReduce(AllReduceAuto, n, bytes)
			if want := min(c.RingAllReduce(n, bytes), c.TreeAllReduce(n, bytes)); got != want {
				t.Errorf("AllReduce(auto, %d, %d) = %v, want min %v", n, bytes, got, want)
			}
		}
	}
}

// TestAllReduceCrossover: small messages on a high-latency fabric are
// latency-dominated (the log-depth tree beats the ring); huge messages are
// bandwidth-dominated (the tree's log-factor byte volume loses).
func TestAllReduceCrossover(t *testing.T) {
	c := TenGbEComm()
	const n = 16
	smallRing := c.RingAllReduce(n, 256)
	if tree := c.TreeAllReduce(n, 256); tree >= smallRing {
		t.Errorf("small message: tree %v should beat ring %v at n=%d", tree, smallRing, n)
	}
	const huge = int64(1) << 28
	if tree, ring := c.TreeAllReduce(n, huge), c.RingAllReduce(n, huge); tree <= ring {
		t.Errorf("huge message: tree %v should lose to ring %v at n=%d", tree, ring, n)
	}
}

// TestAllReduceSingleWorkerFree: every schedule is free at n=1.
func TestAllReduceSingleWorkerFree(t *testing.T) {
	c := DefaultComm()
	for _, algo := range []AllReduceAlgo{AllReduceRing, AllReduceAuto, AllReduceTree} {
		if d := c.AllReduce(algo, 1, 1<<20); d != 0 {
			t.Errorf("AllReduce(%v, 1 worker) = %v, want 0", algo, d)
		}
	}
}

// TestAllReduceAlgoString pins the CLI-facing names.
func TestAllReduceAlgoString(t *testing.T) {
	want := map[AllReduceAlgo]string{
		AllReduceRing: "ring", AllReduceAuto: "auto", AllReduceTree: "tree",
	}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), s)
		}
	}
}

func TestAllReduceWireF64MatchesLegacy(t *testing.T) {
	// F64 wire pricing must be bit-identical to the legacy byte model so
	// existing simulations are untouched.
	for _, c := range []CommModel{DefaultComm(), TenGbEComm()} {
		for _, algo := range []AllReduceAlgo{AllReduceRing, AllReduceAuto, AllReduceTree} {
			for _, n := range []int{1, 2, 3, 8, 16, 33} {
				for _, elems := range []int{0, 1, 1023, 1 << 18} {
					if got, want := c.AllReduceWire(algo, n, elems, tensor.F64), c.AllReduce(algo, n, 8*int64(elems)); got != want {
						t.Fatalf("%v n=%d elems=%d: wire=%v legacy=%v", algo, n, elems, got, want)
					}
				}
			}
		}
	}
}

func TestAllReduceWireCompressionCheaper(t *testing.T) {
	// On bandwidth-dominated transfers a narrower wire must price cheaper,
	// and wider compression must never price above narrower.
	c := DefaultComm()
	for _, algo := range []AllReduceAlgo{AllReduceRing, AllReduceAuto, AllReduceTree} {
		for _, n := range []int{2, 8, 16} {
			elems := 1 << 20
			f64 := c.AllReduceWire(algo, n, elems, tensor.F64)
			f32 := c.AllReduceWire(algo, n, elems, tensor.F32)
			f16 := c.AllReduceWire(algo, n, elems, tensor.F16)
			i8 := c.AllReduceWire(algo, n, elems, tensor.I8)
			if !(f32 < f64 && f16 < f32 && i8 < f16) {
				t.Fatalf("%v n=%d: f64=%v f32=%v f16=%v i8=%v not monotone", algo, n, f64, f32, f16, i8)
			}
		}
	}
}
