package topology

import (
	"testing"
	"time"
)

func TestLinkObservationsValidation(t *testing.T) {
	if _, err := NewLinkObservations(0); err == nil {
		t.Error("zero-rank aggregator should error")
	}
	o, err := NewLinkObservations(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.ObserveTransfer(0, 0, 1<<20, time.Millisecond); err == nil {
		t.Error("self-link observation should error")
	}
	if err := o.ObserveTransfer(0, 4, 1<<20, time.Millisecond); err == nil {
		t.Error("out-of-range rank should error")
	}
	if err := o.ObserveTransfer(0, 1, 0, time.Millisecond); err == nil {
		t.Error("zero-byte transfer should error")
	}
	if err := o.ObserveLatency(0, 1, -time.Second); err == nil {
		t.Error("negative latency should error")
	}
}

func TestLinkObservationsBandwidthAndLatency(t *testing.T) {
	o, err := NewLinkObservations(3)
	if err != nil {
		t.Fatal(err)
	}
	if o.Observed(0, 1) {
		t.Error("unobserved link reports observed")
	}
	if bw := o.Bandwidth(0, 1); bw != 0 {
		t.Errorf("unobserved bandwidth = %v, want 0", bw)
	}
	// 1 MiB in 1 ms ≈ 1 GiB/s.
	if err := o.ObserveTransfer(0, 1, 1<<20, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	bw := o.Bandwidth(0, 1)
	want := float64(1<<20) * 1e3
	if bw < want*0.99 || bw > want*1.01 {
		t.Errorf("bandwidth = %v, want ≈%v", bw, want)
	}
	if !o.Observed(0, 1) || o.Observed(1, 0) {
		t.Error("observation direction confused")
	}
	if err := o.ObserveLatency(2, 1, 40*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if lat := o.Latency(2, 1); lat < 39*time.Microsecond || lat > 41*time.Microsecond {
		t.Errorf("latency = %v, want ≈40µs", lat)
	}
	// Small transfers fold into the latency EWMA, not bandwidth.
	if err := o.ObserveTransfer(1, 2, 100, 5*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if bw := o.Bandwidth(1, 2); bw != 0 {
		t.Errorf("tiny transfer polluted bandwidth: %v", bw)
	}
	if lat := o.Latency(1, 2); lat == 0 {
		t.Error("tiny transfer did not record latency")
	}
}

// TestLinkObservationsAgeOut is the satellite's core claim: stale samples
// decay. A link that was slow for a long history converges to its new fast
// speed after about a half-life worth of fresh samples — an unbounded-mean
// accumulator would stay pinned near the stale value forever.
func TestLinkObservationsAgeOut(t *testing.T) {
	o, err := NewLinkObservations(2)
	if err != nil {
		t.Fatal(err)
	}
	slow := 50 * time.Millisecond // 1 MiB in 50 ms ≈ 21 MB/s
	fast := 1 * time.Millisecond  // 1 MiB in 1 ms ≈ 1 GB/s
	for i := 0; i < 500; i++ {
		if err := o.ObserveTransfer(0, 1, 1<<20, slow); err != nil {
			t.Fatal(err)
		}
	}
	slowBW := o.Bandwidth(0, 1)
	// The link speeds up 50x. Feed 8 half-lives of fresh samples: the stale
	// history's weight decays to 2^-8 ≈ 0.4% (ns/byte is harmonic in
	// bandwidth, so even small stale weight drags the estimate visibly —
	// which is why the window matters).
	for i := 0; i < 8*int(DefaultLinkHalfLife); i++ {
		if err := o.ObserveTransfer(0, 1, 1<<20, fast); err != nil {
			t.Fatal(err)
		}
	}
	freshBW := o.Bandwidth(0, 1)
	fastBW := float64(1<<20) * 1e3
	if freshBW < fastBW/2 {
		t.Errorf("EWMA still anchored to stale history: %v (stale %v, fresh %v)", freshBW, slowBW, fastBW)
	}
	// An unbounded mean of the same ns/byte stream would still sit at
	// ~(500·47.7 + 128·0.95)/628 ≈ 38 ns/B ≈ 1.3·slowBW — verify we are far
	// past what any accumulating estimator could reach.
	if freshBW < 10*slowBW {
		t.Errorf("EWMA barely moved off the stale estimate: %v vs %v", freshBW, slowBW)
	}
}
