package trainsim

import (
	"testing"
	"time"

	"repro/internal/hetero"
	"repro/internal/workload"
)

// TestSingleWorkerRNA: the protocol degenerates gracefully to solo SGD.
func TestSingleWorkerRNA(t *testing.T) {
	cfg := testConfig(t, RNA, 1, 80)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainAcc < 0.75 {
		t.Errorf("single-worker accuracy = %v", res.TrainAcc)
	}
	if res.NullContribRate > 0 {
		t.Errorf("single worker produced nulls: %v", res.NullContribRate)
	}
}

// TestTwoWorkerHierarchicalFallsBack: two identical workers form one group.
func TestTwoWorkerHierarchical(t *testing.T) {
	cfg := testConfig(t, RNAHierarchical, 2, 40)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != RNAHierarchical {
		t.Errorf("strategy = %v", res.Strategy)
	}
}

// TestExtremeStraggler: a worker 100x slower than the rest must not stall
// the simulation (the bounded-delay gate paces rounds, the stale overwrite
// drops its ancient gradients, and probes never force full catch-up).
func TestExtremeStraggler(t *testing.T) {
	cfg := testConfig(t, RNA, 4, 60)
	cfg.Injector = hetero.PerNode{Delays: []time.Duration{0, 0, 0, 10 * time.Second}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 60 {
		t.Errorf("iterations = %d", res.Iterations)
	}
	if !res.FinalParams.IsFinite() {
		t.Error("non-finite params")
	}
	// The cluster is paced by the straggler through the gate, so the run
	// takes on the order of (iters - bound) / 1 straggler steps.
	if res.VirtualTime < 30*time.Second {
		t.Errorf("virtual time %v too small for a 10s/step straggler under the bounded-delay gate", res.VirtualTime)
	}
}

// TestZeroJitterWorkload: fully deterministic steps still make progress
// under every strategy.
func TestZeroJitterWorkload(t *testing.T) {
	for _, s := range []Strategy{Horovod, RNA, EagerSGD, ADPSGD} {
		cfg := testConfig(t, s, 3, 30)
		cfg.Step = workload.Balanced{Base: 10 * time.Millisecond, Jitter: 0}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.Iterations == 0 || !res.FinalParams.IsFinite() {
			t.Errorf("%v: iterations=%d", s, res.Iterations)
		}
	}
}

// TestProbesLargerThanCluster: q > n clamps to probing everyone.
func TestProbesLargerThanCluster(t *testing.T) {
	cfg := testConfig(t, RNA, 3, 30)
	cfg.Probes = 10
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 30 {
		t.Errorf("iterations = %d", res.Iterations)
	}
}

// TestRNAHierarchicalDeterminism: the grouped path is reproducible too.
func TestRNAHierarchicalDeterminism(t *testing.T) {
	cfg := testConfig(t, RNAHierarchical, 6, 40)
	cfg.Injector = hetero.NewMixedGroups(6)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.VirtualTime != b.VirtualTime || !a.FinalParams.Equal(b.FinalParams, 0) {
		t.Error("hierarchical run not deterministic")
	}
}

// TestEagerSoloDeterminism covers the remaining strategy determinism.
func TestEagerDeterminism(t *testing.T) {
	for _, s := range []Strategy{EagerSGD, EagerSGDSolo} {
		cfg := testConfig(t, s, 4, 40)
		a, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !a.FinalParams.Equal(b.FinalParams, 0) {
			t.Errorf("%v not deterministic", s)
		}
	}
}

// TestDirectGPUNoCopyOverhead: the NCCL path removes the Table 5 overhead.
func TestDirectGPUNoCopyOverhead(t *testing.T) {
	cfg := testConfig(t, RNA, 4, 30)
	cfg.DirectGPU = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CopyOverhead != 0 {
		t.Errorf("DirectGPU copy overhead = %v", res.CopyOverhead)
	}
}

// TestLayerOverlapReducesCopy: overlapping shrinks the copy overhead by
// roughly the layer count.
func TestLayerOverlapReducesCopy(t *testing.T) {
	plain := testConfig(t, RNA, 4, 30)
	over := plain
	over.LayerOverlap = true
	a, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(over)
	if err != nil {
		t.Fatal(err)
	}
	if b.CopyOverhead >= a.CopyOverhead {
		t.Errorf("overlap overhead %v not below plain %v", b.CopyOverhead, a.CopyOverhead)
	}
}

// TestPSSyncEveryKnob: different periods give different (deterministic)
// trajectories under mixed heterogeneity.
func TestPSSyncEveryKnob(t *testing.T) {
	mk := func(period int) *Result {
		cfg := testConfig(t, RNAHierarchical, 6, 60)
		cfg.Injector = hetero.NewMixedGroups(6)
		cfg.PSSyncEvery = period
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(1), mk(16)
	if a.FinalParams.Equal(b.FinalParams, 0) {
		t.Error("PS period had no effect")
	}
}

// TestHierarchicalChunkedPSPricing: pricing the PS exchange with the
// pipelined wire protocol (chunked frames, overlapped acks) finishes no
// later than the monolithic round trip, and stays deterministic.
func TestHierarchicalChunkedPSPricing(t *testing.T) {
	base := testConfig(t, RNAHierarchical, 6, 40)
	base.Injector = hetero.NewMixedGroups(6)
	mono, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	chunked := base
	chunked.PSChunks = 8
	a, err := Run(chunked)
	if err != nil {
		t.Fatal(err)
	}
	if a.VirtualTime > mono.VirtualTime {
		t.Errorf("chunked PS pricing %v slower than monolithic %v", a.VirtualTime, mono.VirtualTime)
	}
	// The pricing changes time, never the trajectory.
	if !a.FinalParams.Equal(mono.FinalParams, 0) {
		t.Error("PS pricing changed the simulated trajectory")
	}
	b, err := Run(chunked)
	if err != nil {
		t.Fatal(err)
	}
	if a.VirtualTime != b.VirtualTime {
		t.Error("chunked pricing not deterministic")
	}
}
