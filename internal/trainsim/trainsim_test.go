package trainsim

import (
	"strings"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/hetero"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/workload"
)

// testConfig builds a small but realistic training simulation.
func testConfig(t *testing.T, strategy Strategy, workers, iters int) Config {
	t.Helper()
	src := rng.New(17)
	full, err := data.Blobs(src, 5, 8, 80, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	train, val, err := full.Split(src, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewLogistic(train)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Strategy:      strategy,
		Workers:       workers,
		Model:         m,
		Dataset:       train,
		EvalSet:       val,
		BatchSize:     16,
		LR:            0.3,
		Momentum:      0.9,
		Step:          workload.Balanced{Base: 100 * time.Millisecond, Jitter: 0.05},
		Spec:          workload.ResNet56(),
		Comm:          workload.DefaultComm(),
		MaxIterations: iters,
		EvalEvery:     10,
		Seed:          23,
	}
}

func TestStrategyString(t *testing.T) {
	for _, s := range []Strategy{Horovod, RNA, RNAHierarchical, EagerSGD, EagerSGDSolo, ADPSGD} {
		if str := s.String(); str == "" || strings.HasPrefix(str, "strategy(") {
			t.Errorf("Strategy %d has bad String %q", int(s), str)
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config should error")
	}
	cfg := testConfig(t, Horovod, 4, 10)
	cfg.Workers = 0
	if _, err := Run(cfg); err == nil {
		t.Error("0 workers should error")
	}
	cfg = testConfig(t, Horovod, 4, 10)
	cfg.Model = nil
	if _, err := Run(cfg); err == nil {
		t.Error("nil model should error")
	}
	cfg = testConfig(t, Horovod, 4, 10)
	cfg.MaxIterations = 0
	if _, err := Run(cfg); err == nil {
		t.Error("no termination should error")
	}
	cfg = testConfig(t, Strategy(99), 4, 10)
	if _, err := Run(cfg); err == nil {
		t.Error("unknown strategy should error")
	}
	cfg = testConfig(t, ADPSGD, 1, 10)
	if _, err := Run(cfg); err == nil {
		t.Error("single-worker AD-PSGD should error")
	}
}

func TestAllStrategiesTrainToHighAccuracy(t *testing.T) {
	for _, s := range []Strategy{Horovod, RNA, EagerSGD, EagerSGDSolo, ADPSGD} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			cfg := testConfig(t, s, 4, 200)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations == 0 {
				t.Fatal("no iterations completed")
			}
			if res.VirtualTime <= 0 {
				t.Fatal("virtual clock did not advance")
			}
			if !res.FinalParams.IsFinite() {
				t.Fatal("non-finite final parameters")
			}
			if res.TrainAcc < 0.8 {
				t.Errorf("%v train accuracy = %v, want ≥ 0.8", s, res.TrainAcc)
			}
			if res.ValTop1 <= 0 || res.ValTop5 < res.ValTop1 {
				t.Errorf("%v validation accuracy = (%v, %v)", s, res.ValTop1, res.ValTop5)
			}
			if len(res.Curve) == 0 {
				t.Error("empty convergence curve")
			}
			// Loss must broadly decrease.
			first, last := res.Curve[0].Loss, res.Curve[len(res.Curve)-1].Loss
			if last >= first {
				t.Errorf("%v loss did not decrease: %v -> %v", s, first, last)
			}
		})
	}
}

func TestHierarchicalTrainsUnderMixedHeterogeneity(t *testing.T) {
	cfg := testConfig(t, RNAHierarchical, 6, 200)
	cfg.Injector = hetero.NewMixedGroups(6)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainAcc < 0.75 {
		t.Errorf("hierarchical train accuracy = %v", res.TrainAcc)
	}
	if len(res.Breakdowns) != 6 {
		t.Errorf("breakdowns = %d, want 6", len(res.Breakdowns))
	}
}

func TestHierarchicalHomogeneousFallsBackToRNA(t *testing.T) {
	cfg := testConfig(t, RNAHierarchical, 4, 50)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != RNAHierarchical {
		t.Errorf("strategy = %v", res.Strategy)
	}
	if res.TrainAcc < 0.7 {
		t.Errorf("accuracy = %v", res.TrainAcc)
	}
}

func TestDeterminism(t *testing.T) {
	for _, s := range []Strategy{Horovod, RNA, ADPSGD} {
		cfg := testConfig(t, s, 4, 40)
		a, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.VirtualTime != b.VirtualTime {
			t.Errorf("%v virtual time differs: %v vs %v", s, a.VirtualTime, b.VirtualTime)
		}
		if a.FinalLoss != b.FinalLoss {
			t.Errorf("%v final loss differs: %v vs %v", s, a.FinalLoss, b.FinalLoss)
		}
		if !a.FinalParams.Equal(b.FinalParams, 0) {
			t.Errorf("%v final params differ", s)
		}
	}
}

func TestRNAFasterThanHorovodUnderStragglers(t *testing.T) {
	// The paper's core claim: under random per-iteration delays, RNA's
	// per-iteration time beats the BSP barrier.
	inj := hetero.UniformRandom{Lo: 0, Hi: 50 * time.Millisecond}

	cfgH := testConfig(t, Horovod, 8, 150)
	cfgH.Injector = inj
	h, err := Run(cfgH)
	if err != nil {
		t.Fatal(err)
	}

	cfgR := testConfig(t, RNA, 8, 150)
	cfgR.Injector = inj
	r, err := Run(cfgR)
	if err != nil {
		t.Fatal(err)
	}

	if r.MeanIterTime() >= h.MeanIterTime() {
		t.Errorf("RNA per-iteration (%v) not faster than Horovod (%v)",
			r.MeanIterTime(), h.MeanIterTime())
	}
	// RNA trades statistical efficiency: it must show null contributions.
	if r.NullContribRate <= 0 {
		t.Error("RNA reported zero null contributions under stragglers")
	}
	if h.PerIterTimes.Len() == 0 {
		t.Error("missing per-iteration samples")
	}
}

func TestBSPWaitDominatedByStraggler(t *testing.T) {
	// Fig. 1 shape: with +10ms/+40ms deterministic delays on workers 1
	// and 2, worker 0's wait share exceeds the slow worker's.
	cfg := testConfig(t, Horovod, 3, 50)
	cfg.Injector = hetero.PerNode{Delays: []time.Duration{0, 10 * time.Millisecond, 40 * time.Millisecond}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdowns[0].Wait <= res.Breakdowns[2].Wait {
		t.Errorf("fast worker wait (%v) should exceed slow worker wait (%v)",
			res.Breakdowns[0].Wait, res.Breakdowns[2].Wait)
	}
	if res.Breakdowns[2].Compute <= res.Breakdowns[0].Compute {
		t.Errorf("slow worker should compute longer (%v vs %v)",
			res.Breakdowns[2].Compute, res.Breakdowns[0].Compute)
	}
}

func TestTargetLossTermination(t *testing.T) {
	cfg := testConfig(t, Horovod, 4, 2000)
	cfg.TargetLoss = 0.5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ReachedTarget {
		t.Fatalf("target loss never reached (final %v)", res.FinalLoss)
	}
	if res.FinalLoss > 0.5 {
		t.Errorf("final loss %v above target", res.FinalLoss)
	}
	if res.Iterations >= 2000 {
		t.Error("run did not stop early")
	}
}

func TestMaxTimeTermination(t *testing.T) {
	cfg := testConfig(t, RNA, 4, 1<<20)
	cfg.MaxIterations = 0
	cfg.MaxTime = 3 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Should stop within one sync of the deadline.
	if res.VirtualTime < 3*time.Second {
		t.Errorf("stopped before MaxTime: %v", res.VirtualTime)
	}
	if res.VirtualTime > 5*time.Second {
		t.Errorf("overran MaxTime badly: %v", res.VirtualTime)
	}
}

func TestTraceCollection(t *testing.T) {
	for _, s := range []Strategy{Horovod, RNA, ADPSGD} {
		cfg := testConfig(t, s, 3, 10)
		cfg.CollectTrace = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace == nil || res.Trace.Len() == 0 {
			t.Errorf("%v produced no trace", s)
			continue
		}
		out := res.Trace.Render(60, 0)
		if !strings.Contains(out, "w0") {
			t.Errorf("%v trace render missing workers:\n%s", s, out)
		}
	}
}

func TestRNACopyOverheadAccounted(t *testing.T) {
	cfg := testConfig(t, RNA, 4, 30)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CopyOverhead <= 0 {
		t.Error("RNA must account host-device copy overhead")
	}
	cfgE := testConfig(t, EagerSGD, 4, 30)
	resE, err := Run(cfgE)
	if err != nil {
		t.Fatal(err)
	}
	if resE.CopyOverhead != 0 {
		t.Error("eager-SGD should not pay RNA's copy overhead")
	}
}

func TestADPSGDLowerAccuracyThanBSP(t *testing.T) {
	// Table 3/4 shape: for a fixed iteration budget AD-PSGD's consensus
	// accuracy trails the synchronized approaches.
	cfgH := testConfig(t, Horovod, 8, 120)
	h, err := Run(cfgH)
	if err != nil {
		t.Fatal(err)
	}
	cfgA := testConfig(t, ADPSGD, 8, 120)
	a, err := Run(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	if a.TrainAcc > h.TrainAcc+0.02 {
		t.Errorf("AD-PSGD accuracy (%v) should not beat Horovod (%v)", a.TrainAcc, h.TrainAcc)
	}
}

func TestThroughputAndMeanIterTime(t *testing.T) {
	cfg := testConfig(t, Horovod, 4, 30)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput() <= 0 {
		t.Error("non-positive throughput")
	}
	if res.MeanIterTime() <= 0 {
		t.Error("non-positive mean iteration time")
	}
	var empty Result
	if empty.Throughput() != 0 || empty.MeanIterTime() != 0 {
		t.Error("empty result should report zeros")
	}
}

func TestResponseTimesMicrobench(t *testing.T) {
	s1, err := ResponseTimes(100, 1, 400, 10*time.Millisecond, 50*time.Millisecond, 0.7, 5)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ResponseTimes(100, 2, 400, 10*time.Millisecond, 50*time.Millisecond, 0.7, 5)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := s1.Median()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s2.Median()
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 10: two choices cut the median response time sharply vs one.
	if m2 >= m1 {
		t.Errorf("q=2 median (%v) not below q=1 (%v)", time.Duration(m2), time.Duration(m1))
	}
	if ratio := m1 / m2; ratio < 1.4 {
		t.Errorf("q=2 improvement ratio %.2f, want ≥ 1.4 (paper reports ~2.4x)", ratio)
	}
}

func TestResponseTimesErrors(t *testing.T) {
	if _, err := ResponseTimes(0, 1, 10, 0, time.Second, 0, 1); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := ResponseTimes(10, 0, 10, 0, time.Second, 0, 1); err == nil {
		t.Error("q=0 should error")
	}
	if _, err := ResponseTimes(10, 1, 0, 0, time.Second, 0, 1); err == nil {
		t.Error("iters=0 should error")
	}
	if _, err := ResponseTimes(10, 1, 10, time.Second, time.Second, 0, 1); err == nil {
		t.Error("empty band should error")
	}
	if _, err := ResponseTimes(10, 1, 10, 0, time.Second, 1.5, 1); err == nil {
		t.Error("load ≥ 1 should error")
	}
}

func TestProbeSweepMonotoneAtLowQ(t *testing.T) {
	boxes, err := ProbeSweep(100, 300, []int{1, 2, 4}, 10*time.Millisecond, 50*time.Millisecond, 0.7, 9)
	if err != nil {
		t.Fatal(err)
	}
	if boxes[2].P50 >= boxes[1].P50 {
		t.Errorf("q=2 median %v not below q=1 %v", boxes[2].P50, boxes[1].P50)
	}
	if boxes[4].P50 > boxes[2].P50 {
		t.Errorf("q=4 median %v should not exceed q=2 %v", boxes[4].P50, boxes[2].P50)
	}
}

func TestParamsTimeline(t *testing.T) {
	cfg := testConfig(t, RNA, 2, 5)
	_ = cfg
	init := make([]float64, 2)
	tl := newParamsTimeline(init)
	v1 := []float64{1, 1}
	v2 := []float64{2, 2}
	tl.Append(10*time.Millisecond, v1)
	tl.Append(20*time.Millisecond, v2)
	if got := tl.Lookup(5 * time.Millisecond); got[0] != 0 {
		t.Errorf("Lookup(5ms) = %v, want initial", got)
	}
	if got := tl.Lookup(10 * time.Millisecond); got[0] != 1 {
		t.Errorf("Lookup(10ms) = %v, want v1", got)
	}
	if got := tl.Lookup(15 * time.Millisecond); got[0] != 1 {
		t.Errorf("Lookup(15ms) = %v, want v1", got)
	}
	if got := tl.Lookup(time.Hour); got[0] != 2 {
		t.Errorf("Lookup(1h) = %v, want v2", got)
	}
	tl.Prune(15 * time.Millisecond)
	if tl.Len() != 2 {
		t.Errorf("after prune Len = %d, want 2", tl.Len())
	}
	if got := tl.Lookup(0); got[0] != 1 {
		t.Errorf("after prune Lookup(0) = %v, want oldest retained (v1)", got)
	}
}

func TestPartialSimStalenessBound(t *testing.T) {
	// With bound 1 and a strong straggler, the fast worker must stall
	// sometimes (wait time > 0) instead of running away.
	cfg := testConfig(t, RNA, 2, 60)
	cfg.StalenessBound = 1
	cfg.Injector = hetero.PerNode{Delays: []time.Duration{0, 200 * time.Millisecond}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdowns[0].Wait <= 0 {
		t.Error("fast worker never hit the staleness bound")
	}
	if !res.FinalParams.IsFinite() {
		t.Error("non-finite params")
	}
}
