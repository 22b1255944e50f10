package core

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// trainCluster runs fn (one of the worker runners) on every rank of a fresh
// local network and returns per-rank results.
func trainCluster(t *testing.T, n int, run func(m transport.Mesh) (*Result, error)) []*Result {
	t.Helper()
	net, err := transport.NewLocalNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, m := range net.Endpoints() {
		i, m := i, m
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = run(m)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	return results
}

func blobConfig(t *testing.T, iters int) (TrainConfig, *data.Dataset) {
	t.Helper()
	src := rng.New(77)
	ds, err := data.Blobs(src, 4, 6, 60, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewLogistic(ds)
	if err != nil {
		t.Fatal(err)
	}
	return TrainConfig{
		Model:          m,
		Batch:          func(s *rng.Source) []int { return ds.Batch(s, 16) },
		LR:             0.25,
		Momentum:       0.9,
		Iterations:     iters,
		StalenessBound: 2,
		Seed:           42,
	}, ds
}

func TestBSPWorkerTrains(t *testing.T) {
	const n = 4
	cfg, ds := blobConfig(t, 60)
	ctrl, err := controller.New(controller.AllReady, n, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	results := trainCluster(t, n, func(m transport.Mesh) (*Result, error) {
		return RunBSPWorker(m, ctrl, cfg)
	})
	// All ranks end with identical parameters (BSP invariant).
	for r := 1; r < n; r++ {
		if !results[r].Params.Equal(results[0].Params, 1e-9) {
			t.Fatalf("rank %d params diverged from rank 0", r)
		}
	}
	// The model must have learned something.
	cls := cfg.Model.(model.Classifier)
	top1, _, err := cls.Accuracy(results[0].Params, model.All(ds), 1)
	if err != nil {
		t.Fatal(err)
	}
	if top1 < 0.8 {
		t.Errorf("BSP top-1 after training = %v", top1)
	}
	if results[0].Contributed != 60 {
		t.Errorf("BSP contributed = %d, want 60", results[0].Contributed)
	}
}

func TestRNAWorkerTrains(t *testing.T) {
	const n = 4
	cfg, ds := blobConfig(t, 80)
	ctrl, err := controller.New(controller.PowerOfChoices, n, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	results := trainCluster(t, n, func(m transport.Mesh) (*Result, error) {
		return RunRNAWorker(m, ctrl, cfg)
	})
	// RNA invariant: every rank applies the same reduced update, so the
	// final parameters are identical everywhere.
	for r := 1; r < n; r++ {
		if !results[r].Params.Equal(results[0].Params, 1e-9) {
			t.Fatalf("rank %d params diverged from rank 0", r)
		}
	}
	cls := cfg.Model.(model.Classifier)
	top1, _, err := cls.Accuracy(results[0].Params, model.All(ds), 1)
	if err != nil {
		t.Fatal(err)
	}
	if top1 < 0.8 {
		t.Errorf("RNA top-1 after training = %v", top1)
	}
	// Contribution accounting is consistent.
	for r, res := range results {
		if res.Contributed+res.NullContribs != 80 {
			t.Errorf("rank %d contributions %d+%d != 80", r, res.Contributed, res.NullContribs)
		}
	}
}

func TestRNAWorkerWithStraggler(t *testing.T) {
	const n = 3
	cfg, _ := blobConfig(t, 40)
	// Rank 2 is persistently slow.
	mkCfg := func(rank int) TrainConfig {
		c := cfg
		if rank == 2 {
			c.SlowDown = func(int, int) time.Duration { return 3 * time.Millisecond }
		}
		return c
	}
	ctrl, err := controller.New(controller.PowerOfChoices, n, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	results := trainCluster(t, n, func(m transport.Mesh) (*Result, error) {
		return RunRNAWorker(m, ctrl, mkCfg(m.Rank()))
	})
	for r := 1; r < n; r++ {
		if !results[r].Params.Equal(results[0].Params, 1e-9) {
			t.Fatalf("rank %d params diverged", r)
		}
	}
	// The straggler must have produced at least one null contribution or
	// accumulated gradients (evidence the non-blocking path exercised);
	// total synchronizations still completed.
	if !results[0].Params.IsFinite() {
		t.Error("non-finite parameters")
	}
}

// TestRNAStaleDroppedSurfaced: a rank whose first gradient lands η parameter
// versions late has it discarded by the staleness bound, and every RNA loop
// reports that in Result.StaleDropped. No rank can have contributed and
// dropped more gradients than it computed.
func TestRNAStaleDroppedSurfaced(t *testing.T) {
	const n, iters = 3, 40
	variants := map[string]func(*TrainConfig){
		"replicated": func(*TrainConfig) {},
		"sharded":    func(c *TrainConfig) { c.ShardedUpdate = true },
	}
	for name, variant := range variants {
		cfg, _ := blobConfig(t, iters)
		variant(&cfg)
		// Every step takes a millisecond and η is 2. The bounded-delay gate
		// lets synchronizations 0 and 1 fire without rank 2
		// (controller.Floor(1, 2) = 0 gradients) and holds synchronization 2
		// until its first gradient arrives at 12 ms. That gradient read the
		// initial parameters (stamp 0) and the first synchronization that can
		// still take it is 2: τ = 2 = η, dropped. From then on rank 2 reads
		// current parameters and keeps its gradients.
		cfg.SlowDown = func(rank, iter int) time.Duration {
			if rank == 2 && iter == 0 {
				return 12 * time.Millisecond
			}
			return time.Millisecond
		}
		ctrl, err := controller.New(controller.PowerOfChoices, n, 2, 9)
		if err != nil {
			t.Fatal(err)
		}
		results := trainCluster(t, n, func(m transport.Mesh) (*Result, error) {
			return RunRNAWorker(m, ctrl, cfg)
		})
		if results[2].StaleDropped < 1 {
			t.Errorf("%s: straggler reports %d stale gradients dropped, want ≥ 1", name, results[2].StaleDropped)
		}
		for r, res := range results {
			if res.StaleDropped < 0 || res.Contributed+res.StaleDropped > iters {
				t.Errorf("%s rank %d: contributed %d + dropped %d of %d computed",
					name, r, res.Contributed, res.StaleDropped, iters)
			}
		}
	}
}

// TestRNASlowRankIsNotStarved: staleness is counted in parameter versions, so
// a rank that is slow for the whole run computes from fresh parameters at its
// own pace and keeps contributing. Counted in local steps, as it was, rank 3
// falls η steps behind the synchronization index within a few milliseconds
// and loses every gradient it computes from there on.
func TestRNASlowRankIsNotStarved(t *testing.T) {
	const n, iters, eta = 4, 60, 4
	cfg, _ := blobConfig(t, iters)
	cfg.StalenessBound = eta
	cfg.SlowDown = func(rank, _ int) time.Duration {
		if rank == 3 {
			return 3 * time.Millisecond
		}
		return time.Millisecond
	}
	ctrl, err := controller.New(controller.PowerOfChoices, n, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	results := trainCluster(t, n, func(m transport.Mesh) (*Result, error) {
		return RunRNAWorker(m, ctrl, cfg)
	})
	slow := results[3]
	if slow.StaleDropped > eta || slow.Contributed < iters*8/10 {
		t.Errorf("slow rank: dropped %d (want ≤ %d), contributed to %d of %d synchronizations (want ≥ %d)",
			slow.StaleDropped, eta, slow.Contributed, iters, iters*8/10)
	}
	taken := 0
	for _, c := range slow.Staleness {
		taken += c
	}
	if len(slow.Staleness) != eta || taken+slow.StaleDropped > iters {
		t.Errorf("slow rank: staleness histogram %v with %d dropped of %d computed", slow.Staleness, slow.StaleDropped, iters)
	}
	for r := 1; r < n; r++ {
		if !results[r].Params.Equal(results[0].Params, 0) {
			t.Fatalf("rank %d params diverged", r)
		}
		if results[r].EmptySyncs != results[0].EmptySyncs {
			t.Errorf("rank %d counted %d empty synchronizations, rank 0 %d", r, results[r].EmptySyncs, results[0].EmptySyncs)
		}
	}
}

func TestRNAFasterThanBSPWithStraggler(t *testing.T) {
	// With a hard straggler, RNA's wall-clock should beat BSP's on the
	// same workload: BSP waits for the straggler every iteration, RNA
	// only when probed into the critical path.
	const n, iters = 3, 30
	mk := func(rank int) func(int, int) time.Duration {
		if rank == 2 {
			return func(int, int) time.Duration { return 4 * time.Millisecond }
		}
		return nil
	}

	cfgB, _ := blobConfig(t, iters)
	ctrlB, err := controller.New(controller.AllReady, n, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	bsp := trainCluster(t, n, func(m transport.Mesh) (*Result, error) {
		c := cfgB
		c.SlowDown = mk(m.Rank())
		return RunBSPWorker(m, ctrlB, c)
	})

	cfgR, _ := blobConfig(t, iters)
	ctrlR, err := controller.New(controller.PowerOfChoices, n, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	rna := trainCluster(t, n, func(m transport.Mesh) (*Result, error) {
		c := cfgR
		c.SlowDown = mk(m.Rank())
		return RunRNAWorker(m, ctrlR, c)
	})

	// Compare the fastest rank's elapsed time under each scheme: under
	// BSP even rank 0 is dragged to straggler pace.
	if bsp[0].Elapsed < rna[0].Elapsed {
		t.Logf("note: BSP %v < RNA %v (timing-sensitive, not failing)", bsp[0].Elapsed, rna[0].Elapsed)
	}
	// Robust check: BSP rank 0 cannot be faster than iters * straggler
	// delay, while RNA rank 0 typically is.
	minBSP := time.Duration(iters) * 4 * time.Millisecond
	if bsp[0].Elapsed < minBSP {
		t.Errorf("BSP rank 0 finished in %v, impossible with a %v straggler floor", bsp[0].Elapsed, minBSP)
	}
}

func TestRNAWorkerOverTCP(t *testing.T) {
	const n = 3
	cfg, _ := blobConfig(t, 20)
	meshes, err := transport.NewTCPCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, m := range meshes {
			_ = m.Close()
		}
	}()
	ctrl, err := controller.New(controller.PowerOfChoices, n, 2, 21)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, m := range meshes {
		i, m := i, m
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = RunRNAWorker(m, ctrl, cfg)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	for r := 1; r < n; r++ {
		if !results[r].Params.Equal(results[0].Params, 1e-9) {
			t.Fatalf("rank %d params diverged over TCP", r)
		}
	}
}

func TestTrainConfigValidation(t *testing.T) {
	net, err := transport.NewLocalNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	mesh, err := net.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := controller.New(controller.Solo, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunRNAWorker(mesh, ctrl, TrainConfig{}); err == nil {
		t.Error("empty config should error")
	}
	cfg, _ := blobConfig(t, 0)
	if _, err := RunBSPWorker(mesh, ctrl, cfg); err == nil {
		t.Error("0 iterations should error")
	}
	cfg2, _ := blobConfig(t, 5)
	cfg2.Batch = nil
	if _, err := RunRNAWorker(mesh, ctrl, cfg2); err == nil {
		t.Error("nil batch should error")
	}
	cfg3, _ := blobConfig(t, 5)
	cfg3.LR = -1
	if _, err := RunRNAWorker(mesh, ctrl, cfg3); err == nil {
		t.Error("negative lr should error")
	}
	cfg4, _ := blobConfig(t, 5)
	cfg4.Algorithm = 2 // a schedule that was removed
	// Rejected by validate, not by the first collective after the barrier.
	if _, err := RunBSPWorker(mesh, ctrl, cfg4); err == nil || !strings.HasPrefix(err.Error(), "core:") {
		t.Errorf("unknown collective algorithm: error %v, want one from validate", err)
	}
}

func TestRNASingleWorker(t *testing.T) {
	// Degenerate single-rank cluster: RNA reduces to plain SGD.
	cfg, ds := blobConfig(t, 80)
	ctrl, err := controller.New(controller.PowerOfChoices, 1, 2, 31)
	if err != nil {
		t.Fatal(err)
	}
	results := trainCluster(t, 1, func(m transport.Mesh) (*Result, error) {
		return RunRNAWorker(m, ctrl, cfg)
	})
	cls := cfg.Model.(model.Classifier)
	top1, _, err := cls.Accuracy(results[0].Params, model.All(ds), 1)
	if err != nil {
		t.Fatal(err)
	}
	if top1 < 0.75 {
		t.Errorf("single-worker RNA top-1 = %v", top1)
	}
}

// failingModel fails its failAt-th Gradient call (only the compute thread
// calls Gradient, so the counter needs no lock).
type failingModel struct {
	model.Model
	calls, failAt int
}

var errGradient = errors.New("injected gradient failure")

func (m *failingModel) Gradient(params, grad tensor.Vector, batch []int) (float64, error) {
	if m.calls++; m.calls == m.failAt {
		return 0, errGradient
	}
	return m.Model.Gradient(params, grad, batch)
}

// TestLocalComputeErrorStopsWorker: when the compute thread fails, the
// communication thread is parked on a trigger this rank will never announce;
// the worker must still return, with the compute error wrapped in its rank
// and iteration, instead of hanging.
func TestLocalComputeErrorStopsWorker(t *testing.T) {
	workers := map[string]func(transport.Mesh, *controller.Controller, TrainConfig) (*Result, error){
		"rna":   RunRNAWorker,
		"eager": RunEagerWorker,
	}
	for name, run := range workers {
		cfg, _ := blobConfig(t, 10)
		cfg.Model = &failingModel{Model: cfg.Model, failAt: 4}
		net, err := transport.NewLocalNetwork(1)
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := controller.New(controller.AllReady, 1, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := run(net.Endpoints()[0], ctrl, cfg)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, errGradient) || !strings.Contains(err.Error(), "rank 0 iter 3") {
				t.Errorf("%s: err = %v, want the gradient failure wrapped with rank 0 iter 3", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%s: worker still blocked 5 s after its compute thread failed", name)
		}
		_ = net.Close()
	}
}
