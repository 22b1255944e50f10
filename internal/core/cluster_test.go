package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/controller"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/transport"
)

// mlpConfig builds a TrainConfig on an MLP.
func mlpConfig(t *testing.T, features, hidden, iters int) TrainConfig {
	t.Helper()
	src := rng.New(99)
	ds, err := data.Blobs(src, 4, features, 30, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewMLP(ds, hidden)
	if err != nil {
		t.Fatal(err)
	}
	return TrainConfig{
		Model:      m,
		Batch:      func(s *rng.Source) []int { return ds.Batch(s, 12) },
		LR:         0.1,
		Momentum:   0.9,
		Iterations: iters,
		// Bound 1 + AllReady firing pins the compute thread's snapshot to
		// exactly the post-round-(k-1) parameters, making the RNA trajectory
		// deterministic run to run — required for bitwise comparison.
		StalenessBound: 1,
		Seed:           314,
	}
}

// runCluster trains cfg on every rank of a fresh in-memory cluster under the
// given protocol and returns per-rank results.
func runCluster(t *testing.T, n int, protocol string, cfg TrainConfig) []*Result {
	t.Helper()
	net, err := transport.NewLocalNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	// AllReady firing makes every rank contribute every round, so the RNA
	// trajectory is a deterministic function of the config — required for
	// run-vs-run bitwise comparison.
	ctrl, err := controller.New(controller.AllReady, n, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, m := range net.Endpoints() {
		i, m := i, m
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch protocol {
			case "bsp":
				results[i], errs[i] = RunBSPWorker(m, ctrl, cfg)
			case "rna":
				results[i], errs[i] = RunRNAWorker(m, ctrl, cfg)
			default:
				errs[i] = fmt.Errorf("unknown protocol %q", protocol)
			}
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

// assertBitsEqual fails unless every rank of both runs holds bitwise
// identical parameters.
func assertBitsEqual(t *testing.T, label string, a, b []*Result) {
	t.Helper()
	for r := range a {
		pa, pb := a[r].Params, b[r].Params
		if len(pa) != len(pb) {
			t.Fatalf("%s: rank %d dim %d vs %d", label, r, len(pa), len(pb))
		}
		for j := range pa {
			if math.Float64bits(pa[j]) != math.Float64bits(pb[j]) {
				t.Fatalf("%s: rank %d param %d: %v vs %v", label, r, j, pa[j], pb[j])
			}
		}
	}
	for r := 1; r < len(a); r++ {
		for j := range a[0].Params {
			if math.Float64bits(a[r].Params[j]) != math.Float64bits(a[0].Params[j]) {
				t.Fatalf("%s: rank %d diverged from rank 0 at param %d", label, r, j)
			}
		}
	}
}
