package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/collective"
	"repro/internal/controller"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// mlpConfig builds a TrainConfig on an MLP (a LayeredModel, so the overlap
// reducer gets a genuine multi-span emission plan).
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

// runOverlapCluster trains cfg on every rank of a fresh cluster (in-memory
// or TCP) under the given protocol and returns per-rank results.
func runOverlapCluster(t *testing.T, n int, tcp bool, protocol string, cfg TrainConfig) []*Result {
	t.Helper()
	var meshes []transport.Mesh
	if tcp {
		tcpMeshes, err := transport.NewTCPCluster(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range tcpMeshes {
			meshes = append(meshes, m)
		}
		defer func() {
			for _, m := range tcpMeshes {
				_ = m.Close()
			}
		}()
	} else {
		net, err := transport.NewLocalNetwork(n)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = net.Close() }()
		meshes = net.Endpoints()
	}
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
	for i, m := range meshes {
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

// TestOverlapMatchesSequentialBits is the bucketed stage's acceptance test:
// for BSP and RNA, on in-memory and TCP meshes, with fp64 and f16 wires, over
// the replicated reduction (auto-selected and pinned-ring schedule) and the
// sharded one, the overlapped stage produces
// bitwise identical parameters to (a) the same bucket plan launched serially
// and (b) the unbucketed stage when the plan collapses to one bucket.
func TestOverlapMatchesSequentialBits(t *testing.T) {
	// smallFusion keeps every emission span its own bucket (multi-bucket
	// plan); hugeFusion collapses the plan to a single whole-vector bucket.
	const smallFusion = 8
	const hugeFusion = 1 << 30
	type matrix struct {
		ranks []int
		tcp   bool
		iters int
	}
	cases := []matrix{
		{ranks: []int{2, 3, 5, 8}, tcp: false, iters: 10},
		{ranks: []int{2, 4}, tcp: true, iters: 6},
	}
	reductions := []struct {
		name  string
		apply func(c *TrainConfig, n int)
	}{
		{"replicated", func(*TrainConfig, int) {}},
		// A pinned schedule must reach the bucket reductions too, or the
		// one-bucket run and the unbucketed run reduce differently.
		{"ring", func(c *TrainConfig, _ int) { c.Algorithm = collective.AlgoRing }},
		{"sharded", func(c *TrainConfig, _ int) { c.ShardedUpdate = true }},
	}
	for _, protocol := range []string{"bsp", "rna"} {
		for _, red := range reductions {
			for _, wire := range []tensor.Dtype{tensor.F64, tensor.F16} {
				for _, mx := range cases {
					for _, n := range mx.ranks {
						transportName := "mem"
						if mx.tcp {
							transportName = "tcp"
						}
						name := fmt.Sprintf("%s/%s/%s/%v/n=%d", protocol, red.name, transportName, wire, n)
						t.Run(name, func(t *testing.T) {
							t.Parallel()
							cfg := mlpConfig(t, 12, 24, mx.iters)
							cfg.Compression = wire
							red.apply(&cfg, n)

							legacy := cfg
							run := func(c TrainConfig) []*Result {
								return runOverlapCluster(t, n, mx.tcp, protocol, c)
							}

							serial := cfg
							serial.Overlap, serial.OverlapSerial, serial.FusionBytes = true, true, smallFusion
							overlapped := cfg
							overlapped.Overlap, overlapped.FusionBytes = true, smallFusion
							assertBitsEqual(t, "overlapped vs serial", run(overlapped), run(serial))

							oneBucket := cfg
							oneBucket.Overlap, oneBucket.FusionBytes = true, hugeFusion
							assertBitsEqual(t, "single-bucket vs legacy", run(oneBucket), run(legacy))
						})
					}
				}
			}
		}
	}
}

// TestOverlapMultiBlockMLP exercises an MLP big enough that the layered
// backward splits W1 into multiple emission blocks, and checks that the
// overlapped run matches the serial schedule bit for bit — over the
// replicated and the sharded reduction.
func TestOverlapMultiBlockMLP(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		cfg := mlpConfig(t, 128, 256, 4) // W1 = 32768 elems -> 2 blocks
		cfg.ShardedUpdate = sharded
		lm := cfg.Model.(model.LayeredModel)
		if spans := lm.GradientBuckets(); len(spans) < 4 {
			t.Fatalf("expected a multi-block plan, got %d spans", len(spans))
		}
		serial := cfg
		serial.Overlap, serial.OverlapSerial, serial.FusionBytes = true, true, 8
		overlapped := cfg
		overlapped.Overlap, overlapped.FusionBytes = true, 8
		a := runOverlapCluster(t, 2, false, "bsp", overlapped)
		b := runOverlapCluster(t, 2, false, "bsp", serial)
		assertBitsEqual(t, "multi-block overlapped vs serial", a, b)
		if a[0].MaxInFlight < 1 {
			t.Errorf("MaxInFlight = %d, overlap reducer never launched", a[0].MaxInFlight)
		}
		// Backprop launches the buckets back to back without waiting for any,
		// so on a multi-bucket plan at least two reduce-scatters overlap.
		if sharded && a[0].MaxInFlight < 2 {
			t.Errorf("sharded MaxInFlight = %d, want >= 2", a[0].MaxInFlight)
		}
		t.Logf("multi-block MaxInFlight = %d (sharded=%v)", a[0].MaxInFlight, sharded)
	}
}

// TestOverlapLossesMatch: the per-step training losses of the overlapped
// and legacy workers agree bitwise on a single-bucket plan (same batches,
// same parameter trajectory).
func TestOverlapLossesMatch(t *testing.T) {
	cfg := mlpConfig(t, 12, 24, 8)
	one := cfg
	one.Overlap, one.FusionBytes = true, 1<<30
	a := runOverlapCluster(t, 3, false, "bsp", one)
	b := runOverlapCluster(t, 3, false, "bsp", cfg)
	rna := runOverlapCluster(t, 3, false, "rna", one)
	for r := range a {
		// Result fields follow the stage that ran, not the loop: optimizer
		// state is reported with and without bucketing, in-flight buckets
		// only with.
		if a[r].OptStateBytes == 0 || a[r].OptStateBytes != b[r].OptStateBytes || rna[r].OptStateBytes != b[r].OptStateBytes {
			t.Errorf("rank %d: OptStateBytes bsp-overlap %d, rna-overlap %d, unbucketed %d",
				r, a[r].OptStateBytes, rna[r].OptStateBytes, b[r].OptStateBytes)
		}
		if a[r].MaxInFlight < 1 || rna[r].MaxInFlight < 1 || b[r].MaxInFlight != 0 {
			t.Errorf("rank %d: MaxInFlight bsp-overlap %d, rna-overlap %d, unbucketed %d",
				r, a[r].MaxInFlight, rna[r].MaxInFlight, b[r].MaxInFlight)
		}
		if len(a[r].Losses) != len(b[r].Losses) {
			t.Fatalf("rank %d: %d vs %d losses", r, len(a[r].Losses), len(b[r].Losses))
		}
		for i := range a[r].Losses {
			if math.Float64bits(a[r].Losses[i]) != math.Float64bits(b[r].Losses[i]) {
				t.Fatalf("rank %d loss %d: %v vs %v", r, i, a[r].Losses[i], b[r].Losses[i])
			}
		}
	}
}
