package core

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/data"
	"repro/internal/hetero"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/trainsim"
	"repro/internal/transport"
	"repro/internal/workload"
)

// TestRuntimeAgreesWithSimulator runs one configuration, the benchmark's
// hetero_rna inputs (4 ranks, MLP 64→64→8, batch 32, uniform 0–50 ms per rank
// per step, PowerOfChoices q = 2, η = 8, 80 synchronizations), through
// trainsim in virtual time and through RunRNAWorker with real sleeps, and
// holds the two protocols to the same participation: contributors per
// synchronization within 0.5, dropped share within 0.05. The delay streams
// differ (the simulator draws its own), so this compares distributions, not
// runs. When the runtime announced local steps and counted staleness in them
// it read 1.9 contributors against the simulator's 2.75.
func TestRuntimeAgreesWithSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("two seconds of real sleeps")
	}
	const n, syncs, eta, batch = 4, 80, 8, 32
	delay := hetero.UniformRandom{Lo: 0, Hi: 50 * time.Millisecond}
	ds, err := data.Blobs(rng.New(3), 8, 64, 128, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	mlp, err := model.NewMLP(ds, 64)
	if err != nil {
		t.Fatal(err)
	}

	// The simulator prices a step at what one costs on this host: the median
	// of 21 gradients of this model and batch, about 0.1 ms, and about 6 ms
	// under -race, where a fixed 0.1 ms left it reading 0.4 contributors per
	// synchronization below the runtime. A synchronization of the 4 744
	// parameters over the in-memory mesh takes about 0.1 ms. Priced so, the
	// delays are all that is left, as they are on the runtime.
	params, grad := tensor.New(mlp.Dim()), tensor.New(mlp.Dim())
	mlp.Init(rng.New(11), params)
	sample := ds.Batch(rng.New(11), batch)
	steps := make([]time.Duration, 21)
	for i := range steps {
		start := time.Now()
		if _, err := mlp.Gradient(params, grad, sample); err != nil {
			t.Fatal(err)
		}
		steps[i] = time.Since(start)
	}
	slices.Sort(steps)
	sim, err := trainsim.Run(trainsim.Config{
		Strategy: trainsim.RNA, Workers: n, Model: mlp, Dataset: ds, BatchSize: batch,
		LR: 0.05, Momentum: 0.9, Probes: 2, StalenessBound: eta, MaxIterations: syncs, Seed: 11,
		Step:      workload.Balanced{Base: steps[len(steps)/2]},
		Injector:  delay,
		Spec:      workload.ModelSpec{Name: "mlp", Params: int64(mlp.Dim()), BytesPerParam: 8, Layers: 2},
		Comm:      workload.CommModel{Latency: 10 * time.Microsecond, Bandwidth: 1e9, PCIeBandwidth: 1e10},
		DirectGPU: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	delays := make([]*rng.Source, n)
	for r := range delays {
		delays[r] = rng.New(11).Split(300 + r)
	}
	cfg := TrainConfig{
		Model: mlp, Batch: func(s *rng.Source) []int { return ds.Batch(s, batch) },
		LR: 0.05, Momentum: 0.9, Iterations: syncs, StalenessBound: eta, Seed: 11,
		// Each rank's compute thread is the only reader of its stream.
		SlowDown: func(rank, k int) time.Duration { return delay.Delay(delays[rank], rank, k) },
	}
	ctrl, err := controller.New(controller.PowerOfChoices, n, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	results := trainCluster(t, n, func(m transport.Mesh) (*Result, error) {
		return RunRNAWorker(m, ctrl, cfg)
	})
	contributed, dropped := 0, 0
	tau := make([]int, eta)
	for _, res := range results {
		contributed += res.Contributed
		dropped += res.StaleDropped
		for i, c := range res.Staleness {
			tau[i] += c
		}
	}

	simPerSync := (1 - sim.NullContribRate) * n
	runPerSync := float64(contributed) / syncs
	runDropped := float64(dropped) / (n * syncs)
	t.Logf("contributors per synchronization: simulator %.2f, runtime %.2f; dropped share %.3f, %.3f; runtime: %d empty synchronizations, taken by τ %v",
		simPerSync, runPerSync, sim.DroppedRate, runDropped, results[0].EmptySyncs, tau)
	if math.Abs(simPerSync-runPerSync) > 0.5 {
		t.Errorf("contributors per synchronization: simulator %.2f, runtime %.2f, want within 0.5", simPerSync, runPerSync)
	}
	if math.Abs(sim.DroppedRate-runDropped) > 0.05 {
		t.Errorf("dropped share: simulator %.3f, runtime %.3f, want within 0.05", sim.DroppedRate, runDropped)
	}
}
