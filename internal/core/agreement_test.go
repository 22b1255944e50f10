package core

import (
	"fmt"
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

// TestRuntimeAgreesWithSimulator runs the benchmark's hetero_rna inputs (4
// ranks, MLP 64→64→8, batch 32, uniform 0–50 ms per rank per step,
// PowerOfChoices q = 2, 80 synchronizations) at two staleness bounds through
// trainsim in virtual time and through RunRNAWorker with real sleeps, and
// holds the two protocols to the same participation: contributors per
// synchronization and the share of gradients dropped, both over the gradients
// a synchronization reached (taken or dropped). This compares
// distributions, not runs: the probe draws and the sleeps differ. At η = 8
// nothing is dropped on either side; η = 2 is the row the dropped share
// bites on.
//
// One difference is known and has a direction. A probed rank of the
// simulator answers with a gradient that lands after the synchronization
// could first fire; the runtime fires on any gradient no synchronization has
// taken. So the simulator fires on fewer ready ranks: it reads fewer
// contributors and drops more, never the reverse. Each gap is held to that
// side: the runtime's contributors exceed the simulator's by at most 0.6
// (ten runs each with and without -race read 0.15–0.36 at η = 8 and 0.25–0.48
// at η = 2), and the simulator's dropped share exceeds the runtime's by at
// most 0.08 (0.01–0.06 at η = 2). A simulator whose probe took any untaken
// gradient read 2.98 against 3.00 contributors and 0.14 against 0.12 dropped.
// While the simulator counted staleness in local steps it dropped 0.04
// against the runtime's 0.11 at η = 2, the wrong side; when the runtime
// announced local steps and counted staleness in them it read 1.9
// contributors against the simulator's 2.75.
func TestRuntimeAgreesWithSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("two seconds of real sleeps per bound")
	}
	for _, eta := range []int{8, 2} {
		t.Run(fmt.Sprintf("eta=%d", eta), func(t *testing.T) { agreeWithSimulator(t, eta) })
	}
}

func agreeWithSimulator(t *testing.T, eta int) {
	const n, syncs, batch = 4, 80, 32
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
	taken := 0
	for _, c := range tau {
		taken += c
	}
	runDropped := float64(dropped) / float64(dropped+taken)
	t.Logf("contributors per synchronization: simulator %.2f, runtime %.2f; dropped share %.3f, %.3f; runtime: %d empty synchronizations, taken by τ %v",
		simPerSync, runPerSync, sim.DroppedRate, runDropped, results[0].EmptySyncs, tau)
	if gap := runPerSync - simPerSync; gap < -0.1 || gap > 0.6 {
		t.Errorf("contributors per synchronization: simulator %.2f, runtime %.2f, want the runtime above by at most 0.6", simPerSync, runPerSync)
	}
	if gap := sim.DroppedRate - runDropped; gap < -0.02 || gap > 0.08 {
		t.Errorf("dropped share: simulator %.3f, runtime %.3f, want the simulator above by at most 0.08", sim.DroppedRate, runDropped)
	}
}
