package rna

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper (run with `go test -bench=. -benchmem`). Each benchmark
// executes the corresponding experiment at a reduced scale and reports its
// headline metrics via b.ReportMetric, so the paper-vs-measured comparison
// in EXPERIMENTS.md can be regenerated from a single bench run. The
// full-scale tables are printed by `go run ./cmd/rnasim -experiment all`.

import (
	"testing"

	"repro/internal/collective"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// benchOpts keeps benchmark iterations fast while preserving every
// experiment's qualitative shape.
var benchOpts = ExperimentOptions{Seed: 1, Scale: 0.1}

// runExperimentBench executes one experiment per b.N iteration and reports
// selected metrics from the last run.
func runExperimentBench(b *testing.B, id string, metrics []string) {
	b.Helper()
	var rep *ExperimentReport
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = RunExperiment(id, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range metrics {
		if v, ok := rep.Metrics[m]; ok {
			b.ReportMetric(v, m)
		}
	}
}

func BenchmarkFig1Breakdown(b *testing.B) {
	runExperimentBench(b, "fig1", []string{
		"waitfrac/ResNet56/w1", "waitfrac/ResNet56/w3",
	})
}

func BenchmarkFig2LoadImbalance(b *testing.B) {
	runExperimentBench(b, "fig2", []string{"video/mean", "batchms/mean"})
}

func BenchmarkFig3Timeline(b *testing.B) {
	runExperimentBench(b, "fig3", []string{"time/Horovod", "time/RNA"})
}

func BenchmarkFig4CrossIteration(b *testing.B) {
	runExperimentBench(b, "fig4", []string{"nullrate", "trainacc"})
}

func BenchmarkFig6Speedup(b *testing.B) {
	runExperimentBench(b, "fig6", []string{
		"speedup/RNA/ResNet50", "speedup/RNA/VGG16", "speedup/RNA/LSTM",
		"speedup/RNA-H/ResNet50-M",
	})
}

func BenchmarkFig7Convergence(b *testing.B) {
	runExperimentBench(b, "fig7", []string{"time/RNA", "time/Horovod", "acc/RNA"})
}

func BenchmarkFig8Transformer(b *testing.B) {
	runExperimentBench(b, "fig8", []string{
		"periter/homogeneous/RNA", "overall/homogeneous/RNA",
		"periter/heterogeneous/RNA", "overall/heterogeneous/RNA",
	})
}

func BenchmarkFig9Scalability(b *testing.B) {
	runExperimentBench(b, "fig9", []string{
		"throughput/4/RNA", "throughput/32/RNA", "throughput/32/Horovod",
	})
}

func BenchmarkFig10Choices(b *testing.B) {
	runExperimentBench(b, "fig10", []string{
		"median/q1", "median/q2", "ratio/q1q2",
	})
}

func BenchmarkTable3TrainAccuracy(b *testing.B) {
	runExperimentBench(b, "table3", []string{
		"acc/Horovod/ResNet", "acc/RNA/ResNet", "acc/AD-PSGD/ResNet",
	})
}

func BenchmarkTable4Validation(b *testing.B) {
	runExperimentBench(b, "table4", []string{
		"iters/ResNet50/Horovod", "iters/ResNet50/RNA",
		"top1/ResNet50/RNA", "top1/ResNet50/AD-PSGD",
	})
}

func BenchmarkTable5TransmissionCost(b *testing.B) {
	runExperimentBench(b, "table5", []string{
		"measured/ResNet50", "measured/VGG16", "measured/LSTM", "measured/Transformer",
	})
}

func BenchmarkAblationProbes(b *testing.B) {
	runExperimentBench(b, "ablation-probes", []string{"time/q1", "time/q2", "time/q8"})
}

func BenchmarkAblationStalenessBound(b *testing.B) {
	runExperimentBench(b, "ablation-staleness", []string{"acc/b1", "acc/b2", "acc/b8"})
}

func BenchmarkAblationLRScaling(b *testing.B) {
	runExperimentBench(b, "ablation-lrscale", []string{"loss/scaled", "loss/unscaled"})
}

func BenchmarkAblationRingVsNaive(b *testing.B) {
	runExperimentBench(b, "ablation-ring", []string{
		"advantage/VGG16/8", "advantage/VGG16/32",
	})
}

// BenchmarkRingAllReduce measures the real (goroutine) ring AllReduce on
// the in-memory mesh: 4 ranks, 100k-element gradients.
func BenchmarkRingAllReduce(b *testing.B) {
	const n, dim = 4, 100_000
	net, err := transport.NewLocalNetwork(n)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	vecs := make([]tensor.Vector, n)
	for i := range vecs {
		vecs[i] = tensor.New(dim)
	}
	b.SetBytes(int64(dim * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := make(chan error, n)
		for r, m := range net.Endpoints() {
			r, m := r, m
			go func() {
				done <- collective.RingAllReduce(m, int64(i), vecs[r], collective.OpAverage)
			}()
		}
		for r := 0; r < n; r++ {
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPartialAllReduce measures the partial collective on the ring with
// null contributors.
func BenchmarkPartialAllReduce(b *testing.B) {
	const n, dim = 4, 100_000
	net, err := transport.NewLocalNetwork(n)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	vecs := make([]tensor.Vector, n)
	for i := range vecs {
		vecs[i] = tensor.New(dim)
	}
	ring := collective.Options{Algorithm: collective.AlgoRing}
	b.SetBytes(int64(dim * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := make(chan error, n)
		for r, m := range net.Endpoints() {
			r, m := r, m
			go func() {
				pr, err := collective.PartialAllReduceOpts(m, int64(i), vecs[r], r%2 == 0, ring)
				pr.Release()
				done <- err
			}()
		}
		for r := 0; r < n; r++ {
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkGradientLogistic measures the gradient kernel feeding every
// simulation.
func BenchmarkGradientLogistic(b *testing.B) {
	src := rng.New(1)
	ds, err := benchBlobs(src)
	if err != nil {
		b.Fatal(err)
	}
	m, err := model.NewLogistic(ds)
	if err != nil {
		b.Fatal(err)
	}
	params := tensor.New(m.Dim())
	m.Init(src, params)
	grad := tensor.New(m.Dim())
	batch := ds.Batch(src, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Gradient(params, grad, batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatedRNAIteration measures one simulated RNA synchronization
// round end to end (8 workers, real gradient math).
func BenchmarkSimulatedRNAIteration(b *testing.B) {
	src := rng.New(1)
	ds, err := benchBlobs(src)
	if err != nil {
		b.Fatal(err)
	}
	m, err := model.NewLogistic(ds)
	if err != nil {
		b.Fatal(err)
	}
	cfg := SimulationConfig{
		Strategy: RNA, Workers: 8, Model: m, Dataset: ds,
		BatchSize: 32, LR: 0.3, Momentum: 0.9,
		Step: simStep{}, Spec: simSpec(),
		MaxIterations: b.N, EvalEvery: 1 << 30, Seed: 3,
	}
	b.ResetTimer()
	if _, err := Simulate(cfg); err != nil {
		b.Fatal(err)
	}
}
