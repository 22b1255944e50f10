package trainsim

import (
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/workload"
)

// benchConfig is the fixed workload measured by the engine benchmarks: an MLP
// heavy enough that gradient computation dominates the round bookkeeping.
func benchConfig(b *testing.B, strategy Strategy, parallelism int) Config {
	b.Helper()
	src := rng.New(11)
	ds, err := data.Blobs(src, 10, 32, 100, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	m, err := model.NewMLP(ds, 32)
	if err != nil {
		b.Fatal(err)
	}
	return Config{
		Strategy:      strategy,
		Workers:       8,
		Model:         m,
		Dataset:       ds,
		BatchSize:     32,
		LR:            0.1,
		Momentum:      0.9,
		Step:          workload.Balanced{Base: 100 * time.Millisecond, Jitter: 0.05},
		Spec:          workload.ResNet56(),
		Comm:          workload.DefaultComm(),
		MaxIterations: 15,
		EvalEvery:     1 << 30,
		Seed:          23,
		Parallelism:   parallelism,
	}
}

func benchRun(b *testing.B, strategy Strategy, parallelism int) {
	cfg := benchConfig(b, strategy, parallelism)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainsimBSP(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchRun(b, Horovod, 1) })
	b.Run("parallel", func(b *testing.B) { benchRun(b, Horovod, 0) })
}

func BenchmarkTrainsimRNA(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchRun(b, RNA, 1) })
	b.Run("parallel", func(b *testing.B) { benchRun(b, RNA, 0) })
}
