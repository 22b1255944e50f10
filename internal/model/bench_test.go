package model

import (
	"testing"

	"repro/internal/data"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// benchBatch is the mini-batch size the gradient benchmarks use; it matches
// the per-worker batch size of the experiment suite.
const benchBatch = 64

func benchGradient(b *testing.B, m Model, batch []int) {
	b.Helper()
	src := rng.New(99)
	params := tensor.New(m.Dim())
	m.Init(src, params)
	grad := tensor.New(m.Dim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Gradient(params, grad, batch); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDataset(b *testing.B, classes, features, perClass int) *data.Dataset {
	b.Helper()
	ds, err := data.Blobs(rng.New(7), classes, features, perClass, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// The gradient benchmarks run two geometries each: the experiment suite's
// (32 features, 10 classes, batch 64) and the end-to-end benchmark's, i.e.
// dense_* for the MLP (256→512→16, batch 4: a 1.1 MB gradient) and
// latency_bsp for the logistic model (64×8, batch 8).

func BenchmarkModelGradientLogistic(b *testing.B) {
	for _, g := range []struct {
		name                               string
		classes, features, perClass, batch int
	}{{"suite", 10, 32, 100, benchBatch}, {"latency", 8, 64, 128, 8}} {
		b.Run(g.name, func(b *testing.B) {
			ds := benchDataset(b, g.classes, g.features, g.perClass)
			m, err := NewLogistic(ds)
			if err != nil {
				b.Fatal(err)
			}
			benchGradient(b, m, ds.Batch(rng.New(3), g.batch))
		})
	}
}

func BenchmarkModelGradientMLP(b *testing.B) {
	for _, g := range []struct {
		name                                       string
		classes, features, hidden, perClass, batch int
	}{{"suite", 10, 32, 64, 100, benchBatch}, {"dense", 16, 256, 512, 64, 4}} {
		b.Run(g.name, func(b *testing.B) {
			ds := benchDataset(b, g.classes, g.features, g.perClass)
			m, err := NewMLP(ds, g.hidden)
			if err != nil {
				b.Fatal(err)
			}
			benchGradient(b, m, ds.Batch(rng.New(3), g.batch))
		})
	}
}

func BenchmarkModelLossMLP(b *testing.B) {
	ds := benchDataset(b, 10, 32, 100)
	m, err := NewMLP(ds, 64)
	if err != nil {
		b.Fatal(err)
	}
	batch := ds.Batch(rng.New(3), benchBatch)
	src := rng.New(99)
	params := tensor.New(m.Dim())
	m.Init(src, params)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Loss(params, batch); err != nil {
			b.Fatal(err)
		}
	}
}
