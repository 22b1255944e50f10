package model

import (
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// testModels builds one instance of every dataset-backed model over a shared
// blob problem.
func testModels(t *testing.T) (*data.Dataset, []Model) {
	t.Helper()
	src := rng.New(99)
	ds, err := data.Blobs(src, 3, 4, 8, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	logit, err := NewLogistic(ds)
	if err != nil {
		t.Fatal(err)
	}
	mlp, err := NewMLP(ds, 5)
	if err != nil {
		t.Fatal(err)
	}
	return ds, []Model{logit, mlp}
}

// TestGradientFuzzedBatchShapes runs the finite-difference check over the
// batch shapes the training engine actually produces: singletons, batches
// larger than the dataset (sampling with replacement repeats indices), and
// heavy duplication of one example.
func TestGradientFuzzedBatchShapes(t *testing.T) {
	ds, models := testModels(t)
	shapes := map[string]func(n int) []int{
		"batch1": func(n int) []int { return []int{n / 2} },
		"overfull": func(n int) []int {
			b := make([]int, 2*n+3)
			for i := range b {
				b[i] = (i * 7) % n
			}
			return b
		},
		"duplicate": func(n int) []int { return []int{0, 0, 0, n - 1, 0} },
	}
	n := ds.Len()
	for _, m := range models {
		for name, mk := range shapes {
			t.Run(name, func(t *testing.T) {
				checkGradient(t, m, mk(n), 1e-4)
			})
		}
	}
}

// TestGradientEmptyBatchErrors pins the contract for the empty tail of a
// sliced-up dataset: every dataset-backed model rejects a zero-length batch.
func TestGradientEmptyBatchErrors(t *testing.T) {
	_, models := testModels(t)
	for _, m := range models {
		params := tensor.New(m.Dim())
		grad := tensor.New(m.Dim())
		if _, err := m.Gradient(params, grad, nil); err == nil {
			t.Errorf("%T: empty batch should error", m)
		}
		if _, err := m.Loss(params, nil); err == nil {
			t.Errorf("%T: empty-batch loss should error", m)
		}
	}
}

// TestConcurrentGradientsMatchSerial is the Model thread-safety contract:
// many goroutines calling Gradient on ONE instance (each with its own params
// and grad) must reproduce the serial answers exactly. Run with -race.
func TestConcurrentGradientsMatchSerial(t *testing.T) {
	ds, models := testModels(t)
	batches := make([][]int, 16)
	src := rng.New(123)
	for i := range batches {
		batches[i] = ds.Batch(src, 6)
	}
	for _, m := range models {
		params := tensor.New(m.Dim())
		m.Init(rng.New(7), params)
		want := make([]tensor.Vector, len(batches))
		wantLoss := make([]float64, len(batches))
		for i, b := range batches {
			want[i] = tensor.New(m.Dim())
			var err error
			if wantLoss[i], err = m.Gradient(params, want[i], b); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		got := make([]tensor.Vector, len(batches))
		gotLoss := make([]float64, len(batches))
		errs := make([]error, len(batches))
		for i := range batches {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = tensor.New(m.Dim())
				gotLoss[i], errs[i] = m.Gradient(params, got[i], batches[i])
			}()
		}
		wg.Wait()
		for i := range batches {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if gotLoss[i] != wantLoss[i] {
				t.Errorf("%T batch %d: loss %v vs serial %v", m, i, gotLoss[i], wantLoss[i])
			}
			if !got[i].Equal(want[i], 0) {
				t.Errorf("%T batch %d: concurrent gradient differs from serial", m, i)
			}
		}
	}
}

// TestQuadraticCloneForWorker pins the per-worker noise-stream semantics the
// parallel engine relies on.
func TestQuadraticCloneForWorker(t *testing.T) {
	q, err := NewQuadratic(rng.New(42), 6, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	draw := func(m Model) tensor.Vector {
		g := tensor.New(m.Dim())
		if _, err := m.Gradient(q.Optimum.Clone(), g, nil); err != nil {
			t.Fatal(err)
		}
		return g
	}
	// Purity: repeated clones of the same worker replay the same stream,
	// and cloning never advances the parent's stream.
	a := draw(q.CloneForWorker(3))
	b := draw(q.CloneForWorker(3))
	if !a.Equal(b, 0) {
		t.Error("same-worker clones drew different noise")
	}
	// Independence: distinct workers get distinct streams.
	c := draw(q.CloneForWorker(4))
	if a.Equal(c, 0) {
		t.Error("distinct workers share a noise stream")
	}
	// The clone shares the objective itself.
	cl := q.CloneForWorker(1).(*Quadratic)
	if &cl.Curvature[0] != &q.Curvature[0] || &cl.Optimum[0] != &q.Optimum[0] {
		t.Error("clone should share curvature and optimum storage")
	}
	// Cloning concurrently is itself safe (pure function of the base seed).
	var wg sync.WaitGroup
	clones := make([]tensor.Vector, 8)
	for i := range clones {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			clones[i] = draw(q.CloneForWorker(2))
		}()
	}
	wg.Wait()
	for i := 1; i < len(clones); i++ {
		if !clones[0].Equal(clones[i], 0) {
			t.Error("concurrent same-worker clones diverged")
		}
	}
	// ForWorker passes stateless models through unchanged.
	ds, models := testModels(t)
	_ = ds
	for _, m := range models {
		if ForWorker(m, 5) != m {
			t.Errorf("%T: ForWorker should return the instance itself", m)
		}
	}
	if ForWorker(q, 5) == Model(q) {
		t.Error("ForWorker on a WorkerCloner should clone")
	}
}
