package model

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// checkGradient verifies Gradient against central finite differences of
// Loss at a random point. Used for every deterministic model.
func checkGradient(t *testing.T, m Model, batch []int, tol float64) {
	t.Helper()
	src := rng.New(1234)
	params := tensor.New(m.Dim())
	m.Init(src, params)
	grad := tensor.New(m.Dim())
	if _, err := m.Gradient(params, grad, batch); err != nil {
		t.Fatal(err)
	}
	const h = 1e-6
	// Spot-check a spread of coordinates (all of them for small dims).
	step := 1
	if m.Dim() > 60 {
		step = m.Dim() / 60
	}
	for i := 0; i < m.Dim(); i += step {
		orig := params[i]
		params[i] = orig + h
		lp, err := m.Loss(params, batch)
		if err != nil {
			t.Fatal(err)
		}
		params[i] = orig - h
		lm, err := m.Loss(params, batch)
		if err != nil {
			t.Fatal(err)
		}
		params[i] = orig
		fd := (lp - lm) / (2 * h)
		if math.Abs(fd-grad[i]) > tol*(1+math.Abs(fd)) {
			t.Errorf("coord %d: analytic %v vs finite-diff %v", i, grad[i], fd)
		}
	}
}

func TestQuadratic(t *testing.T) {
	src := rng.New(1)
	q, err := NewQuadratic(src, 10, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if q.Dim() != 10 {
		t.Errorf("Dim = %d", q.Dim())
	}
	// Loss at the optimum is zero.
	loss, err := q.Loss(q.Optimum, nil)
	if err != nil {
		t.Fatal(err)
	}
	if loss != 0 {
		t.Errorf("loss at optimum = %v", loss)
	}
	// Noise-free gradient at optimum is zero.
	grad := tensor.New(10)
	if _, err := q.Gradient(q.Optimum.Clone(), grad, nil); err != nil {
		t.Fatal(err)
	}
	if grad.Norm2() > 1e-12 {
		t.Errorf("gradient at optimum = %v", grad.Norm2())
	}
	checkGradient(t, q, nil, 1e-4)
}

func TestQuadraticConditioning(t *testing.T) {
	src := rng.New(2)
	q, err := NewQuadratic(src, 5, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if q.Curvature[0] != 1 {
		t.Errorf("smallest curvature = %v, want 1", q.Curvature[0])
	}
	if math.Abs(q.Curvature[4]-1000) > 1e-9 {
		t.Errorf("largest curvature = %v, want 1000", q.Curvature[4])
	}
}

func TestQuadraticNoise(t *testing.T) {
	src := rng.New(3)
	q, err := NewQuadratic(src, 4, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	grad := tensor.New(4)
	var mags float64
	const n = 2000
	for i := 0; i < n; i++ {
		if _, err := q.Gradient(q.Optimum.Clone(), grad, nil); err != nil {
			t.Fatal(err)
		}
		mags += grad.Norm2() * grad.Norm2()
	}
	// E||noise||² = dim * σ² = 4 * 0.25 = 1.
	if avg := mags / n; math.Abs(avg-1) > 0.15 {
		t.Errorf("gradient noise power = %v, want ~1", avg)
	}
}

func TestQuadraticInvalid(t *testing.T) {
	src := rng.New(1)
	if _, err := NewQuadratic(src, 0, 10, 0); err == nil {
		t.Error("dim 0 should error")
	}
	if _, err := NewQuadratic(src, 5, 0.5, 0); err == nil {
		t.Error("condition < 1 should error")
	}
	q, err := NewQuadratic(src, 3, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Loss(tensor.New(2), nil); err == nil {
		t.Error("shape mismatch should error")
	}
	if _, err := q.Gradient(tensor.New(3), tensor.New(2), nil); err == nil {
		t.Error("grad shape mismatch should error")
	}
}

func TestLogisticGradient(t *testing.T) {
	src := rng.New(7)
	ds, err := data.Blobs(src, 4, 3, 10, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewLogistic(ds)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dim() != 4*3+4 {
		t.Errorf("Dim = %d, want 16", m.Dim())
	}
	checkGradient(t, m, []int{0, 5, 9, 22, 31}, 1e-5)
}

func TestLogisticLearnsBlobs(t *testing.T) {
	src := rng.New(8)
	ds, err := data.Blobs(src, 3, 5, 100, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewLogistic(ds)
	if err != nil {
		t.Fatal(err)
	}
	params := tensor.New(m.Dim())
	m.Init(src, params)
	grad := tensor.New(m.Dim())
	all := All(ds)
	for i := 0; i < 300; i++ {
		if _, err := m.Gradient(params, grad, all); err != nil {
			t.Fatal(err)
		}
		if err := params.Axpy(-0.5, grad); err != nil {
			t.Fatal(err)
		}
	}
	top1, top2, err := m.Accuracy(params, all, 2)
	if err != nil {
		t.Fatal(err)
	}
	if top1 < 0.95 {
		t.Errorf("top-1 accuracy = %v after training well-separated blobs", top1)
	}
	if top2 < top1 {
		t.Errorf("top-2 (%v) below top-1 (%v)", top2, top1)
	}
}

func TestLogisticErrors(t *testing.T) {
	if _, err := NewLogistic(nil); err == nil {
		t.Error("nil dataset should error")
	}
	src := rng.New(9)
	unlabeled := &data.Dataset{Features: 3, Examples: []data.Example{{X: tensor.New(3)}}}
	if _, err := NewLogistic(unlabeled); err == nil {
		t.Error("dataset without classes should error")
	}
	ds, err := data.Blobs(src, 3, 4, 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewLogistic(ds)
	if err != nil {
		t.Fatal(err)
	}
	params := tensor.New(m.Dim())
	checkBadBatchLeavesGrad(t, m.Dim(), ds.Len(), func(grad tensor.Vector, batch []int) error {
		_, err := m.Gradient(params, grad, batch)
		return err
	})
}

func TestMLPGradient(t *testing.T) {
	src := rng.New(10)
	ds, err := data.Blobs(src, 3, 4, 8, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMLP(ds, 6)
	if err != nil {
		t.Fatal(err)
	}
	wantDim := 6*4 + 6 + 3*6 + 3
	if m.Dim() != wantDim {
		t.Errorf("Dim = %d, want %d", m.Dim(), wantDim)
	}
	if m.Hidden() != 6 {
		t.Errorf("Hidden = %d", m.Hidden())
	}
	checkGradient(t, m, []int{0, 3, 10, 17}, 1e-4)
}

func TestMLPLearnsXorLikeProblem(t *testing.T) {
	// A blob problem with tight clusters; the MLP must fit it well.
	src := rng.New(11)
	ds, err := data.Blobs(src, 4, 2, 50, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMLP(ds, 16)
	if err != nil {
		t.Fatal(err)
	}
	params := tensor.New(m.Dim())
	m.Init(src, params)
	grad := tensor.New(m.Dim())
	all := All(ds)
	for i := 0; i < 400; i++ {
		if _, err := m.Gradient(params, grad, all); err != nil {
			t.Fatal(err)
		}
		if err := params.Axpy(-0.5, grad); err != nil {
			t.Fatal(err)
		}
	}
	top1, _, err := m.Accuracy(params, all, 1)
	if err != nil {
		t.Fatal(err)
	}
	if top1 < 0.9 {
		t.Errorf("MLP top-1 = %v after training", top1)
	}
}

func TestMLPInvalid(t *testing.T) {
	src := rng.New(12)
	ds, err := data.Blobs(src, 2, 2, 4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMLP(nil, 4); err == nil {
		t.Error("nil dataset should error")
	}
	if _, err := NewMLP(ds, 0); err == nil {
		t.Error("0 hidden should error")
	}
	m, err := NewMLP(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Loss(tensor.New(1), []int{0}); err == nil {
		t.Error("shape mismatch should error")
	}
	if _, _, err := m.Accuracy(tensor.New(m.Dim()), nil, 1); err == nil {
		t.Error("empty accuracy batch should error")
	}
	params := tensor.New(m.Dim())
	checkBadBatchLeavesGrad(t, m.Dim(), ds.Len(), func(grad tensor.Vector, batch []int) error {
		_, err := m.Gradient(params, grad, batch)
		return err
	})
	checkBadBatchLeavesGrad(t, m.Dim(), ds.Len(), func(grad tensor.Vector, batch []int) error {
		_, err := m.GradientLayers(params, grad, batch, func(int) error { return nil })
		return err
	})
}

func TestLossDecreasesUnderGradientStep(t *testing.T) {
	// Property: for each model, a small step along -grad decreases loss.
	src := rng.New(13)
	ds, err := data.Blobs(src, 3, 4, 20, 0.3)
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
	quad, err := NewQuadratic(src, 8, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	batch := All(ds)
	for _, m := range []Model{logit, mlp, quad} {
		params := tensor.New(m.Dim())
		m.Init(src, params)
		grad := tensor.New(m.Dim())
		before, err := m.Gradient(params, grad, batch)
		if err != nil {
			t.Fatal(err)
		}
		if err := params.Axpy(-1e-3, grad); err != nil {
			t.Fatal(err)
		}
		after, err := m.Loss(params, batch)
		if err != nil {
			t.Fatal(err)
		}
		if after >= before {
			t.Errorf("%T: loss did not decrease (%v -> %v)", m, before, after)
		}
	}
}

func TestAll(t *testing.T) {
	src := rng.New(14)
	ds, err := data.Blobs(src, 2, 2, 3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	idx := All(ds)
	if len(idx) != 6 || idx[0] != 0 || idx[5] != 5 {
		t.Errorf("All = %v", idx)
	}
}
