package model

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// The gradients as they were before the blocked kernels: one dot product per
// unit, one sweep of the whole gradient per example. They are the oracle the
// row- and batch-blocked passes must reproduce bit for bit, loss included.

func refMLPForward(m *MLP, params, x tensor.Vector, hid, logits []float64) {
	f, h, c := m.ds.Features, m.hidden, m.ds.Classes
	w1, b1, w2, b2 := m.slices(params)
	for j := 0; j < h; j++ {
		hid[j] = math.Tanh(b1[j] + tensor.Dot(w1[j*f:(j+1)*f], x))
	}
	for k := 0; k < c; k++ {
		logits[k] = b2[k] + tensor.Dot(w2[k*h:(k+1)*h], hid)
	}
}

func refMLPGradient(m *MLP, params, grad tensor.Vector, batch []int) float64 {
	grad.Zero()
	f, h, c := m.ds.Features, m.hidden, m.ds.Classes
	_, _, w2, _ := m.slices(params)
	gw1, gb1, gw2, gb2 := m.slices(grad)
	hid, probs, deltaH := make([]float64, h), make([]float64, c), make([]float64, h)
	inv := 1 / float64(len(batch))
	var loss float64
	for _, idx := range batch {
		ex := m.ds.Examples[idx]
		refMLPForward(m, params, ex.X, hid, probs)
		softmaxInPlace(probs)
		p := probs[ex.Label]
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)

		for j := range deltaH {
			deltaH[j] = 0
		}
		for k := 0; k < c; k++ {
			d := probs[k]
			if k == ex.Label {
				d--
			}
			tensor.Axpy(gw2[k*h:(k+1)*h], d*inv, hid)
			tensor.Axpy(deltaH, d, w2[k*h:(k+1)*h])
			gb2[k] += d * inv
		}
		for j := 0; j < h; j++ {
			dh := deltaH[j] * (1 - hid[j]*hid[j])
			tensor.Axpy(gw1[j*f:(j+1)*f], dh*inv, ex.X)
			gb1[j] += dh * inv
		}
	}
	return loss * inv
}

func refLogisticGradient(m *Logistic, params, grad tensor.Vector, batch []int) float64 {
	grad.Zero()
	f, c := m.ds.Features, m.ds.Classes
	probs := make([]float64, c)
	var loss float64
	inv := 1 / float64(len(batch))
	for _, idx := range batch {
		ex := m.ds.Examples[idx]
		for k := 0; k < c; k++ {
			probs[k] = params[c*f+k] + tensor.Dot(params[k*f:(k+1)*f], ex.X)
		}
		softmaxInPlace(probs)
		p := probs[ex.Label]
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
		for k := 0; k < c; k++ {
			delta := probs[k]
			if k == ex.Label {
				delta--
			}
			tensor.Axpy(grad[k*f:(k+1)*f], delta*inv, ex.X)
			grad[c*f+k] += delta * inv
		}
	}
	return loss * inv
}

// referenceBatches returns batches of 1, 3, 4, 5 and 32 indices into a
// dataset of n examples; every batch of more than one repeats an index.
func referenceBatches(src *rng.Source, n int) [][]int {
	var out [][]int
	for _, size := range []int{1, 3, 4, 5, 32} {
		b := make([]int, size)
		for i := range b {
			b[i] = src.Intn(n)
		}
		if size > 1 {
			b[size-1] = b[0]
		}
		out = append(out, b)
	}
	return out
}

// sameGradient fails unless got and want agree in every bit. grad starts as
// garbage, so a span the pass forgets to zero shows.
func sameGradient(t *testing.T, what string, got, want tensor.Vector, gotLoss, wantLoss float64) {
	t.Helper()
	if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
		t.Errorf("%s: loss %v, reference %v", what, gotLoss, wantLoss)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: grad[%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// The geometries miss every multiple of four at least once in each of
// features, hidden width and classes (the assembly's lane and row-group
// sizes), and include the two the benchmark trains: 256→512→16 and 64×8.
func TestMLPGradientMatchesReference(t *testing.T) {
	for _, g := range []struct{ features, hidden, classes int }{
		{1, 1, 2}, {3, 5, 3}, {4, 4, 4}, {5, 3, 5}, {7, 7, 7}, {64, 64, 16},
		{5, 64, 3}, {64, 5, 4}, {9, 13, 2}, {12, 8, 6}, {33, 17, 5}, {256, 512, 16},
	} {
		src := rng.New(int64(1000*g.features + 10*g.hidden + g.classes))
		ds, err := data.Blobs(src, g.classes, g.features, 8, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMLP(ds, g.hidden)
		if err != nil {
			t.Fatal(err)
		}
		params := tensor.New(m.Dim())
		m.Init(src, params)
		want, got := tensor.New(m.Dim()), tensor.New(m.Dim())
		for _, batch := range referenceBatches(src, ds.Len()) {
			what := fmt.Sprintf("mlp %d-%d-%d batch %d", g.features, g.hidden, g.classes, len(batch))
			wantLoss := refMLPGradient(m, params, want, batch)
			got.Fill(math.NaN())
			loss, err := m.Gradient(params, got, batch)
			if err != nil {
				t.Fatal(err)
			}
			sameGradient(t, what, got, want, loss, wantLoss)
			got.Fill(math.NaN())
			loss, err = m.GradientLayers(params, got, batch, func(int) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			sameGradient(t, what+" layered", got, want, loss, wantLoss)
		}
	}
}

func TestLogisticGradientMatchesReference(t *testing.T) {
	for _, g := range []struct{ features, classes int }{
		{1, 2}, {3, 3}, {4, 4}, {5, 5}, {7, 7}, {64, 8}, {64, 16}, {9, 6}, {256, 3}, {33, 9},
	} {
		src := rng.New(int64(100*g.features + g.classes))
		ds, err := data.Blobs(src, g.classes, g.features, 8, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewLogistic(ds)
		if err != nil {
			t.Fatal(err)
		}
		params := tensor.New(m.Dim())
		m.Init(src, params)
		want, got := tensor.New(m.Dim()), tensor.New(m.Dim())
		for _, batch := range referenceBatches(src, ds.Len()) {
			wantLoss := refLogisticGradient(m, params, want, batch)
			got.Fill(math.NaN())
			loss, err := m.Gradient(params, got, batch)
			if err != nil {
				t.Fatal(err)
			}
			sameGradient(t, fmt.Sprintf("logistic %dx%d batch %d", g.features, g.classes, len(batch)), got, want, loss, wantLoss)
		}
	}
}

// checkBadBatchLeavesGrad asserts that a batch whose last index is out of
// range fails with ErrBadBatch before anything is written to grad.
func checkBadBatchLeavesGrad(t *testing.T, dim, n int, gradient func(grad tensor.Vector, batch []int) error) {
	t.Helper()
	for _, bad := range []int{-1, n} {
		grad := tensor.New(dim)
		grad.Fill(42)
		if err := gradient(grad, []int{0, 1, 2, bad}); !errors.Is(err, ErrBadBatch) {
			t.Errorf("index %d: err = %v, want ErrBadBatch", bad, err)
		}
		for i, v := range grad {
			if v != 42 {
				t.Fatalf("index %d: grad[%d] = %v written before the batch was validated", bad, i, v)
			}
		}
	}
}
