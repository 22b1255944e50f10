package model

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/data"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// layeredMLP builds an MLP large enough that layer1Blocks > 1, so the
// emission tests exercise the blocked W1 pass.
func layeredMLP(t *testing.T) (*MLP, tensor.Vector, []int) {
	t.Helper()
	src := rng.New(77)
	ds, err := data.Blobs(src, 5, 32, 20, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMLP(ds, 64) // W1 = 64*32 = 2048 elems
	if err != nil {
		t.Fatal(err)
	}
	params := tensor.New(m.Dim())
	m.Init(src, params)
	batch := []int{0, 7, 13, 22, 41, 63, 80, 99}
	return m, params, batch
}

func TestMLPGradientLayersBitIdentical(t *testing.T) {
	for _, hidden := range []int{3, 17, 64, 200} {
		src := rng.New(int64(100 + hidden))
		ds, err := data.Blobs(src, 4, 11, 12, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMLP(ds, hidden)
		if err != nil {
			t.Fatal(err)
		}
		params := tensor.New(m.Dim())
		m.Init(src, params)
		batch := []int{0, 5, 9, 20, 33, 47}

		ref := tensor.New(m.Dim())
		refLoss, err := m.Gradient(params, ref, batch)
		if err != nil {
			t.Fatal(err)
		}

		grad := tensor.New(m.Dim())
		var emitted []int
		loss, err := m.GradientLayers(params, grad, batch, func(layer int) error {
			emitted = append(emitted, layer)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if loss != refLoss {
			t.Errorf("hidden=%d: loss %v != %v", hidden, loss, refLoss)
		}
		for i := range grad {
			if grad[i] != ref[i] {
				t.Fatalf("hidden=%d: grad[%d] = %v, Gradient gives %v", hidden, i, grad[i], ref[i])
			}
		}

		spans := m.GradientBuckets()
		if err := validateSpans(spans, m.Dim()); err != nil {
			t.Fatalf("hidden=%d: %v", hidden, err)
		}
		if len(emitted) != len(spans) {
			t.Fatalf("hidden=%d: %d emissions for %d spans", hidden, len(emitted), len(spans))
		}
		for i, l := range emitted {
			if l != i {
				t.Errorf("hidden=%d: emission %d reported layer %d", hidden, i, l)
			}
		}
	}
}

// TestMLPEmissionSpansFinal checks the emission contract itself: at the
// moment emit(i) fires, span i of the gradient already holds its final
// value and is never written again.
func TestMLPEmissionSpansFinal(t *testing.T) {
	m, params, batch := layeredMLP(t)
	ref := tensor.New(m.Dim())
	if _, err := m.Gradient(params, ref, batch); err != nil {
		t.Fatal(err)
	}
	spans := m.GradientBuckets()
	grad := tensor.New(m.Dim())
	if _, err := m.GradientLayers(params, grad, batch, func(layer int) error {
		s := spans[layer]
		for i := s.Lo; i < s.Hi; i++ {
			if grad[i] != ref[i] {
				t.Fatalf("layer %d span [%d,%d): grad[%d] = %v not final (want %v)",
					layer, s.Lo, s.Hi, i, grad[i], ref[i])
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestMLPGradientLayersEmitError(t *testing.T) {
	m, params, batch := layeredMLP(t)
	grad := tensor.New(m.Dim())
	boom := errors.New("boom")
	calls := 0
	_, err := m.GradientLayers(params, grad, batch, func(int) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// validateSpans checks that spans partition [0, dim).
func validateSpans(spans []Span, dim int) error {
	seen := 0
	for _, s := range spans {
		if s.Lo < 0 || s.Hi > dim || s.Lo >= s.Hi {
			return fmt.Errorf("model: bad span [%d,%d) of dim %d", s.Lo, s.Hi, dim)
		}
		seen += s.Len()
	}
	if seen != dim {
		return fmt.Errorf("model: spans cover %d of %d parameters", seen, dim)
	}
	return nil
}
