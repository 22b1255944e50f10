package model

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// MLP is a one-hidden-layer tanh network with a softmax output — the
// non-convex objective standing in for the paper's deep models. Parameter
// layout: W1 (H rows of F) ++ b1 (H) ++ W2 (C rows of H) ++ b2 (C).
// Stateless: safe for concurrent use.
type MLP struct {
	ds     *data.Dataset
	hidden int
}

var (
	_ Classifier   = (*MLP)(nil)
	_ LayeredModel = (*MLP)(nil)
)

// NewMLP binds an MLP with the given hidden width to a classification
// dataset.
func NewMLP(ds *data.Dataset, hidden int) (*MLP, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, errors.New("model: empty dataset")
	}
	if ds.Classes < 2 {
		return nil, fmt.Errorf("model: %d classes", ds.Classes)
	}
	if hidden < 1 {
		return nil, fmt.Errorf("model: hidden width %d", hidden)
	}
	return &MLP{ds: ds, hidden: hidden}, nil
}

// Dim implements Model.
func (m *MLP) Dim() int {
	f, h, c := m.ds.Features, m.hidden, m.ds.Classes
	return h*f + h + c*h + c
}

// Hidden returns the hidden-layer width.
func (m *MLP) Hidden() int { return m.hidden }

// slices carves the flat parameter vector into layer views.
func (m *MLP) slices(params tensor.Vector) (w1, b1, w2, b2 tensor.Vector) {
	f, h, c := m.ds.Features, m.hidden, m.ds.Classes
	o := 0
	w1 = params[o : o+h*f]
	o += h * f
	b1 = params[o : o+h]
	o += h
	w2 = params[o : o+c*h]
	o += c * h
	b2 = params[o : o+c]
	return w1, b1, w2, b2
}

// forward computes hidden activations and logits for one example: each
// layer is one row-blocked product of its weight matrix with the example
// (layer 1) or the activations (layer 2). hid and logits must have exactly
// the hidden width and the class count.
func (m *MLP) forward(params tensor.Vector, x tensor.Vector, hid, logits []float64) {
	w1, b1, w2, b2 := m.slices(params)
	tensor.DotRows(hid, w1, m.ds.Features, x)
	for j, z := range hid {
		hid[j] = math.Tanh(b1[j] + z)
	}
	tensor.DotRows(logits, w2, m.hidden, hid)
	for k, z := range logits {
		logits[k] = b2[k] + z
	}
}

// Loss implements Model.
func (m *MLP) Loss(params tensor.Vector, batch []int) (float64, error) {
	if len(params) != m.Dim() {
		return 0, tensor.ErrShapeMismatch
	}
	if len(batch) == 0 {
		return 0, errors.New("model: empty batch")
	}
	ws := getWorkspace()
	defer ws.release()
	ws.hid = grow(ws.hid, m.hidden)
	ws.probs = grow(ws.probs, m.ds.Classes)
	hid, probs := ws.hid, ws.probs
	var loss float64
	for _, idx := range batch {
		if idx < 0 || idx >= m.ds.Len() {
			return 0, fmt.Errorf("%w: %d", ErrBadBatch, idx)
		}
		ex := m.ds.Examples[idx]
		m.forward(params, ex.X, hid, probs)
		softmaxInPlace(probs)
		p := probs[ex.Label]
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
	}
	return loss / float64(len(batch)), nil
}

// Gradient implements Model (exact backprop): the layered pass with nobody
// listening to the emissions.
func (m *MLP) Gradient(params, grad tensor.Vector, batch []int) (float64, error) {
	return m.GradientLayers(params, grad, batch, func(int) error { return nil })
}

// mlpEmitElems is the target W1 elements per emission block (~128 KiB):
// fine enough that the overlap reducer can put early blocks on the wire
// while later ones compute, coarse enough that per-block loop overhead
// stays negligible.
const mlpEmitElems = 16384

// mlpMaxEmitBlocks caps the W1 block count.
const mlpMaxEmitBlocks = 16

// layer1Blocks returns how many row blocks the layered backward splits W1
// into — a pure function of the architecture, so every rank agrees.
func (m *MLP) layer1Blocks() int {
	r := m.hidden * m.ds.Features / mlpEmitElems
	if r < 1 {
		r = 1
	}
	if r > mlpMaxEmitBlocks {
		r = mlpMaxEmitBlocks
	}
	if r > m.hidden {
		r = m.hidden
	}
	return r
}

// GradientBuckets implements LayeredModel. Backprop finalizes the output
// layer first, so emission order is W2++b2, then W1 in row blocks from the
// top of the parameter range downward (adjacent emitted spans stay
// memory-contiguous for bucket coalescing), and finally b1, which is
// accumulated alongside the W1 blocks and certain only once all of them
// are done.
func (m *MLP) GradientBuckets() []Span {
	f, h := m.ds.Features, m.hidden
	hf := h * f
	spans := make([]Span, 0, m.layer1Blocks()+2)
	spans = append(spans, Span{Lo: hf + h, Hi: m.Dim()}) // W2 ++ b2
	R := m.layer1Blocks()
	for blk := R - 1; blk >= 0; blk-- {
		lo, hi, _ := tensor.ChunkBounds(h, R, blk)
		spans = append(spans, Span{Lo: lo * f, Hi: hi * f})
	}
	return append(spans, Span{Lo: hf, Hi: hf + h}) // b1
}

// GradientLayers implements LayeredModel and is the one backprop body
// (Gradient calls it). Two passes. Pass 1 runs the forward and the output
// layer example by example and stashes each example's layer-1 coefficients
// δh·inv, hidden-major; W2/b2 are then final and emit. Pass 2 walks W1 row
// by row, from the top block down: one tensor.LinComb writes the row as the
// examples' coefficients times their inputs, summed from +0 in batch order,
// and each block emits as it completes, with b1 last. A per-example sweep
// would read and write all of gW1 once per example; this writes every row
// once. Per element the additions are those of the per-example sweep in the
// same order, so grad and loss have the same bits (reference_test.go keeps
// that sweep as the oracle).
//
// The batch is validated before the first write: grad may be a leased
// accumulator buffer, and an error must leave it as it was.
func (m *MLP) GradientLayers(params, grad tensor.Vector, batch []int, emit func(layer int) error) (float64, error) {
	if len(params) != m.Dim() || len(grad) != m.Dim() {
		return 0, tensor.ErrShapeMismatch
	}
	if err := checkBatch(batch, m.ds.Len()); err != nil {
		return 0, err
	}
	f, h, c := m.ds.Features, m.hidden, m.ds.Classes
	_, _, w2, _ := m.slices(params)
	gw1, gb1, gw2, gb2 := m.slices(grad)
	gw2.Zero()
	gb2.Zero()
	ws := getWorkspace()
	defer ws.release()
	ws.hid = grow(ws.hid, h)
	ws.probs = grow(ws.probs, c)
	B := len(batch)
	ws.stash = grow(ws.stash, h*B)
	ws.delta = grow(ws.delta, h)
	if cap(ws.xs) < B {
		ws.xs = make([][]float64, B)
	}
	ws.xs = ws.xs[:B]
	defer clear(ws.xs) // the pooled workspace must not pin the dataset
	hid, probs, deltaH := ws.hid, ws.probs, tensor.Vector(ws.delta)
	inv := 1 / float64(B)
	var loss float64
	for bi, idx := range batch {
		ex := m.ds.Examples[idx]
		ws.xs[bi] = ex.X
		m.forward(params, ex.X, hid, probs)
		softmaxInPlace(probs)
		p := probs[ex.Label]
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)

		deltaH.Zero()
		for k := 0; k < c; k++ {
			d := probs[k]
			if k == ex.Label {
				d--
			}
			tensor.Axpy(gw2[k*h:(k+1)*h], d*inv, hid)
			tensor.Axpy(deltaH, d, w2[k*h:(k+1)*h])
			gb2[k] += d * inv
		}
		for j, a := range hid {
			dh := deltaH[j] * (1 - a*a)
			ws.stash[j*B+bi] = dh * inv
		}
	}
	if err := emit(0); err != nil {
		return 0, err
	}
	R := m.layer1Blocks()
	for blk := R - 1; blk >= 0; blk-- {
		lo, hi, _ := tensor.ChunkBounds(h, R, blk)
		for j := lo; j < hi; j++ {
			coef := ws.stash[j*B : (j+1)*B]
			tensor.LinComb(gw1[j*f:(j+1)*f], coef, ws.xs)
			var gb float64
			for _, cf := range coef {
				gb += cf
			}
			gb1[j] = gb
		}
		if err := emit(R - blk); err != nil {
			return 0, err
		}
	}
	if err := emit(R + 1); err != nil {
		return 0, err
	}
	return loss * inv, nil
}

// Init implements Model: Xavier-style scaled Gaussians.
func (m *MLP) Init(src *rng.Source, params tensor.Vector) {
	f, h := m.ds.Features, m.hidden
	w1, b1, w2, b2 := m.slices(params)
	s1 := 1 / math.Sqrt(float64(f))
	for i := range w1 {
		w1[i] = src.Normal(0, s1)
	}
	b1.Zero()
	s2 := 1 / math.Sqrt(float64(h))
	for i := range w2 {
		w2[i] = src.Normal(0, s2)
	}
	b2.Zero()
}

// Accuracy implements Classifier.
func (m *MLP) Accuracy(params tensor.Vector, batch []int, k int) (float64, float64, error) {
	if len(params) != m.Dim() {
		return 0, 0, tensor.ErrShapeMismatch
	}
	if len(batch) == 0 {
		return 0, 0, errors.New("model: empty batch")
	}
	ws := getWorkspace()
	defer ws.release()
	ws.hid = grow(ws.hid, m.hidden)
	hid := ws.hid
	return accuracy(batch, m.ds, k, func(x tensor.Vector, scores []float64) {
		m.forward(params, x, hid, scores)
	})
}
