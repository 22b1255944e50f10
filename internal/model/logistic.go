package model

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/data"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Logistic is multinomial logistic (softmax) regression over a
// classification Dataset. Parameters are laid out as C rows of (F weights)
// followed by C biases: dim = C·F + C. Stateless: safe for concurrent use.
type Logistic struct {
	ds *data.Dataset
}

var _ Classifier = (*Logistic)(nil)

// NewLogistic binds the model to a classification dataset.
func NewLogistic(ds *data.Dataset) (*Logistic, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, errors.New("model: empty dataset")
	}
	if ds.Classes < 2 {
		return nil, fmt.Errorf("model: %d classes", ds.Classes)
	}
	return &Logistic{ds: ds}, nil
}

// Dim implements Model.
func (m *Logistic) Dim() int { return m.ds.Classes*m.ds.Features + m.ds.Classes }

// logits computes the raw class scores of one example into out, which must
// have exactly one element per class: one row-blocked product of the weight
// rows with the example, plus the biases.
func (m *Logistic) logits(params tensor.Vector, x tensor.Vector, out []float64) {
	f, c := m.ds.Features, m.ds.Classes
	tensor.DotRows(out, params, f, x)
	for k, z := range out {
		out[k] = params[c*f+k] + z
	}
}

// softmaxInPlace converts logits to probabilities, numerically stably.
func softmaxInPlace(z []float64) {
	max := z[0]
	for _, v := range z[1:] {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range z {
		z[i] = math.Exp(v - max)
		sum += z[i]
	}
	for i := range z {
		z[i] /= sum
	}
}

// Loss implements Model: mean cross-entropy.
func (m *Logistic) Loss(params tensor.Vector, batch []int) (float64, error) {
	if len(params) != m.Dim() {
		return 0, tensor.ErrShapeMismatch
	}
	if len(batch) == 0 {
		return 0, errors.New("model: empty batch")
	}
	ws := getWorkspace()
	defer ws.release()
	ws.probs = grow(ws.probs, m.ds.Classes)
	probs := ws.probs
	var loss float64
	for _, idx := range batch {
		if idx < 0 || idx >= m.ds.Len() {
			return 0, fmt.Errorf("%w: %d", ErrBadBatch, idx)
		}
		ex := m.ds.Examples[idx]
		m.logits(params, ex.X, probs)
		softmaxInPlace(probs)
		p := probs[ex.Label]
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
	}
	return loss / float64(len(batch)), nil
}

// Gradient implements Model. Per-example row updates run through the fused
// Axpy kernel; examples accumulate in batch order. The batch is validated
// before the first write, so an error leaves grad as it was.
func (m *Logistic) Gradient(params, grad tensor.Vector, batch []int) (float64, error) {
	if len(params) != m.Dim() || len(grad) != m.Dim() {
		return 0, tensor.ErrShapeMismatch
	}
	if err := checkBatch(batch, m.ds.Len()); err != nil {
		return 0, err
	}
	grad.Zero()
	f, c := m.ds.Features, m.ds.Classes
	ws := getWorkspace()
	defer ws.release()
	ws.probs = grow(ws.probs, c)
	probs := ws.probs
	var loss float64
	inv := 1 / float64(len(batch))
	for _, idx := range batch {
		ex := m.ds.Examples[idx]
		m.logits(params, ex.X, probs)
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
	return loss * inv, nil
}

// Init implements Model.
func (m *Logistic) Init(src *rng.Source, params tensor.Vector) {
	for i := range params {
		params[i] = src.Normal(0, 0.01)
	}
}

// Accuracy implements Classifier.
func (m *Logistic) Accuracy(params tensor.Vector, batch []int, k int) (float64, float64, error) {
	if len(params) != m.Dim() {
		return 0, 0, tensor.ErrShapeMismatch
	}
	if len(batch) == 0 {
		return 0, 0, errors.New("model: empty batch")
	}
	return accuracy(batch, m.ds, k, func(x tensor.Vector, scores []float64) {
		m.logits(params, x, scores)
	})
}

// accuracy scores top-1/top-k given a scoring function.
func accuracy(batch []int, ds *data.Dataset, k int, score func(tensor.Vector, []float64)) (float64, float64, error) {
	if k < 1 {
		k = 1
	}
	if k > ds.Classes {
		k = ds.Classes
	}
	ws := getWorkspace()
	defer ws.release()
	ws.probs = grow(ws.probs, ds.Classes)
	ws.order = growInts(ws.order, ds.Classes)
	scores, order := ws.probs, ws.order
	var top1, topK int
	for _, idx := range batch {
		if idx < 0 || idx >= ds.Len() {
			return 0, 0, fmt.Errorf("%w: %d", ErrBadBatch, idx)
		}
		ex := ds.Examples[idx]
		score(ex.X, scores)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return scores[order[a]] > scores[order[b]] })
		if order[0] == ex.Label {
			top1++
		}
		for i := 0; i < k; i++ {
			if order[i] == ex.Label {
				topK++
				break
			}
		}
	}
	n := float64(len(batch))
	return float64(top1) / n, float64(topK) / n, nil
}

// All returns the index list [0, n) of a dataset — convenient for
// evaluating loss or accuracy over a whole validation set.
func All(ds *data.Dataset) []int {
	out := make([]int, ds.Len())
	for i := range out {
		out[i] = i
	}
	return out
}
