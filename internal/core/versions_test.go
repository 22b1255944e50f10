package core

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/collective"
	"repro/internal/controller"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// uniformModel is the probe of TestVersionsNeverTornNorHalfSynced. Its
// gradient is the same constant in every element, so any element-wise update
// of a vector whose elements are all equal leaves them all equal; it counts
// the parameter vectors it is shown that hold two distinct values (a torn
// version) or a value that is not a whole number (a version published between
// the step and the exchange, which sets every parameter to k+1).
type uniformModel struct {
	dim              int
	torn, halfSynced atomic.Int64
}

func (m *uniformModel) Dim() int { return m.dim }

func (m *uniformModel) Init(_ *rng.Source, params tensor.Vector) { params.Zero() }

func (m *uniformModel) Loss(tensor.Vector, []int) (float64, error) { return 0, nil }

func (m *uniformModel) Gradient(params, grad tensor.Vector, _ []int) (float64, error) {
	for _, p := range params {
		if p != params[0] {
			m.torn.Add(1)
			break
		}
	}
	if params[0] != math.Trunc(params[0]) {
		m.halfSynced.Add(1)
	}
	for i := range grad {
		grad[i] = 0.3
	}
	return 0, nil
}

// rewriteExchange is an exchanger due at every synchronization that sets the
// owned span to k+1, whatever it is handed: the probe's stand-in for a
// parameter-server pull.
type rewriteExchange struct{ calls atomic.Int64 }

func (*rewriteExchange) table() []int       { return nil }
func (*rewriteExchange) seed(tensor.Vector) {}
func (*rewriteExchange) due(int64) bool     { return true }
func (e *rewriteExchange) exchange(k int64, _, out tensor.Vector) error {
	out.Fill(float64(k + 1))
	e.calls.Add(1)
	return nil
}

// TestVersionsNeverTornNorHalfSynced: the compute thread only ever sees whole
// versions, and only versions a synchronization published after its exchange.
// Four ranks over TCP under PowerOfChoices (partial participation, null
// contributions, empty synchronizations, compute running ahead) on the
// owner-computes update, whose version under construction is piecewise stale
// until the allgather ends, with an exchange that rewrites every owned span
// between the step and the allgather. Every step moves the parameters off the
// whole numbers and every exchange puts them back on, so a fractional value in
// Gradient is a leaked half-synchronization. The replicated update on the
// tree, which runs no exchange, is held to whole versions only. Run under
// -race -count=10 (make race).
func TestVersionsNeverTornNorHalfSynced(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP cluster in -short mode")
	}
	const n, iters = 4, 60
	for _, name := range []string{"owner-computes", "replicated"} {
		m := &uniformModel{dim: 4099}
		cfg := TrainConfig{
			Model:          m,
			Batch:          func(*rng.Source) []int { return nil },
			LR:             0.05,
			Momentum:       0.9,
			Iterations:     iters,
			StalenessBound: 3,
			Seed:           1,
		}
		ctrl, err := controller.New(controller.PowerOfChoices, n, 2, 7)
		if err != nil {
			t.Fatal(err)
		}
		var rewrite *rewriteExchange
		if name == "owner-computes" {
			rewrite = new(rewriteExchange)
		} else {
			// The tree folds every element in one order, so a version
			// whose elements differ was torn; the ring's chunks start
			// their folds at different ranks and may differ in the last
			// bit.
			cfg.Algorithm = collective.AlgoTree
		}
		results := tcpTrainCluster(t, n, func(mesh transport.Mesh) (*Result, error) {
			if rewrite == nil {
				return runRNA(mesh, ctrl, cfg, nil)
			}
			return runRNA(mesh, ctrl, cfg, rewrite)
		})
		assertBitIdentical(t, name, results[0].Params, results)
		if torn := m.torn.Load(); torn != 0 {
			t.Errorf("%s: Gradient saw %d torn versions", name, torn)
		}
		if rewrite == nil {
			continue
		}
		if half := m.halfSynced.Load(); half != 0 {
			t.Errorf("%s: Gradient saw %d versions published before their exchange", name, half)
		}
		if got := rewrite.calls.Load(); got != n*iters {
			t.Errorf("%s: %d exchanges ran, want %d", name, got, n*iters)
		}
		if p := results[0].Params[0]; p != iters {
			t.Errorf("%s: final parameters %v, want the last exchange's %d", name, p, iters)
		}
	}
}
