package core

import (
	"math"
	"sync/atomic"
	"testing"

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
// the update and the post hook, which sets every parameter to k+1).
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

// TestVersionsNeverTornNorHalfSynced: the compute thread only ever sees whole
// versions, and only versions a synchronization published after its post
// hook. Four ranks over TCP under PowerOfChoices (partial participation, null
// contributions, compute running ahead) on the owner-computes update, whose
// version under construction is piecewise stale until the allgather ends, with
// a post hook that rewrites every parameter. Every update moves the
// parameters off the whole numbers and every hook puts them back on, so a
// fractional value in Gradient is a leaked half-synchronization. Run under
// -race -count=10 (make race).
func TestVersionsNeverTornNorHalfSynced(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP cluster in -short mode")
	}
	const n, iters = 4, 60
	for name, sharded := range map[string]bool{"owner-computes": true, "replicated": false} {
		m := &uniformModel{dim: 4099}
		cfg := TrainConfig{
			Model:          m,
			Batch:          func(*rng.Source) []int { return nil },
			LR:             0.05,
			Momentum:       0.9,
			Iterations:     iters,
			StalenessBound: 3,
			Seed:           1,
			ShardedUpdate:  sharded,
		}
		ctrl, err := controller.New(controller.PowerOfChoices, n, 2, 7)
		if err != nil {
			t.Fatal(err)
		}
		var rewrites atomic.Int64
		post := func(k int64, vs *versions) error {
			next := vs.begin()
			for i := range next {
				next[i] = float64(k + 1)
			}
			rewrites.Add(1)
			return nil
		}
		results := tcpTrainCluster(t, n, func(mesh transport.Mesh) (*Result, error) {
			return runRNA(mesh, ctrl, cfg, post)
		})
		assertBitIdentical(t, name, results[0].Params, results)
		if torn, half := m.torn.Load(), m.halfSynced.Load(); torn != 0 || half != 0 {
			t.Errorf("%s: Gradient saw %d torn versions and %d published before their post hook", name, torn, half)
		}
		if got := rewrites.Load(); got != n*iters {
			t.Errorf("%s: %d post hooks ran, want %d", name, got, n*iters)
		}
		if p := results[0].Params[0]; p != iters {
			t.Errorf("%s: final parameters %v, want the last hook's %d", name, p, iters)
		}
	}
}
