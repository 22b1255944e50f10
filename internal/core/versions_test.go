package core

import (
	"math"
	"sync"
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
func (e *rewriteExchange) exchange(k int64, _, _, out tensor.Vector) error {
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

// TestVersionsRetireSuperseded: versions hands every superseded version back
// to the pool exactly once, and never one a compute step still reads. A
// compute goroutine pins version A; two publishes supersede A with B and B
// with C. B, superseded while unpinned, is retired at C's publish; A's bits
// stay as they were, no Lease returns A, and A is retired exactly once, at
// unpin, after which the pool hands it out again. Unpinning the current
// version retires nothing. Run under -race (make race).
func TestVersionsRetireSuperseded(t *testing.T) {
	const dim = 37
	pool, err := NewAccumulator(dim, 2)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	retired := map[*float64]int{}
	times := func(v tensor.Vector) int {
		mu.Lock()
		defer mu.Unlock()
		return retired[&v[0]]
	}
	lease := func(x float64) tensor.Vector {
		v := pool.Lease()
		v.Fill(x)
		return v
	}
	a, b, c := lease(1), lease(2), lease(3)
	vs := newVersions(a, func(v tensor.Vector) {
		mu.Lock()
		retired[&v[0]]++
		mu.Unlock()
		pool.Recycle(v)
	})

	pinned, release, done := make(chan tensor.Vector), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		p, synced, ok := vs.pin(0, 1)
		if !ok || synced != -1 {
			t.Errorf("pin: synced %d ok %v, want -1 true", synced, ok)
		}
		pinned <- p
		<-release
		vs.unpin()
	}()
	p := <-pinned
	if !sameVector(p, a) {
		t.Fatal("pin did not return the current version")
	}
	want := p.Clone()
	vs.publish(0, b)
	if n := times(a); n != 0 {
		t.Fatalf("pinned version retired %d times at the publish that superseded it", n)
	}
	vs.publish(1, c)
	if n := times(b); n != 1 {
		t.Fatalf("unpinned superseded version retired %d times at publish, want 1", n)
	}
	// Everything the pool holds, and then some, is handed out and written:
	// none of it may be the pinned version.
	var leased []tensor.Vector
	for i := 0; i < 2*maxFree; i++ {
		v := lease(math.NaN())
		if sameVector(v, a) {
			t.Fatalf("lease %d returned the pinned version", i)
		}
		leased = append(leased, v)
	}
	for i := range want {
		if math.Float64bits(p[i]) != math.Float64bits(want[i]) {
			t.Fatalf("pinned version changed at elem %d: %v, want %v", i, p[i], want[i])
		}
	}
	// Leave the free list one place, so the version unpin retires is the next
	// one Lease hands out.
	for _, v := range leased[:maxFree-1] {
		pool.Recycle(v)
	}
	close(release)
	<-done
	if n := times(a); n != 1 {
		t.Fatalf("pinned superseded version retired %d times at unpin, want 1", n)
	}
	if v := pool.Lease(); !sameVector(v, a) {
		t.Error("the version retired at unpin did not return to the pool")
	}
	if n := times(b); n != 1 {
		t.Errorf("version retired %d times, want 1", n)
	}

	// A pin on the current version ends without retiring it.
	if cur, synced, ok := vs.pin(2, 1); !ok || synced != 1 || !sameVector(cur, c) {
		t.Fatalf("pin: synced %d ok %v, want the version published at 1", synced, ok)
	}
	vs.unpin()
	if n := times(c); n != 0 {
		t.Errorf("current version retired %d times at unpin", n)
	}
}
