package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/controller"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/ps"
	"repro/internal/race"
	"repro/internal/rng"
	"repro/internal/transport"
)

// End-to-end allocation gates for the RNA data path. A gradient is one
// 8·dim-byte vector; before buffers were leased every rank allocated one
// per synchronization (the weighted mean of its gradients) and the hierarchical
// hook up to four more per exchange, so the gates sit well below one
// vector per rank per step and fail loudly if a per-step copy comes back.

// The worker gates run two sizes: allocGateDim, which the selector reduces
// over four ranks on the ring pair, and treeGateDim, the hetero_* workloads'
// model, which it reduces on the tree (dim+1 elements for RNA too).
const (
	allocGateDim = 1 << 16
	treeGateDim  = 4680
)

// allocGateConfig is a logistic model of exactly dim parameters (8 classes ×
// (dim/8 − 1) features + 8 biases; dim a multiple of 8) on a small blob
// dataset.
func allocGateConfig(t *testing.T, iters, dim int) TrainConfig {
	t.Helper()
	ds, err := data.Blobs(rng.New(5), 8, dim/8-1, 4, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewLogistic(ds)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dim() != dim {
		t.Fatalf("model dim %d, want %d", m.Dim(), dim)
	}
	return TrainConfig{
		Model:          m,
		Batch:          func(s *rng.Source) []int { return ds.Batch(s, 4) },
		LR:             0.05,
		Momentum:       0.9,
		Iterations:     iters,
		StalenessBound: 2,
		Seed:           9,
	}
}

// steadyStateBytes runs train with cfg.SlowDown rigged to read the heap
// counters when rank 0 starts iteration warm, and returns the bytes the
// whole process allocated from then to the end of the run.
func steadyStateBytes(cfg *TrainConfig, warm int, train func()) uint64 {
	var atWarm atomic.Uint64
	cfg.SlowDown = func(rank, iter int) time.Duration {
		if rank == 0 && iter == warm {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			atWarm.Store(ms.TotalAlloc)
		}
		return 0
	}
	train()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - atWarm.Load()
}

// TestRNAWorkerSteadyStateAllocs: a 4-rank in-memory RNA run allocates less
// than dim bytes — an eighth of one gradient — per rank per synchronization
// once the accumulator's buffers and the transport pools are warm, on the
// ring pair and on the tree.
func TestRNAWorkerSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const n, warm, iters = 4, 12, 72
	for _, dim := range []int{allocGateDim, treeGateDim} {
		cfg := allocGateConfig(t, iters, dim)
		assertGateSchedule(t, n, dim+1, dim == allocGateDim)
		ctrl, err := controller.New(controller.PowerOfChoices, n, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		bytes := steadyStateBytes(&cfg, warm, func() {
			trainCluster(t, n, func(m transport.Mesh) (*Result, error) {
				return RunRNAWorker(m, ctrl, cfg)
			})
		})
		perSync := float64(bytes) / float64((iters-warm)*n)
		t.Logf("%.0f bytes per rank per sync at dim %d", perSync, dim)
		if perSync >= float64(dim) {
			t.Errorf("dim %d: %.0f bytes allocated per rank per sync, want < dim", dim, perSync)
		}
	}
}

// assertGateSchedule fails unless the selector reduces elems elements over n
// ranks on the schedule a gate row is for: the ring pair at allocGateDim
// parameters, the tree at treeGateDim.
func assertGateSchedule(t *testing.T, n, elems int, ring bool) {
	t.Helper()
	if collective.AutoRunsRingPair(n, elems) != ring {
		t.Fatalf("the selector no longer reduces %d elements over %d ranks on the ring pair = %v", elems, n, ring)
	}
}

// TestHierarchicalExchangeSteadyStateAllocs: two groups of two over TCP
// with a networked PS rank and an exchange after every synchronization
// allocate less than an eighth of one model-sized vector (dim bytes) per
// group exchange, everything the process allocates — four ranks' RNA steps,
// every member's chunk exchange, the server — charged to the exchanges, so
// each member's share is below half of that: a member that allocated a
// buffer the size of its span per exchange (a delta, a staged pull) would
// read at least 4·dim.
func TestHierarchicalExchangeSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("TCP cluster in -short mode")
	}
	const warm, iters = 8, 40
	cfg := HierarchicalConfig{
		Train:   allocGateConfig(t, iters, allocGateDim),
		Groups:  hierPSGroups,
		PSEvery: 1,
		PS:      &ps.ClientConfig{Servers: []int{4}},
	}
	ctrls := allReadyControllers(t, cfg.Groups)
	meshes, err := transport.NewTCPCluster(5)
	if err != nil {
		t.Fatal(err)
	}
	initial, err := InitialParams(cfg.Train)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ps.NewServer(meshes[4], ps.ServerConfig{Key: HierarchicalPSKey, Dim: len(initial), Init: initial})
	if err != nil {
		t.Fatal(err)
	}
	workers := make([]transport.Mesh, 4)
	for i := range workers {
		workers[i] = meshes[i]
	}
	bytes := steadyStateBytes(&cfg.Train, warm, func() {
		runHierWorkers(t, workers, ctrls, cfg)
	})
	for _, m := range meshes {
		_ = m.Close()
	}
	if err := srv.Wait(); err != nil {
		t.Fatalf("ps server: %v", err)
	}
	perExchange := float64(bytes) / float64((iters-warm)*len(cfg.Groups))
	t.Logf("%.0f bytes per group exchange (%.0f per member) at dim %d", perExchange, perExchange/2, allocGateDim)
	if perExchange >= allocGateDim {
		t.Errorf("%.0f bytes allocated per exchange, want < dim = %d", perExchange, allocGateDim)
	}
}

// TestBSPWorkerSteadyStateAllocs: a 4-rank in-memory BSP run allocates less
// than dim bytes per rank per synchronization, on the ring pair every dense
// run takes and on the tree the hetero_* and latency_bsp runs take: no
// per-call scratch on either.
func TestBSPWorkerSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const n, warm, iters = 4, 12, 72
	for _, dim := range []int{allocGateDim, treeGateDim} {
		cfg := allocGateConfig(t, iters, dim)
		assertGateSchedule(t, n, dim, dim == allocGateDim)
		ctrl, err := controller.New(controller.AllReady, n, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		bytes := steadyStateBytes(&cfg, warm, func() {
			trainCluster(t, n, func(m transport.Mesh) (*Result, error) {
				return RunBSPWorker(m, ctrl, cfg)
			})
		})
		perSync := float64(bytes) / float64((iters-warm)*n)
		t.Logf("%.0f bytes per rank per sync at dim %d", perSync, dim)
		if perSync >= float64(dim) {
			t.Errorf("dim %d: %.0f bytes allocated per rank per sync, want < dim", dim, perSync)
		}
	}
}

// TestRNAGradBuffersIndependentOfBound: however far the staleness bound lets
// compute run ahead, a rank's pool of gradients and parameter versions
// allocates at most maxFree = 4 buffers for the whole run, because gradients
// of one parameter version share one and the reduced one becomes the next
// version. The pool has at most five buffers in use at once (the current
// version, the compute thread's lease and at most three of the pending
// slots, the communication thread's buffer and a superseded pinned version;
// maxFree has the argument), one of which is the initial parameters, which
// Lease does not allocate. With a buffer per gradient the count grew with η
// (2–3 at η = 2, 6–9 at 8, 23–33 at 32).
func TestRNAGradBuffersIndependentOfBound(t *testing.T) {
	const n, iters = 4, 64
	for _, eta := range []int{2, 8, 32} {
		cfg := allocGateConfig(t, iters, allocGateDim)
		cfg.StalenessBound = eta
		ctrl, err := controller.New(controller.PowerOfChoices, n, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		results := trainCluster(t, n, func(m transport.Mesh) (*Result, error) {
			return RunRNAWorker(m, ctrl, cfg)
		})
		buffers := make([]int, n)
		for r, res := range results {
			buffers[r] = res.GradBuffers
			if res.GradBuffers < 1 || res.GradBuffers > maxFree {
				t.Errorf("η = %d rank %d: %d model-sized buffers allocated, want 1 to %d", eta, r, res.GradBuffers, maxFree)
			}
		}
		t.Logf("η = %d: model-sized buffers per rank %v", eta, buffers)
	}
}
