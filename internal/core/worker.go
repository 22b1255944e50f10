package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/collective"
	"repro/internal/controller"
	"repro/internal/model"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// TrainConfig configures one training worker on the goroutine runtime.
type TrainConfig struct {
	// Model is the training objective (shared read-only across workers).
	Model model.Model
	// Batch samples a mini-batch of example indices for one step.
	Batch func(src *rng.Source) []int
	// LR, Momentum and WeightDecay configure the SGD optimizer.
	LR          float64
	Momentum    float64
	WeightDecay float64
	// Iterations bounds both halves of a rank: it runs exactly this many
	// compute steps and joins exactly this many synchronizations. Under BSP
	// the two are the same count; under RNA a synchronization takes whatever
	// the rank finished since the last one, so some join empty-handed and
	// some carry several steps.
	Iterations int
	// StalenessBound is the bounded-delay window η (≥ 1; default 8), counted
	// in parameter versions. Compute step j waits for synchronization j−η;
	// synchronization k waits until every rank has announced k+1−η gradients
	// (controller.Floor); and the accumulator drops a gradient whose τ, the
	// synchronizations published since the parameters it was computed from,
	// has reached η. A rank that is slow forever still reads fresh parameters,
	// so it keeps contributing.
	StalenessBound int
	// Seed derives this worker's RNG streams.
	Seed int64
	// SlowDown optionally injects extra compute latency per iteration
	// for a given rank (tests and examples use it to create stragglers).
	SlowDown func(rank, iter int) time.Duration
	// Adam selects the Adam optimizer (standard β₁/β₂/ε) instead of
	// momentum-SGD; LR and WeightDecay apply, Momentum is ignored.
	Adam bool
	// ShardedUpdate forces the owner-computes update path at any size:
	// reduce-scatter → owned-shard optimizer step → parameter allgather.
	// Optimizer state and update compute shrink from full-vector-per-rank to
	// one owned span per rank, and the result is bit-identical to the
	// replicated path on a pinned ring (ring fold order, owner-side scale).
	// Leaving it off does not mean the replicated update: AlgoAuto takes this
	// path by itself wherever it costs nothing (see Algorithm).
	ShardedUpdate bool
	// Algorithm selects the dense collective schedule (validate rejects a
	// value the engine lacks). The zero value, AlgoAuto, lets the cost model
	// choose per (ranks, size) — and where it chooses the ring, and
	// at 2 ranks at any size, the ring runs as its two halves with the
	// owner-computes update between them: the ring's bytes (at 2 ranks the
	// tree's critical path), the same bits, one optimizer step per element
	// instead of one per element per rank. A pinned value means the
	// replicated update on exactly that schedule; pinning AlgoRing is how a
	// test or an A/B asks for the replicated ring at any vector size.
	Algorithm collective.Algorithm
}

func (c *TrainConfig) validate() error {
	if c.Model == nil {
		return fmt.Errorf("core: nil model")
	}
	if c.Batch == nil {
		return fmt.Errorf("core: nil batch sampler")
	}
	if c.Iterations < 1 {
		return fmt.Errorf("core: %d iterations", c.Iterations)
	}
	if !c.Algorithm.Valid() {
		return fmt.Errorf("core: unknown collective algorithm %d", c.Algorithm)
	}
	return nil
}

// newOptimizer builds the configured update rule over dim parameters (a
// full vector for the replicated path, one owned span for the sharded one).
func (c *TrainConfig) newOptimizer(dim int) (opt.Optimizer, error) {
	if c.Adam {
		return opt.NewAdam(dim, c.LR, c.WeightDecay)
	}
	return opt.NewSGD(dim, c.LR, c.Momentum, c.WeightDecay)
}

func (c *TrainConfig) bound() int {
	if c.StalenessBound < 1 {
		return 8
	}
	return c.StalenessBound
}

// Result reports one worker's training outcome.
type Result struct {
	// Params is the final parameter vector.
	Params tensor.Vector
	// Losses holds the batch loss observed at each local compute step.
	Losses []float64
	// Contributed counts synchronizations this worker fed a real
	// gradient into; NullContribs counts the null contributions.
	Contributed  int
	NullContribs int
	// StaleDropped counts the gradients this worker computed and then
	// discarded because they exceeded the staleness bound before a
	// synchronization took them (RNA only).
	StaleDropped int
	// EmptySyncs counts the synchronizations no rank contributed to (RNA
	// only; the same on every rank), and Staleness the gradients this rank's
	// synchronizations took by τ, in StalenessBound buckets (nil for BSP and
	// eager-SGD).
	EmptySyncs int
	Staleness  []int
	// GradBuffers counts the model-sized buffers this rank's gradient source
	// ever allocated (Lease calls that found the free list empty). Under RNA
	// and eager-SGD the parameter versions live in the same pool — a reduced
	// gradient becomes the next version — so this is every model-sized
	// buffer the rank holds besides the initial parameters: at most four
	// whatever StalenessBound is (maxFree). 0 for BSP.
	GradBuffers int
	// Elapsed is the worker's wall-clock training time.
	Elapsed time.Duration
	// OptStateBytes is this rank's persistent optimizer-state footprint —
	// full-vector for the replicated update, one owned span for the
	// owner-computes one (ShardedUpdate, or AlgoAuto on the ring pair):
	// the N× memory reduction the benchmarks record. Over the ranks of an
	// owner-computes run it sums to the replicated per-rank figure.
	OptStateBytes int64
}

// newRank returns what every discipline starts a rank from: the initial
// parameters, identical on all ranks, and the rank's private batch stream.
// The vector has one spare element of capacity, the shape of an RNA version.
func (c *TrainConfig) newRank(rank int) (params tensor.Vector, batches *rng.Source) {
	params = make(tensor.Vector, c.Model.Dim(), c.Model.Dim()+1)
	c.Model.Init(rng.New(c.Seed+7777), params)
	return params, rng.New(c.Seed).Split(rank + 1)
}

// slowDown sleeps for the injected compute latency of (rank, iteration k).
func (c *TrainConfig) slowDown(rank int, k int64) {
	if c.SlowDown == nil {
		return
	}
	if d := c.SlowDown(rank, int(k)); d > 0 {
		time.Sleep(d)
	}
}

// RunBSPWorker trains with the Horovod-style blocking baseline: compute,
// wait at the global barrier, fully AllReduce-average, step. It uses the
// same controller (with the AllReady policy), collective stack and sync
// stages as the RNA worker, so that RNA-vs-BSP comparisons isolate the
// synchronization discipline.
func RunBSPWorker(mesh transport.Mesh, ctrl *controller.Controller, cfg TrainConfig) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return bspLoop(mesh, ctrl, cfg)
}

// bspLoop is the one blocking step loop: sample, gradient, barrier, stage.
func bspLoop(mesh transport.Mesh, ctrl *controller.Controller, cfg TrainConfig) (*Result, error) {
	start := time.Now()
	rank := mesh.Rank()
	st, err := newStage(mesh, &cfg, cfg.Model.Dim(), nil)
	if err != nil {
		return nil, err
	}
	params, batches := cfg.newRank(rank)
	res := &Result{Losses: make([]float64, 0, cfg.Iterations)}
	grad := tensor.New(len(params))

	step := func(k int64) error {
		loss, err := cfg.Model.Gradient(params, grad, cfg.Batch(batches))
		if err != nil {
			return err
		}
		cfg.slowDown(rank, k)
		res.Losses = append(res.Losses, loss)
		if err := ctrl.Ready(rank, k); err != nil {
			return err
		}
		fired, _ := ctrl.Await(k)
		<-fired
		if err := st.full(k, params, grad); err != nil {
			return err
		}
		res.Contributed++
		if rank == 0 {
			ctrl.Forget(k - 2)
		}
		return nil
	}
	for k := int64(0); k < int64(cfg.Iterations); k++ {
		if err := step(k); err != nil {
			return nil, fmt.Errorf("rank %d iter %d: %w", rank, k, err)
		}
	}
	return st.finish(res, params, start), nil
}

// RunRNAWorker trains with the RNA protocol: a compute thread produces
// gradients into an Accumulator and announces readiness to the controller;
// a communication thread joins every partial AllReduce the controller
// fires, contributing the staleness-weighted local reduction (or a null
// gradient) and applying one step on all the mini-batches the
// synchronization carries (stage.partial). All ranks converge on identical
// parameters because every rank applies the same reduced update.
func RunRNAWorker(mesh transport.Mesh, ctrl *controller.Controller, cfg TrainConfig) (*Result, error) {
	return runRNA(mesh, ctrl, cfg, nil)
}

// runRNA is RunRNAWorker with an optional parameter-server exchange, run by
// the owner-computes update (the hierarchical scheme's member).
func runRNA(mesh transport.Mesh, ctrl *controller.Controller, cfg TrainConfig, ex exchanger) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	acc, err := NewAccumulator(cfg.Model.Dim(), cfg.bound())
	if err != nil {
		return nil, err
	}
	return rnaLoop(mesh, ctrl, cfg, acc, ex)
}

// versions is the RNA worker's parameter store. A published parameter vector
// is immutable: the compute thread pins the current one for the length of one
// Gradient call and copies nothing, and the communication thread — the only
// writer — builds the next one in the buffer its synchronization reduced
// (stage.partial) and makes it current in one step, together with synced.
// Nothing of a synchronization (the update, a parameter-server exchange, a
// half-finished allgather) is visible before that step, and no lock is held
// while a version is read or written, only while one changes hands.
//
// Versions and gradients share one pool, the gradient source's: a reduced
// buffer becomes the next version, and the version it supersedes goes back
// through retire (gradSource.Recycle) at publish, or at unpin when a compute
// step still reads it. Each version therefore has the shape of a gradient
// buffer, dim long with a spare element, so the owner-computes allgather rings
// over the flag-extended partition its scatter used.
//
// It also holds the rest of what the two threads share: synced, and the first
// error of either, which stops both (fail).
type versions struct {
	mu   sync.Mutex // guards cur, pinned, synced and err
	cond *sync.Cond
	// cur is the published version, pinned the one the compute thread reads
	// (nil: none): cur itself, or a version a publish has since superseded.
	cur, pinned tensor.Vector
	retire      func(tensor.Vector) // takes back a superseded version; under mu, must not block
	synced      int64               // last published synchronization
	err         error               // first failure of either thread
	failed      chan struct{}       // closed when err is set
}

// newVersions publishes params (from newRank) as the version before
// synchronization 0; retire takes back every version a later one supersedes.
func newVersions(params tensor.Vector, retire func(tensor.Vector)) *versions {
	v := &versions{cur: params, retire: retire, synced: -1, failed: make(chan struct{})}
	v.cond = sync.NewCond(&v.mu)
	return v
}

// pin waits until iteration k is within bound of the last published
// synchronization (bounded staleness) and returns the current version, which
// stays untouched until unpin, with the synchronization that published it. ok
// is false when the worker failed instead.
func (v *versions) pin(k, bound int64) (params tensor.Vector, synced int64, ok bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for k-v.synced > bound && v.err == nil {
		v.cond.Wait()
	}
	if v.err != nil {
		return nil, 0, false
	}
	v.pinned = v.cur
	return v.cur, v.synced, true
}

// unpin ends the pin, retiring the pinned version if a publish superseded it
// meanwhile.
func (v *versions) unpin() {
	v.mu.Lock()
	if !sameVector(v.pinned, v.cur) {
		v.retire(v.pinned)
	}
	v.pinned = nil
	v.mu.Unlock()
}

// published returns the last published synchronization.
func (v *versions) published() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.synced
}

// current returns the published version. Communication thread only: it is
// cur's one writer, so it reads it without the lock.
func (v *versions) current() tensor.Vector { return v.cur }

// publish completes synchronization k: next, if the synchronization built a
// version, becomes current in the same step that advances synced, and the
// version it supersedes is retired in that step too, unless a compute step
// still reads it. Retiring before the compute thread can pass the gate at
// k+1 is what keeps a version and the gradients of the next one from being
// in use at once (maxFree). Communication thread only.
func (v *versions) publish(k int64, next tensor.Vector) {
	v.mu.Lock()
	if next != nil {
		if !sameVector(v.cur, v.pinned) {
			v.retire(v.cur)
		}
		v.cur = next
	}
	v.synced = k
	v.cond.Broadcast()
	v.mu.Unlock()
}

// sameVector reports whether a and b are the same buffer.
func sameVector(a, b tensor.Vector) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// fail records the worker's first error and stops both threads: it wakes a
// compute thread parked on the staleness gate (through cond) and a
// communication thread parked on a trigger this rank will never announce
// (through the closed channel).
func (v *versions) fail(err error) {
	v.mu.Lock()
	if v.err == nil {
		v.err = err
		close(v.failed)
		v.cond.Broadcast()
	}
	v.mu.Unlock()
}

// gradSource is where the RNA compute thread leaves its gradients and the
// communication thread collects the rank's contribution: the Accumulator for
// RNA (staleness-weighted fold of everything since the last synchronization),
// the single-slot eagerMailbox for eager-SGD. Every buffer it hands out is
// dim long with capacity ≥ dim+1 (the partial collective's flag slot).
type gradSource interface {
	// Lease hands out a buffer with unspecified contents; Commit takes it
	// back filled with the gradient of compute step step, computed for
	// synchronization stamp (one past the version it read), and returns the
	// tag to announce to the controller.
	Lease() tensor.Vector
	Commit(step, stamp int64, g tensor.Vector) (tag int64, err error)
	// TakeN returns the contribution to synchronization current, owned by
	// the caller until Recycle, and n, the mini-batches it carries: its weight
	// in the partial collective, 0 when the rank has nothing to give.
	TakeN(current int64) (g tensor.Vector, n int, err error)
	Recycle(g tensor.Vector)
	// Dropped counts gradients discarded by the staleness bound, Staleness
	// the ones taken, by τ, Buffers the buffers Lease had to allocate.
	Dropped() int64
	Staleness() []int
	Buffers() int
}

// errStopped is what a thread of rnaLoop returns when it stops because the
// other one failed; the failure itself is already recorded.
var errStopped = errors.New("core: worker stopped")

// rnaLoop is the one non-blocking worker: a compute thread and a
// communication thread decoupled through src (cross-iteration execution,
// Fig. 4), sharing the parameters through versions.
//
// The compute thread never runs more than the staleness bound ahead of the
// last published synchronization; the communication thread joins every
// synchronization the controller fires, with the rank's contribution or a
// null gradient, and has the stage apply the result.
//
// The two count different things. A compute step's gradient is stamped with
// the version it read and announced under the first synchronization that can
// still take it (gradSource.Commit), so a synchronization fires on a probed
// rank that holds something new, never on how far a rank has counted, and the
// next one takes it. The last step announces the last synchronization, so
// whatever is left of the budget fires without waiting for gradients that will
// not come.
//
// The first error of either thread, wrapped once with its rank and iteration,
// stops both (versions.fail).
func rnaLoop(mesh transport.Mesh, ctrl *controller.Controller, cfg TrainConfig, src gradSource, ex exchanger) (*Result, error) {
	start := time.Now()
	rank := mesh.Rank()
	bound, last := int64(cfg.bound()), int64(cfg.Iterations)-1
	st, err := newStage(mesh, &cfg, cfg.Model.Dim()+1, ex)
	if err != nil {
		return nil, err
	}
	params, batches := cfg.newRank(rank)
	if ex != nil {
		ex.seed(params)
	}
	vs := newVersions(params, src.Recycle)
	res := &Result{Losses: make([]float64, 0, cfg.Iterations)}
	ctrl.Bound(bound)

	compute := func(k int64) error {
		params, synced, ok := vs.pin(k, bound)
		if !ok {
			return errStopped
		}
		batch := cfg.Batch(batches)
		// The model reads the pinned version and writes straight into a
		// source-owned buffer.
		g := src.Lease()
		loss, err := cfg.Model.Gradient(params, g, batch)
		vs.unpin()
		if err != nil {
			return err
		}
		cfg.slowDown(rank, k)
		res.Losses = append(res.Losses, loss)
		if vs.published() == last {
			// No synchronization is left to take it.
			src.Recycle(g)
			return nil
		}
		tag, err := src.Commit(k, synced+1, g)
		if err != nil {
			return err
		}
		if k == last {
			tag = last
		}
		return ctrl.Ready(rank, tag)
	}

	comm := func(k int64) error {
		fired, _ := ctrl.Await(k)
		select {
		case <-fired:
		case <-vs.failed:
			return errStopped
		}
		buf, n, err := src.TakeN(k)
		if err != nil {
			return err
		}
		if n > 0 {
			res.Contributed++
		} else {
			// A null contribution still needs a buffer to receive the sum;
			// the collective zeroes it.
			buf = src.Lease()
			res.NullContribs++
		}
		next, err := st.partial(k, vs.current(), buf, n)
		if err != nil {
			return err
		}
		if next == nil {
			src.Recycle(buf)
		}
		// One publish per synchronization, after the stage: the compute step
		// that passes the gate at k+1 then deterministically sees the update
		// and the parameter-server exchange together, which is what keeps
		// ordered hierarchical runs bitwise reproducible.
		vs.publish(k, next)
		if rank == 0 {
			ctrl.Forget(k - bound - 2)
		}
		return nil
	}

	var wg sync.WaitGroup
	for _, step := range []func(int64) error{compute, comm} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int64(0); k < int64(cfg.Iterations); k++ {
				if err := step(k); err != nil {
					vs.fail(fmt.Errorf("rank %d iter %d: %w", rank, k, err))
					return
				}
			}
		}()
	}
	wg.Wait()
	if vs.err != nil {
		return nil, vs.err
	}
	res.StaleDropped, res.Staleness, res.GradBuffers = int(src.Dropped()), src.Staleness(), src.Buffers()
	return st.finish(res, vs.current(), start), nil
}
