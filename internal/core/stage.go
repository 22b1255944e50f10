package core

import (
	"fmt"
	"time"

	"repro/internal/collective"
	"repro/internal/controller"
	"repro/internal/model"
	"repro/internal/opt"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Sync stages: what a synchronization does between the trigger and the next
// compute step. bspLoop and rnaLoop (worker.go) own the trigger, the
// threads and the bookkeeping; a stage owns the reduction and the update.
// It is chosen once per run, by newStage, from TrainConfig, the mesh size,
// the length of the vector the loop reduces and whether the rank is a
// hierarchical group member with a parameter-server exchange:
//
//   - owner-computes: reduce-scatter, every rank steps the span it owns,
//     parameter allgather (shardedReducer). Selected by ShardedUpdate, and by
//     AlgoAuto itself at an fp64 wire wherever it would run the pipelined
//     ring, and at 2 ranks (ownerComputes): the two ring halves ship the
//     ring's bytes, the result is bit-identical, and the optimizer step runs
//     once per element instead of once per element per rank. A hierarchical
//     member always runs it, whatever its group size and wire: its table
//     follows the parameter server's chunks, and on an exchange
//     synchronization each member exchanges the span it owns between its step
//     and the allgather, which then ships the pulled global model (exchanger,
//     hierarchical.go);
//   - replicated: AllReduce the whole gradient, every rank steps the whole
//     vector (replicatedReducer): the tree, lossy wires, a pinned Algorithm;
//   - bucketed (Overlap): not a third reduction but a wrapper — either of the
//     two above runs once per bucket of the shared plan, each bucket on its
//     own collective.Async stream; the update stays one call.
//
// Each reduction has a full-participation entry (reduce, for BSP) and a
// partial-participation entry (reducePartial, for RNA and eager-SGD).

// reducer is the part of a synchronization that differs between the
// replicated and the owner-computes update. It works span by span — b indexes
// the stage's plan — on whatever mesh view the stage hands it, so the same
// code serves the whole-vector call and a bucket's stream.
type reducer interface {
	// reduce averages span b of grad over all ranks of m. Afterwards the
	// part of the span this rank owns (all of it when replicated) is final.
	reduce(m transport.Mesh, k int64, grad tensor.Vector, b int) error
	// reducePartial sums span b of buf over the contributing ranks of m and
	// returns their count, identical on every rank; with contributes false
	// buf's contents are ignored. buf is a gradSource buffer: the element
	// after the last one is spare.
	reducePartial(m transport.Mesh, k int64, buf tensor.Vector, b int, contributes bool) (int, error)
	// owned is the span of the vector this rank steps.
	owned() (lo, hi int)
	// update steps the parameters over the owned span from the reduced
	// gradient times mean (the contributors' mean of a partial sum, 1 for
	// BSP's average): it reads them from cur, writes them to next and leaves
	// next complete and identical on all ranks. Neither cur nor g is written,
	// unless cur is next itself (BSP, whose one vector is updated in place).
	// A nil g (owner-computes with an exchange due only) skips the step and
	// exchanges cur's owned span.
	update(k int64, cur, next, g tensor.Vector, mean, scale float64) error
	// stateBytes is the rank's persistent optimizer-state footprint.
	stateBytes() int64
}

// stage runs a reducer over a plan: one whole-vector span reduced on the
// rank's own mesh, or (as != nil) the bucket plan, one stream per bucket.
//
// The reducer pipeline — comm/compute overlap. A blocking step pays compute
// + comm back to back. The bucketed stage derives a bucket plan — emission
// spans from the model's layered backward pass, coalesced under
// TrainConfig.FusionBytes — and launches each bucket's reduction the moment
// backprop finalizes the bucket's last layer (BSP), or all of them at once
// from the communication thread (RNA, which already overlaps compute with
// communication across iterations; bucketing pipelines the reduction itself,
// so a straggling chunk of one bucket no longer idles the link).
//
// Bit-identity. The plan is a pure function of (model architecture,
// FusionBytes), so every rank derives the identical bucket list. Each
// bucket's reduction is the deterministic synchronous engine running on a
// private tag stream over a disjoint parameter span, so launching the
// buckets concurrently, serially (OverlapSerial), or in any interleaving
// produces the same bits. A plan with a single bucket is additionally
// bit-identical to the unbucketed stage: the same reduction runs once with
// the same inputs, and its result does not depend on the stream it runs on.
type stage struct {
	red  reducer
	mesh transport.Mesh
	plan []model.Bucket
	ex   exchanger // the hierarchical member's exchange, nil otherwise

	as       *collective.Async
	serial   bool
	handles  []*collective.Handle
	counts   []int // per-bucket contributor counts of a partial round
	launched int   // buckets launched by the current BSP backward pass
	empty    int   // partial rounds nobody contributed to
}

// DefaultFusionBytes is the bucket-size cap of the bucketed stage when
// TrainConfig.FusionBytes is unset: Horovod's default fusion-buffer threshold
// (64 MiB), which the paper's Horovod baseline runs with (Section 7.3).
const DefaultFusionBytes = 64 << 20

// ownerComputes is the one predicate, the same for BSP and RNA, that turns the
// owner-computes update on: asked for, or free. It is free where AlgoAuto
// runs the loop's vector (reduced elements: the gradient, plus RNA's flag
// slot) as the ring pair at an fp64 wire — collective.AutoRunsRingPair
// answers that: wherever it would pick the pipelined ring, whose bytes and
// bits the pair reproduces, and at 2 ranks, where the pair has the tree's
// two-hop critical path and bits at half the bytes per hop. A pinned
// Algorithm keeps meaning the replicated update on exactly that schedule;
// lossy wires (master weights are different arithmetic) and the bucketed
// stage stay where the configuration put them.
func ownerComputes(cfg *TrainConfig, n, reduced int) bool {
	return cfg.ShardedUpdate || (cfg.Algorithm == collective.AlgoAuto && cfg.Compression == tensor.F64 &&
		!cfg.Overlap && collective.AutoRunsRingPair(n, reduced, tensor.F64))
}

// newStage selects the stage for cfg: the plan (Overlap), then the reducer
// over it (ownerComputes, or an exchange to run). reduced is the length of the
// vector the loop hands the reduction: dim for BSP, dim+1 for the
// flag-extended RNA buffers. A stage with an exchange runs unbucketed
// (RunHierarchicalWorker refuses Overlap).
func newStage(mesh transport.Mesh, cfg *TrainConfig, reduced int, ex exchanger) (*stage, error) {
	dim := cfg.Model.Dim()
	s := &stage{mesh: mesh, plan: []model.Bucket{{Span: model.Span{Lo: 0, Hi: dim}}}, ex: ex}
	if cfg.Overlap {
		fusion := cfg.FusionBytes
		if fusion <= 0 {
			fusion = DefaultFusionBytes
		}
		s.plan = model.PlanBuckets(model.Buckets(cfg.Model), fusion)
		if err := model.ValidateBuckets(s.plan, dim); err != nil {
			return nil, fmt.Errorf("core: bucket plan: %w", err)
		}
		s.as = collective.NewAsync(mesh)
		s.serial = cfg.OverlapSerial
		s.handles = make([]*collective.Handle, len(s.plan))
		s.counts = make([]int, len(s.plan))
	}
	var err error
	if ex != nil || ownerComputes(cfg, mesh.Size(), reduced) {
		s.red, err = newShardedReducer(mesh, cfg, s.plan, reduced, ex)
	} else {
		s.red, err = newReplicatedReducer(mesh, cfg, s.plan)
	}
	return s, err
}

func (s *stage) bucketed() bool { return s.as != nil }

// start launches run on bucket b's stream. In OverlapSerial mode each launch
// is joined immediately, which serializes the buckets — the sequential
// reference schedule.
func (s *stage) start(b int, run func(m transport.Mesh) error) error {
	h, err := s.as.Go(int32(b), run)
	if err != nil {
		return err
	}
	if s.serial {
		return h.Wait()
	}
	s.handles[b] = h
	return nil
}

// join waits for every bucket still in flight.
func (s *stage) join() error {
	var first error
	for b, h := range s.handles {
		if h == nil {
			continue
		}
		if err := h.Wait(); err != nil && first == nil {
			first = err
		}
		s.handles[b] = nil
	}
	return first
}

// emitter returns the model.GradientEmit callback of BSP iteration k: it
// launches the reduction of every bucket whose last layer has now finalized
// (the plan is in readiness order).
func (s *stage) emitter(k int64, grad tensor.Vector) func(layer int) error {
	s.launched = 0
	return func(layer int) error {
		for s.launched < len(s.plan) && s.plan[s.launched].LastLayer <= layer {
			b := s.launched
			s.launched++
			if err := s.start(b, func(m transport.Mesh) error { return s.red.reduce(m, k, grad, b) }); err != nil {
				return err
			}
		}
		return nil
	}
}

// full is the stage's BSP entry: average grad over all ranks and step. When
// bucketed, the emitter launched the reductions during backprop and only the
// join is left.
func (s *stage) full(k int64, params, grad tensor.Vector) error {
	if !s.bucketed() {
		if err := s.red.reduce(s.mesh, k, grad, 0); err != nil {
			return err
		}
	} else {
		if err := s.join(); err != nil {
			return err
		}
		if s.launched != len(s.plan) {
			return fmt.Errorf("core: %d of %d buckets launched", s.launched, len(s.plan))
		}
	}
	return s.red.update(k, params, params, grad, 1, 1)
}

// partial is the stage's RNA entry: reduce buf over the contributing ranks
// and apply ḡ = W·Σg, W = 1/Σw, with γ_k scaled by Σw/N (the Linear Scaling
// Rule of Algorithm 2; controller.Step gives both factors, for the simulator
// too). buf belongs to the stage for the call. The update folds W into its
// one pass, reads the newest parameters and writes the version under
// construction (versions, worker.go), which no other thread can see: no lock
// is held, so neither the step nor the parameter allgather can stall the
// compute thread. When nobody contributed, every rank skips the step in
// lockstep; on an exchange synchronization the exchange still runs, its delta
// taken from the published parameters.
func (s *stage) partial(k int64, vs *versions, buf tensor.Vector, contributes bool) error {
	count, err := s.reducePartial(k, buf, contributes)
	if err != nil {
		return err
	}
	if count == 0 {
		s.empty++
		if s.ex == nil || !s.ex.due(k) {
			return nil
		}
		return s.red.update(k, vs.latest(), vs.begin(), nil, 0, 0)
	}
	mean, scale, err := controller.Step(count, s.mesh.Size())
	if err != nil {
		return err
	}
	cur := vs.latest()
	return s.red.update(k, cur, vs.begin(), buf, mean, scale)
}

// reducePartial runs the partial reduction over the plan. Every bucket
// carries its own contributor flag; all ranks pass the same contributes bit
// to every bucket of an iteration, so the counts agree across buckets by
// construction (verified here).
func (s *stage) reducePartial(k int64, buf tensor.Vector, contributes bool) (int, error) {
	if !s.bucketed() {
		return s.red.reducePartial(s.mesh, k, buf, 0, contributes)
	}
	for b := range s.plan {
		if err := s.start(b, func(m transport.Mesh) (err error) {
			s.counts[b], err = s.red.reducePartial(m, k, buf, b, contributes)
			return err
		}); err != nil {
			return 0, err
		}
	}
	if err := s.join(); err != nil {
		return 0, err
	}
	for b, c := range s.counts {
		if c != s.counts[0] {
			return 0, fmt.Errorf("core: bucket %d counted %d contributors, bucket 0 counted %d", b, c, s.counts[0])
		}
	}
	return s.counts[0], nil
}

// finish is the one Result epilogue: whatever the path, the fields come from
// the stage that ran.
func (s *stage) finish(res *Result, params tensor.Vector, start time.Time) *Result {
	res.Params = params
	res.EmptySyncs = s.empty
	res.OptStateBytes = s.red.stateBytes()
	if s.bucketed() {
		res.MaxInFlight = s.as.MaxInFlight()
	}
	res.Elapsed = time.Since(start)
	return res
}

// replicatedReducer is the replicated update: every rank reduces and steps
// the whole vector.
//
// Error feedback (lossy wires). The residual holds the quantization error
// this rank's owned regions of the collective suffered in earlier rounds, and
// is folded into the next contribution span by span (spans are disjoint, so
// bucketing leaves the per-element arithmetic unchanged).
type replicatedReducer struct {
	plan     []model.Bucket
	dim, n   int
	opts     collective.Options // Algorithm and Compression, as configured
	residual tensor.Vector      // nil when compression is off
	optim    opt.Optimizer
}

func newReplicatedReducer(mesh transport.Mesh, cfg *TrainConfig, plan []model.Bucket) (*replicatedReducer, error) {
	dim := cfg.Model.Dim()
	optim, err := cfg.newOptimizer(dim)
	if err != nil {
		return nil, err
	}
	return &replicatedReducer{
		plan: plan, dim: dim, n: mesh.Size(), optim: optim, residual: cfg.residual(dim),
		opts: collective.Options{Algorithm: cfg.Algorithm, Compression: cfg.Compression},
	}, nil
}

func (r *replicatedReducer) reduce(m transport.Mesh, k int64, grad tensor.Vector, b int) error {
	sp := r.plan[b]
	seg, opts := grad[sp.Lo:sp.Hi], r.opts
	if r.residual != nil {
		// The residual is the error of the AVERAGED result, so scaling by n
		// before the local add makes the next average regain exactly
		// Σ_r residual_r.
		opts.Residual = r.residual[sp.Lo:sp.Hi]
		_ = seg.AddScaled(float64(r.n), opts.Residual)
		opts.Residual.Zero()
	}
	return collective.AllReduceOpts(m, k, seg, collective.OpAverage, opts)
}

func (r *replicatedReducer) reducePartial(m transport.Mesh, k int64, buf tensor.Vector, b int, contributes bool) (int, error) {
	sp := r.plan[b]
	seg, opts := buf[sp.Lo:sp.Hi], r.opts
	if r.residual != nil {
		opts.Residual = r.residual[sp.Lo:sp.Hi]
		if contributes {
			// The partial collective sums contributions before quantizing, so
			// summing the per-rank residuals back in reconstructs the lost mass
			// exactly (in expectation the compressed trajectory tracks the
			// fp64 one).
			_ = seg.Add(opts.Residual)
			opts.Residual.Zero()
		}
	}
	if sp.Hi == len(buf) {
		// The span ends the buffer, so its flag slot is the buffer's spare
		// capacity: reduced where it lies.
		return collective.PartialAllReduceInPlace(m, k, buf[sp.Lo:sp.Hi+1], contributes, opts)
	}
	// An interior bucket is followed by the next bucket's data, so the
	// flag-extended vector is staged in a pooled buffer.
	pr, err := collective.PartialAllReduceOpts(m, k, seg, contributes, opts)
	if err != nil {
		return 0, err
	}
	copy(seg, pr.Sum)
	count := pr.Contributors
	pr.Release()
	return count, nil
}

func (r *replicatedReducer) owned() (lo, hi int) { return 0, r.dim }

func (r *replicatedReducer) update(_ int64, cur, next, g tensor.Vector, mean, scale float64) error {
	_, err := r.optim.StepTo(next, cur, g, mean, scale)
	return err
}

func (r *replicatedReducer) stateBytes() int64 { return r.optim.StateBytes() }

// shardedReducer is the owner-computes update (ZeRO-style): instead of every
// rank reducing the full gradient and redundantly running the full optimizer
// over a full copy of optimizer state, the synchronization decomposes into
// reduce-scatter → owned-shard optimizer step → parameter allgather. Each
// rank is the only one holding optimizer state for the span it owns, so state
// memory and update compute both shrink N×.
//
// Who owns what is decided once, here, because both halves must agree on it
// for the whole run. Unbucketed (one whole-vector span) the halves are the
// ring pair over the reduced vector — the gradient for BSP, the flag-extended
// buffer for RNA — and rank r owns the part the ring completes at it
// (collective.RingOwned), minus the flag slot: a uniform chunk, or, for a
// hierarchical member, the run of parameter-server chunks its exchanger's
// table gives it, the flag slot closing the last part. Bucketed, rank r owns
// span offs[r]:offs[r+1] of the uniform table over the parameters and the
// halves are the direct exchange; per bucket the reduce-scatter runs over the
// table clipped to the bucket's span (the buckets partition the vector, so the
// owned parts add up to the owned span, and the step and the allgather run
// once over it).
//
// Bit-identity. Both scatters fold every element in the pipelined ring's
// order from its uniform chunk index and scale at the owner
// (collective/shard_ring.go, shard.go), the optimizers are strictly
// element-wise with state depending only on the step count, and the fp64
// allgather moves bits verbatim — so under ANY ownership the sharded update
// reproduces the replicated one (with a pinned ring schedule) bit for bit,
// and each rank's optimizer state equals the matching slice of the
// replicated state. A hierarchical member's table moves fold starts off the
// uniform chunks, so from three ranks up its group is bit-identical to itself
// only; at two ranks every table gives the same bits. Bucketed, the fold
// order follows the bucket, not the vector — bit-identical across schedules
// of one plan, and to the unbucketed update when the plan is one bucket.
//
// Lossy wires (the fp64-reduce / compressed-allgather invariant). The
// reduction always ships exact fp64, so there is no gradient error feedback
// here; Compression applies to the parameter allgather only. The owner then
// keeps MASTER WEIGHTS for its span: the residual holds exact-minus-quantized
// after each gather (tensor.RoundTripEF at the owner), and adding it back
// before the next step restores the exact fp64 trajectory. Gradients are
// evaluated at the quantized parameters on every rank — the usual
// mixed-precision contract — and all ranks stay bit-identical because they
// all hold the same decoded grid values.
type shardedReducer struct {
	plan []model.Bucket
	mesh transport.Mesh
	// reduced is the length of the ring pair's vector; 0 selects the direct
	// exchange over offs.
	reduced int
	table   []int         // the ring pair's ownership table; nil: uniform
	ex      exchanger     // run between the step and the allgather when due
	offs    []int         // ownership table over the whole vector
	clipped [][]int       // per bucket: offs clipped to the span, span-relative
	lo, hi  int           // the owned span of the parameters
	optim   opt.Optimizer // nil when the owned span is empty
	// gather carries the allgather's wire dtype and, for a lossy one, the
	// master-weights residual (nil otherwise).
	gather collective.Options
}

func newShardedReducer(mesh transport.Mesh, cfg *TrainConfig, plan []model.Bucket, reduced int, ex exchanger) (*shardedReducer, error) {
	dim, n := cfg.Model.Dim(), mesh.Size()
	r := &shardedReducer{plan: plan, mesh: mesh, ex: ex, gather: collective.Options{Compression: cfg.Compression}}
	if !cfg.Overlap {
		r.reduced = reduced
		if ex != nil && ex.table() != nil {
			// The table covers the parameters; the flag slot closes its last
			// part.
			r.table = append([]int(nil), ex.table()...)
			r.table[n] = reduced
		}
		r.lo, r.hi = collective.RingOwned(reduced, n, mesh.Rank(), r.table...)
		r.lo, r.hi = min(r.lo, dim), min(r.hi, dim)
		r.gather.Residual = cfg.residual(reduced)
	} else {
		offs, err := collective.ShardOffsets(dim, n)
		if err != nil {
			return nil, err
		}
		r.offs, r.lo, r.hi = offs, offs[mesh.Rank()], offs[mesh.Rank()+1]
		for _, sp := range plan {
			c := make([]int, n+1)
			for i, o := range offs {
				c[i] = min(max(o, sp.Lo), sp.Hi) - sp.Lo
			}
			r.clipped = append(r.clipped, c)
		}
		r.gather.Residual = cfg.residual(dim)
	}
	// A rank owns zero elements when the vector has fewer elements than ranks.
	var err error
	if r.hi > r.lo {
		r.optim, err = cfg.newOptimizer(r.hi - r.lo)
	}
	return r, err
}

func (r *shardedReducer) reduce(m transport.Mesh, k int64, grad tensor.Vector, b int) error {
	if r.reduced > 0 {
		return collective.RingReduceScatter(m, k, grad, collective.OpAverage, r.table...)
	}
	sp := r.plan[b]
	return collective.ReduceScatter(m, k, grad[sp.Lo:sp.Hi], collective.OpAverage, r.clipped[b])
}

// reducePartial: the contributor count rides the scatter, so every rank
// skips or applies the update in lockstep.
func (r *shardedReducer) reducePartial(m transport.Mesh, k int64, buf tensor.Vector, b int, contributes bool) (int, error) {
	if r.reduced > 0 {
		return collective.PartialRingReduceScatter(m, k, buf[:r.reduced], contributes, r.table...)
	}
	sp := r.plan[b]
	return collective.PartialReduceScatter(m, k, buf[sp.Lo:sp.Hi], contributes, r.clipped[b])
}

func (r *shardedReducer) owned() (lo, hi int) { return r.lo, r.hi }

func (r *shardedReducer) update(k int64, cur, next, g tensor.Vector, mean, scale float64) error {
	lo, hi := r.lo, r.hi
	src := cur[lo:hi]
	if r.optim != nil {
		if res := r.gather.Residual; res != nil {
			// Restore the exact fp64 master weights; the residual is
			// re-captured by the allgather's RoundTripEF below.
			_ = tensor.SumInto(next[lo:hi], src, res[lo:hi])
			res[lo:hi].Zero()
			src = next[lo:hi]
		}
		if g != nil {
			if _, err := r.optim.StepTo(next[lo:hi], src, g[lo:hi], mean, scale); err != nil {
				return err
			}
			src = next[lo:hi]
		}
	}
	if r.ex != nil && r.ex.due(k) {
		// The owned span goes to the parameter server and the pulled span
		// replaces it, so the allgather ships the global model.
		if err := r.ex.exchange(k, src, next[lo:hi]); err != nil {
			return err
		}
	}
	if r.reduced > 0 {
		// RNA's versions carry the flag slot as spare capacity, so the gather
		// rings over the partition the scatter used.
		return collective.RingAllGather(r.mesh, k, next[:r.reduced], r.gather, r.table...)
	}
	return collective.AllGather(r.mesh, k, next, r.offs, r.gather)
}

func (r *shardedReducer) stateBytes() int64 {
	if r.optim == nil {
		return 0
	}
	return r.optim.StateBytes()
}
