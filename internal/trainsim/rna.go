package trainsim

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/controller"
	"repro/internal/model"
	"repro/internal/opt"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// gradEntry is one buffered gradient on a worker's comm thread.
type gradEntry struct {
	// ready is when the compute finished.
	ready time.Duration
	// stamp is one past the last synchronization visible when the compute
	// started, the runtime's synced+1: what controller.Weigh measures its
	// staleness and weight by.
	stamp int64
	grad  tensor.Vector
}

// pendingGrad is a gradient computation whose schedule-time inputs (the
// parameter version visible at compute start and the batch draw) have been
// fixed but whose numeric work is deferred to the next flush, where it can
// run concurrently with other workers' pending computations.
type pendingGrad struct {
	// version is an immutable parameter snapshot from the timeline.
	version tensor.Vector
	batch   []int
	// out receives the gradient; it is already referenced by the worker's
	// buffer entry.
	out tensor.Vector
	// iter is the worker-local produce index, for error messages.
	iter int64
}

// simWorker is one worker's compute thread in the partial-collective
// simulation: it produces gradients continuously, bounded by the staleness
// window, buffering them until a synchronization consumes (or drops) them.
type simWorker struct {
	id       int // global worker id (for heterogeneity injection)
	busy     time.Duration
	produced int64
	buffer   []gradEntry
	// readyAt[j] is when the j-th produced gradient finished; probe
	// replies and the bounded-delay gate are iteration-tagged against it.
	readyAt []time.Duration

	// mdl is this worker's model instance (a per-worker clone when the
	// model carries internal randomness — see model.ForWorker).
	mdl model.Model

	batchSrc *rng.Source
	stepSrc  *rng.Source
	delaySrc *rng.Source

	// pending holds deferred gradient computations; flush runs them
	// in produce order (so noise-stream draws stay sequential per
	// worker) while fanning out across workers.
	pending []pendingGrad
	gradErr error

	stall time.Duration // cumulative staleness-bound blocking

	// lastContrib is the most recent gradient this worker fed into a
	// collective; eager-SGD re-contributes it (stale) when no fresh
	// gradient is ready.
	lastContrib tensor.Vector
}

// partialSim simulates one AllReduce domain (the whole cluster for plain
// RNA/eager-SGD, one group under hierarchical synchronization) running
// partial collectives in virtual time.
type partialSim struct {
	cfg     *Config
	policy  controller.Policy
	workers []*simWorker
	n       int

	params   tensor.Vector
	optim    *opt.SGD
	timeline *paramsTimeline
	syncEnds []time.Duration
	probeSrc *rng.Source

	// payCopy marks protocols that stage gradients through CPU memory
	// (RNA does; eager-SGD reduces in place).
	payCopy bool
	// eager marks eager-SGD semantics: no cross-iteration accumulation —
	// a worker contributes only its newest ready gradient, and when
	// nothing fresh is ready it re-contributes its previous gradient
	// (a stale duplicate), which is eager-SGD's statistical cost.
	eager bool

	// postSync optionally extends a synchronization (hierarchical PS
	// push-pull + broadcast): it may mutate params and returns the extra
	// time before the new parameters become visible.
	postSync func(params tensor.Vector, syncEnd time.Duration) time.Duration

	// accounting
	breakdowns   []stats.Breakdown
	nulls        int64
	slots        int64
	dropped      int64 // gradients overwritten by the staleness bound
	copyOverhead time.Duration
	trace        *trace.Trace
}

// newPartialSim builds a simulation domain over the given global worker ids.
func newPartialSim(cfg *Config, policy controller.Policy, ids []int, seedSalt int64) (*partialSim, error) {
	root := rng.New(cfg.Seed + seedSalt)
	dim := cfg.Model.Dim()
	s := &partialSim{
		cfg:        cfg,
		policy:     policy,
		n:          len(ids),
		params:     tensor.New(dim),
		probeSrc:   root.Split(0),
		payCopy:    policy == controller.PowerOfChoices || policy == controller.RandomInitiator,
		eager:      policy == controller.Majority || policy == controller.Solo,
		breakdowns: make([]stats.Breakdown, len(ids)),
	}
	cfg.Model.Init(rng.New(cfg.Seed+7777), s.params)
	s.timeline = newParamsTimeline(s.params)
	var err error
	s.optim, err = opt.NewSGD(dim, cfg.LR, cfg.Momentum, cfg.WeightDecay)
	if err != nil {
		return nil, err
	}
	s.workers = make([]*simWorker, len(ids))
	for i, id := range ids {
		s.workers[i] = &simWorker{
			id:       id,
			mdl:      model.ForWorker(cfg.Model, id),
			batchSrc: root.Split(100 + id),
			stepSrc:  root.Split(200 + id),
			delaySrc: root.Split(300 + id),
		}
	}
	if cfg.CollectTrace {
		s.trace = &trace.Trace{}
	}
	return s, nil
}

// rounds returns completed synchronizations.
func (s *partialSim) rounds() int { return len(s.syncEnds) }

// now returns the end of the last synchronization.
func (s *partialSim) now() time.Duration {
	if len(s.syncEnds) == 0 {
		return 0
	}
	return s.syncEnds[len(s.syncEnds)-1]
}

// canProduce reports whether worker w may start its next compute: iteration
// j may start only after synchronization j−bound completed.
func (s *partialSim) canProduce(w *simWorker) bool {
	return w.produced-s.cfg.bound() <= int64(s.rounds())-1
}

// produceOne runs one compute step of w: the gradient is evaluated at the
// parameter version visible when the compute starts (cross-iteration
// execution trains on stale parameters, exactly as Fig. 4 shows).
func (s *partialSim) produceOne(w *simWorker) error {
	j := w.produced
	start := w.busy
	if idx := j - s.cfg.bound(); idx >= 0 {
		if resume := s.syncEnds[idx]; resume > start {
			if s.trace != nil {
				s.trace.Add(trace.Span{Worker: w.id, Kind: trace.SpanWait,
					Start: start, End: resume, Iter: j})
			}
			w.stall += resume - start
			start = resume
		}
	}
	dur := time.Duration(float64(s.cfg.Step.Sample(w.stepSrc))*s.cfg.speedFactor(w.id)) +
		s.cfg.injector().Delay(w.delaySrc, w.id, int(j))
	ready := start + dur

	version := s.timeline.Lookup(start)
	batch := s.cfg.Dataset.Batch(w.batchSrc, s.cfg.BatchSize)
	grad := tensor.New(len(s.params))
	if s.cfg.parallel() {
		// Defer the numeric work: the inputs are pinned (the timeline
		// version is an immutable snapshot, the batch slice is fresh),
		// so flush can run it concurrently with other workers.
		w.pending = append(w.pending, pendingGrad{version: version, batch: batch, out: grad, iter: j})
	} else if _, err := w.mdl.Gradient(version, grad, batch); err != nil {
		return fmt.Errorf("worker %d iter %d: %w", w.id, j, err)
	}
	stamp := sort.Search(len(s.syncEnds), func(i int) bool { return s.syncEnds[i] > start })
	w.buffer = append(w.buffer, gradEntry{ready: ready, stamp: int64(stamp), grad: grad})
	w.readyAt = append(w.readyAt, ready)
	w.produced++
	w.busy = ready
	if s.trace != nil {
		s.trace.Add(trace.Span{Worker: w.id, Kind: trace.SpanCompute,
			Start: start, End: ready, Iter: j})
	}
	return nil
}

// flush runs every deferred gradient computation. Work fans out across
// workers over the shared pool; within one worker the pending list runs in
// produce order so models with internal noise streams draw the same
// per-worker sequence the serial engine would.
func (s *partialSim) flush() error {
	var busy []*simWorker
	for _, w := range s.workers {
		if len(w.pending) > 0 {
			busy = append(busy, w)
		}
	}
	if len(busy) == 0 {
		return nil
	}
	parallel.For(s.cfg.fanout(), len(busy), func(i int) {
		w := busy[i]
		for _, p := range w.pending {
			if _, err := w.mdl.Gradient(p.version, p.out, p.batch); err != nil {
				w.gradErr = fmt.Errorf("worker %d iter %d: %w", w.id, p.iter, err)
				return
			}
		}
	})
	for _, w := range busy {
		w.pending = w.pending[:0]
		if w.gradErr != nil {
			return w.gradErr
		}
	}
	return nil
}

// produceUpTo advances w's compute thread until it has produced at least
// `count` gradients.
func (s *partialSim) produceUpTo(w *simWorker, count int64) error {
	for w.produced < count {
		if !s.canProduce(w) {
			return fmt.Errorf("trainsim: worker %d blocked before producing %d gradients", w.id, count)
		}
		if err := s.produceOne(w); err != nil {
			return err
		}
	}
	return nil
}

// replyTime returns when worker w answers a probe issued at base: the
// completion time of its first gradient landing after base — a fresh
// result, so trigger policies are measured on genuine per-iteration
// readiness — producing forward as needed. A worker parked at the staleness
// bound with only banked gradients replies at base.
func (s *partialSim) replyTime(w *simWorker, base time.Duration) (time.Duration, error) {
	for _, e := range w.buffer {
		if e.ready > base {
			return e.ready, nil
		}
	}
	for s.canProduce(w) {
		if err := s.produceOne(w); err != nil {
			return 0, err
		}
		if e := w.buffer[len(w.buffer)-1]; e.ready > base {
			return e.ready, nil
		}
	}
	if len(w.buffer) > 0 {
		return base, nil
	}
	return 0, fmt.Errorf("trainsim: worker %d has nothing to reply with", w.id)
}

// nextRound executes one synchronization round: pick probes and determine
// the trigger per the policy (controller.PickProbes, controller.TriggerTime),
// let computation race until the trigger, reduce the contributions (null
// gradients for empty buffers), apply the update with controller.Step's mean
// and Linear Scaling factor, and advance the clock past the collective.
func (s *partialSim) nextRound() error {
	tNow := s.now()
	k := s.rounds()

	// Relevant workers whose readiness can fire the trigger: the probed
	// ones, or everyone under a policy that probes nobody.
	probes := controller.PickProbes(s.probeSrc, s.policy, s.n, s.cfg.probes())
	relevant := probes
	if relevant == nil {
		relevant = make([]int, s.n)
		for i := range relevant {
			relevant[i] = i
		}
	}
	// Bounded delay (Assumption 2): synchronization k may not outrun the
	// slowest worker by more than the staleness bound — every worker must
	// have produced its (k+1−bound)-th gradient before the round can
	// fire. This paces rounds one-to-one with training iterations (the
	// paper's Table 4 iteration counts) and bounds how far a probed
	// laggard must catch up.
	gate := tNow
	if floor := controller.Floor(int64(k), s.cfg.bound()); floor > 0 {
		for _, w := range s.workers {
			if err := s.produceUpTo(w, floor); err != nil {
				return err
			}
			if r := w.readyAt[floor-1]; r > gate {
				gate = r
			}
		}
	}

	// Probes carry iteration IDs only to deduplicate replies
	// (Section 3.2): a probed worker answers with its first gradient
	// completing after the probe arrives — a fresh result at its own
	// pace, never a replay of missed rounds (no unbounded catch-up for
	// laggards) and never a banked leftover (which would collapse the
	// trigger policies onto the gate).
	base := tNow
	if gate > base {
		base = gate
	}
	replies := make([]time.Duration, s.n)
	for _, i := range relevant {
		r, err := s.replyTime(s.workers[i], base)
		if err != nil {
			return err
		}
		replies[i] = r
	}
	fire, _ := controller.TriggerTime(s.policy, probes, replies)

	// Let every compute thread race up to the trigger: fast workers may
	// bank several gradients for this collective.
	for _, w := range s.workers {
		for s.canProduce(w) {
			if len(w.buffer) > 0 && w.buffer[len(w.buffer)-1].ready > fire {
				break
			}
			if w.busy > fire {
				break
			}
			if err := s.produceOne(w); err != nil {
				return err
			}
		}
	}

	// Materialize every deferred gradient before the gather reads them.
	if err := s.flush(); err != nil {
		return err
	}

	// Gather contributions: entries ready by the trigger, a null gradient
	// from a worker with none. batches sums the contributions' weights, the
	// mini-batches the synchronization carries, as the runtime's flag slots
	// do.
	sum := tensor.New(len(s.params))
	batches := 0
	for _, w := range s.workers {
		ready := sort.Search(len(w.buffer), func(i int) bool { return w.buffer[i].ready > fire })
		var g tensor.Vector
		n := 1
		if s.eager {
			// eager-SGD: newest ready gradient only; stale re-send
			// when nothing fresh landed by the trigger.
			if ready > 0 {
				w.lastContrib = w.buffer[ready-1].grad
			}
			g = w.lastContrib
		} else {
			g, n = s.fold(int64(k), w.buffer[:ready])
		}
		w.buffer = append(w.buffer[:0], w.buffer[ready:]...)
		s.slots++
		if g == nil {
			s.nulls++
			if s.trace != nil {
				s.trace.Add(trace.Span{Worker: w.id, Kind: trace.SpanNull,
					Start: fire, End: fire, Iter: int64(k)})
			}
			continue
		}
		_ = sum.Add(g) // equal lengths: both are gradients
		batches += n
	}

	// Price the collective: one extra payload element carries the
	// contribution count (see collective.PartialAllReduceOpts).
	commCost := s.cfg.updateTail(s.n, s.cfg.Spec.GradientBytes(), 8)
	if s.payCopy && !s.cfg.DirectGPU {
		oh := s.cfg.Comm.RNACopyOverhead(s.cfg.Spec.GradientBytes())
		if s.cfg.LayerOverlap {
			oh = s.cfg.Comm.RNAOverlappedCopyOverhead(s.cfg.Spec.GradientBytes(), s.cfg.Spec.Layers)
		}
		commCost += oh
		s.copyOverhead += oh
	}
	syncEnd := fire + commCost
	for li, w := range s.workers {
		s.breakdowns[li].Comm += commCost
		if s.trace != nil {
			s.trace.Add(trace.Span{Worker: w.id, Kind: trace.SpanComm,
				Start: fire, End: syncEnd, Iter: int64(k)})
		}
	}

	if batches > 0 {
		mean, scale, err := controller.Step(batches, s.n)
		if err != nil {
			return err
		}
		sum.Scale(mean)
		if s.cfg.DisableLRScale {
			scale = 1
		}
		if _, err := s.optim.Step(s.params, sum, scale); err != nil {
			return err
		}
	}
	if s.postSync != nil {
		syncEnd += s.postSync(s.params, syncEnd)
	}
	s.syncEnds = append(s.syncEnds, syncEnd)
	s.timeline.Append(syncEnd, s.params)

	// Bound memory: versions older than every compute frontier are dead.
	frontier := s.workers[0].busy
	for _, w := range s.workers[1:] {
		if w.busy < frontier {
			frontier = w.busy
		}
	}
	s.timeline.Prune(frontier)

	return nil
}

// fold is one worker's contribution to synchronization k from its entries
// ready by the trigger and the mini-batches it carries, nil and 0 when none
// survives: it pre-sums the gradients of one stamp in commit order, as
// core.Accumulator does, and combines the slots with controller.Weigh's
// weights, the bounded-staleness overwrite of Section 3.3, which sum to the
// gradients kept.
func (s *partialSim) fold(k int64, entries []gradEntry) (tensor.Vector, int) {
	var slots []controller.Slot
	var sums []tensor.Vector
	for _, e := range entries {
		if n := len(slots); n > 0 && slots[n-1].Stamp == e.stamp {
			_ = sums[n-1].Add(e.grad) // equal lengths: both are gradients
			slots[n-1].N++
			continue
		}
		slots = append(slots, controller.Slot{Stamp: e.stamp, N: 1})
		sums = append(sums, e.grad)
	}
	kept := controller.Weigh(k, s.cfg.bound(), slots)
	var out tensor.Vector
	for i, sl := range slots {
		switch {
		case sl.W == 0:
			s.dropped += int64(sl.N) // overwritten by newer results
		case out == nil:
			out = sums[i]
			out.Scale(sl.W)
		default:
			_ = out.AddScaled(sl.W, sums[i])
		}
	}
	return out, kept
}

// finishBreakdowns folds per-worker compute/stall totals into breakdowns.
func (s *partialSim) finishBreakdowns() []stats.Breakdown {
	out := make([]stats.Breakdown, len(s.workers))
	for i, w := range s.workers {
		out[i] = s.breakdowns[i]
		out[i].Compute = w.busy - w.stall
		out[i].Wait += w.stall
	}
	return out
}

// runPartial simulates RNA / eager-SGD over the whole cluster.
func runPartial(cfg Config, policy controller.Policy) (*Result, error) {
	ids := make([]int, cfg.Workers)
	for i := range ids {
		ids[i] = i
	}
	s, err := newPartialSim(&cfg, policy, ids, 0)
	if err != nil {
		return nil, err
	}
	ev := newEvaluator(&cfg)
	res := &Result{
		Strategy:     cfg.Strategy,
		PerIterTimes: &stats.Sample{},
	}
	res.Trace = s.trace

	for k := 0; k < cfg.maxIterations(); k++ {
		before := s.now()
		if err := s.nextRound(); err != nil {
			return nil, err
		}
		res.PerIterTimes.Add(float64(s.now() - before))
		res.Iterations = k + 1

		if (k+1)%cfg.evalEvery() == 0 || k+1 == cfg.maxIterations() {
			hit, err := sampleCurve(res, ev, s.params, s.now(), k+1, cfg.TargetLoss)
			if err != nil {
				return nil, err
			}
			if hit {
				res.ReachedTarget = true
				break
			}
		}
		if cfg.MaxTime > 0 && s.now() >= cfg.MaxTime {
			break
		}
	}
	res.VirtualTime = s.now()
	res.Breakdowns = s.finishBreakdowns()
	res.CopyOverhead = s.copyOverhead
	if s.slots > 0 {
		res.NullContribRate = float64(s.nulls) / float64(s.slots)
	}
	var reached int64 // gradients a synchronization took or dropped
	for _, w := range s.workers {
		reached += w.produced - int64(len(w.buffer))
	}
	res.DroppedRate = float64(s.dropped) / float64(reached)
	if len(res.Curve) == 0 {
		if _, err := sampleCurve(res, ev, s.params, s.now(), res.Iterations, 0); err != nil {
			return nil, err
		}
	}
	ev.finalize(res, s.params)
	return res, nil
}
