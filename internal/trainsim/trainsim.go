// Package trainsim is the virtual-time training engine behind every
// experiment in the repository. It executes genuine SGD — gradients are
// computed by real models at the (possibly stale) parameter versions the
// protocol semantics dictate — while all timing (compute durations,
// heterogeneity delays, AllReduce transfers, PS round trips, lock waits)
// advances a deterministic virtual clock. One simulation therefore yields
// both the system-efficiency results (per-iteration times, speedups,
// breakdowns) and the statistical-efficiency results (loss curves,
// accuracies) the paper reports.
//
// Strategies implemented: Horovod-style BSP AllReduce, RNA (this paper),
// RNA with hierarchical synchronization, eager-SGD (majority and solo), and
// AD-PSGD.
package trainsim

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/controller"
	"repro/internal/data"
	"repro/internal/hetero"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Strategy selects the synchronization protocol.
type Strategy int

// Protocols under evaluation (Section 7.3).
const (
	// Horovod is the BSP ring AllReduce baseline.
	Horovod Strategy = iota + 1
	// RNA is the paper's randomized non-blocking AllReduce.
	RNA
	// RNAHierarchical is RNA plus the grouped PS scheme of Section 4.
	RNAHierarchical
	// EagerSGD is eager-SGD's majority partial collective.
	EagerSGD
	// EagerSGDSolo is eager-SGD's solo variant.
	EagerSGDSolo
	// ADPSGD is asynchronous decentralized parallel SGD (gossip).
	ADPSGD
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Horovod:
		return "Horovod"
	case RNA:
		return "RNA"
	case RNAHierarchical:
		return "RNA-H"
	case EagerSGD:
		return "eager-SGD"
	case EagerSGDSolo:
		return "eager-SGD-solo"
	case ADPSGD:
		return "AD-PSGD"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Config describes one simulated training run.
type Config struct {
	// Strategy is the synchronization protocol.
	Strategy Strategy
	// Workers is the cluster size.
	Workers int

	// Model is the training objective; Dataset supplies batches.
	Model   model.Model
	Dataset *data.Dataset
	// EvalSet, when non-nil, is used for validation metrics.
	EvalSet *data.Dataset
	// BatchSize is the per-worker mini-batch size.
	BatchSize int

	// LR, Momentum and WeightDecay configure the optimizer.
	LR          float64
	Momentum    float64
	WeightDecay float64

	// Step samples per-batch compute durations (the workload's inherent
	// balance); Injector adds system heterogeneity; Spec provides the
	// message size; Comm prices communication.
	Step     workload.StepSampler
	Injector hetero.Injector
	Spec     workload.ModelSpec
	Comm     workload.CommModel
	// Collective selects the AllReduce schedule the engines price: the
	// zero value is the paper's ring; workload.AllReduceAuto opts into
	// the cost-model selector (the cheaper of ring and tree at each rank
	// count and message size; both are priced from the runtime engine's
	// own descriptions in internal/collective). Hierarchical groups
	// inherit it for their intra-group collectives.
	Collective workload.AllReduceAlgo
	// SpeedFactors optionally scales each worker's compute time
	// multiplicatively (deterministic hardware heterogeneity: the
	// paper's Table 2 testbed mixes K80, 1080Ti and 2080Ti GPUs).
	// Missing entries default to 1.
	SpeedFactors []float64

	// Probes is RNA's power-of-choices q (default 2).
	Probes int
	// StalenessBound is the bounded-delay window η of Assumption 2
	// (default 8): compute may run at most η iterations ahead of the
	// last synchronization, a synchronization may outrun the slowest
	// worker by at most η iterations, and buffered gradients more than η
	// iterations behind a worker's newest are overwritten. Under random
	// heterogeneity worker lag is a random walk that stays inside the
	// window; under deterministic slowdown it grows linearly, hits the
	// bound, and paces the cluster — the regime hierarchical
	// synchronization exists for.
	StalenessBound int
	// DisableLRScale turns off the Linear Scaling Rule (ablation): every
	// partial update is applied at the full learning rate.
	DisableLRScale bool
	// DirectGPU reduces gradients device-to-device (the NCCL path of
	// Section 6): RNA's host-device staging copies are skipped at the
	// cost of extra GPU memory, removing the Table 5 overhead.
	DirectGPU bool
	// LayerOverlap enables the layer-wise copy overlapping of Section
	// 8.5: per-layer copies pipeline against backpropagation, exposing
	// only one layer's copy in each direction.
	LayerOverlap bool
	// ShardedUpdate prices the owner-computes sharded update path
	// (internal/core's ShardedUpdate mode): the fused AllReduce decomposes
	// into a ReduceScatter, an owned-shard optimizer step over a uniform
	// span, and a parameter AllGather. Only the dense Horovod and RNA
	// strategies qualify.
	ShardedUpdate bool
	// OptNsPerElem prices the optimizer update at this many nanoseconds
	// per parameter element (scaled by the rank's SpeedFactor). Zero — the
	// default — keeps updates free, the historical pricing under which
	// sharded and replicated rounds cost the same; setting it exposes the
	// N× update-compute reduction the sharded path buys.
	OptNsPerElem float64
	// PSSyncEvery is the hierarchical scheme's PS exchange period in
	// group synchronizations (default 4; the paper leaves frequency
	// tuning as future work).
	PSSyncEvery int
	// PSChunks is the chunk count of the hierarchical PS exchange. With
	// 0 or 1 the exchange is priced as one monolithic round trip
	// (CommModel.PSPushPull); with more chunks it is priced by the
	// pipelined wire-protocol model (CommModel.PSPushPullWire), where
	// early acks overlap later pushes.
	PSChunks int

	// Parallelism controls the engine's per-round gradient fan-out: 0
	// (the default) fans independent per-worker Model.Gradient calls out
	// over the shared GOMAXPROCS-bounded pool, 1 selects the serial
	// reference engine, and values > 1 cap the fan-out width. Every
	// setting produces bit-identical results: each worker owns its
	// model clone, RNG streams and scratch gradient, and contributions
	// merge in fixed rank order (see TestSerialParallelIdentical).
	Parallelism int

	// Termination: stop after MaxIterations synchronization rounds, when
	// virtual time exceeds MaxTime (if > 0), or when evaluated loss
	// drops to TargetLoss (if > 0).
	MaxIterations int
	MaxTime       time.Duration
	TargetLoss    float64
	// EvalEvery evaluates loss/accuracy every E rounds (default 10).
	EvalEvery int

	// Seed makes the run reproducible.
	Seed int64
	// CollectTrace records per-worker spans for timeline figures.
	CollectTrace bool
}

func (c *Config) validate() error {
	if c.Workers < 1 {
		return fmt.Errorf("trainsim: %d workers", c.Workers)
	}
	if c.Model == nil || c.Dataset == nil {
		return fmt.Errorf("trainsim: model and dataset required")
	}
	if c.BatchSize < 1 {
		return fmt.Errorf("trainsim: batch size %d", c.BatchSize)
	}
	if c.Step == nil {
		return fmt.Errorf("trainsim: step sampler required")
	}
	if c.MaxIterations < 1 && c.MaxTime <= 0 {
		return fmt.Errorf("trainsim: no termination condition")
	}
	if c.OptNsPerElem < 0 {
		return fmt.Errorf("trainsim: negative optimizer cost %v", c.OptNsPerElem)
	}
	if c.ShardedUpdate && c.Strategy != Horovod && c.Strategy != RNA {
		return fmt.Errorf("trainsim: sharded update requires Horovod or RNA, got %v", c.Strategy)
	}
	return nil
}

func (c *Config) probes() int {
	if c.Probes < 1 {
		return 2
	}
	return c.Probes
}

func (c *Config) bound() int64 {
	if c.StalenessBound < 1 {
		return 8
	}
	return int64(c.StalenessBound)
}

func (c *Config) psSyncEvery() int {
	if c.PSSyncEvery < 1 {
		return 4
	}
	return c.PSSyncEvery
}

func (c *Config) evalEvery() int {
	if c.EvalEvery < 1 {
		return 10
	}
	return c.EvalEvery
}

// allReduceCost prices one synchronization's collective for n ranks under
// the configured schedule.
func (c *Config) allReduceCost(n int, bytes int64) time.Duration {
	return c.Comm.AllReduce(c.Collective, n, bytes)
}

// optStepCost prices one optimizer step over elems parameter elements on
// worker w: OptNsPerElem per element, scaled by the worker's compute speed
// factor. Zero OptNsPerElem keeps updates free.
func (c *Config) optStepCost(w, elems int) time.Duration {
	if c.OptNsPerElem <= 0 || elems <= 0 {
		return 0
	}
	return time.Duration(float64(elems) * c.OptNsPerElem * c.speedFactor(w))
}

// updateTail prices one synchronization's full post-compute cost: the
// collective plus the optimizer update. extra is the bytes the loop's vector
// carries beyond the gradient (RNA's contributor-count flag).
//
// Replicated (the default): the AllReduce plus one full-vector optimizer
// step per rank, redundantly; the slowest rank's step paces the round.
//
// ShardedUpdate: a ReduceScatter, the owned-shard optimizer step over a
// uniform span (the round waits for the slowest owner), and a parameter
// AllGather, strictly sequential — the owned step gates the gather. With
// OptNsPerElem set the update term shrinks ~N× against the replicated path
// while ReduceScatter + AllGather together move exactly the ring AllReduce's
// bytes (see workload.CommModel.ReduceScatter).
func (c *Config) updateTail(n int, bytes, extra int64) time.Duration {
	elems := int(bytes / 8)
	span := elems
	var tail time.Duration
	if c.ShardedUpdate {
		// The flag rides the scatter once.
		span = elems / n
		tail = c.Comm.ReduceScatter(n, elems+int(extra/8)) + c.Comm.AllGather(n, elems)
	} else {
		tail = c.allReduceCost(n, bytes+extra)
	}
	var worst time.Duration
	for w := 0; w < n; w++ {
		worst = max(worst, c.optStepCost(w, span))
	}
	return tail + worst
}

func (c *Config) injector() hetero.Injector {
	if c.Injector == nil {
		return hetero.None{}
	}
	return c.Injector
}

// speedFactor returns worker w's multiplicative compute-time factor.
func (c *Config) speedFactor(w int) float64 {
	if w < 0 || w >= len(c.SpeedFactors) || c.SpeedFactors[w] <= 0 {
		return 1
	}
	return c.SpeedFactors[w]
}

// parallel reports whether the engine may fan gradient work out; fanout is
// the optional width cap passed to the pool (0 = pool-bounded only).
func (c *Config) parallel() bool { return c.Parallelism == 0 || c.Parallelism > 1 }

func (c *Config) fanout() int {
	if c.Parallelism < 1 {
		return 0
	}
	return c.Parallelism
}

// workerModels builds the per-worker gradient models: stateless models are
// shared, models with internal noise (Quadratic) are cloned so concurrent
// workers own independent, deterministically seeded streams.
func workerModels(m model.Model, ids []int) []model.Model {
	out := make([]model.Model, len(ids))
	for i, id := range ids {
		out[i] = model.ForWorker(m, id)
	}
	return out
}

func (c *Config) maxIterations() int {
	if c.MaxIterations < 1 {
		return 1 << 30
	}
	return c.MaxIterations
}

// Sample is one point of a convergence curve.
type Sample struct {
	Time time.Duration
	Iter int
	Loss float64
	Acc  float64
}

// Result reports a simulated run.
type Result struct {
	Strategy Strategy
	// Iterations is the number of synchronization rounds completed (for
	// AD-PSGD: total worker iterations / workers).
	Iterations int
	// VirtualTime is the final virtual clock.
	VirtualTime time.Duration
	// Curve traces evaluated loss/accuracy against virtual time.
	Curve []Sample
	// FinalLoss is the last evaluated loss; FinalParams the final model.
	FinalLoss   float64
	FinalParams tensor.Vector
	// TrainAcc / ValTop1 / ValTop5 are classification accuracies when
	// the model is a Classifier (zero otherwise).
	TrainAcc, ValTop1, ValTop5 float64
	// Breakdowns accounts each worker's compute/comm/wait time.
	Breakdowns []stats.Breakdown
	// PerIterTimes samples the time between consecutive syncs.
	PerIterTimes *stats.Sample
	// NullContribRate is the fraction of (worker, sync) slots filled by
	// null gradients (RNA/eager only).
	NullContribRate float64
	// DroppedRate is the fraction of computed gradients the staleness bound
	// overwrote before a synchronization took them (flat RNA runs; eager-SGD
	// overwrites by design and reports 0).
	DroppedRate float64
	// CopyOverhead is the cumulated host↔device copy time (RNA only).
	CopyOverhead time.Duration
	// ReachedTarget reports whether TargetLoss terminated the run.
	ReachedTarget bool
	// Trace holds the recorded spans when Config.CollectTrace was set.
	Trace *trace.Trace
}

// Throughput returns completed synchronization rounds per virtual second.
func (r *Result) Throughput() float64 {
	if r.VirtualTime <= 0 {
		return 0
	}
	return float64(r.Iterations) / r.VirtualTime.Seconds()
}

// MeanIterTime returns the mean time between syncs (0 when unknown).
func (r *Result) MeanIterTime() time.Duration {
	if r.PerIterTimes == nil || r.PerIterTimes.Len() == 0 {
		return 0
	}
	m, err := r.PerIterTimes.Mean()
	if err != nil {
		return 0
	}
	return time.Duration(m)
}

// Run executes the configured simulation.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	switch cfg.Strategy {
	case Horovod:
		return runBSP(cfg)
	case RNA:
		return runPartial(cfg, controller.PowerOfChoices)
	case EagerSGD:
		return runPartial(cfg, controller.Majority)
	case EagerSGDSolo:
		return runPartial(cfg, controller.Solo)
	case ADPSGD:
		return runADPSGD(cfg)
	case RNAHierarchical:
		return runHierarchical(cfg)
	default:
		return nil, fmt.Errorf("trainsim: unknown strategy %v", cfg.Strategy)
	}
}

// evaluator scores params over the training (and optional validation) set.
type evaluator struct {
	cfg     *Config
	trainIx []int
	valIx   []int
}

func newEvaluator(cfg *Config) *evaluator {
	ev := &evaluator{cfg: cfg, trainIx: model.All(cfg.Dataset)}
	if cfg.EvalSet != nil {
		ev.valIx = make([]int, cfg.EvalSet.Len())
		for i := range ev.valIx {
			ev.valIx[i] = i
		}
	}
	return ev
}

// loss returns the full training loss.
func (ev *evaluator) loss(params tensor.Vector) (float64, error) {
	return ev.cfg.Model.Loss(params, ev.trainIx)
}

// accuracy returns train top-1 accuracy (0 if not a classifier).
func (ev *evaluator) accuracy(params tensor.Vector) float64 {
	cls, ok := ev.cfg.Model.(model.Classifier)
	if !ok {
		return 0
	}
	top1, _, err := cls.Accuracy(params, ev.trainIx, 1)
	if err != nil {
		return 0
	}
	return top1
}

// finalize fills a result's accuracy fields from the final parameters.
func (ev *evaluator) finalize(res *Result, params tensor.Vector) {
	res.FinalParams = params.Clone()
	res.TrainAcc = ev.accuracy(params)
	cls, ok := ev.cfg.Model.(model.Classifier)
	if !ok || ev.cfg.EvalSet == nil {
		return
	}
	// Validation accuracy is scored by a model bound to the eval set.
	valModel, err := rebindClassifier(ev.cfg.Model, ev.cfg.EvalSet)
	if err != nil {
		return
	}
	_ = cls
	top1, top5, err := valModel.Accuracy(params, ev.valIx, 5)
	if err != nil {
		return
	}
	res.ValTop1, res.ValTop5 = top1, top5
}

// rebindClassifier builds the same classifier architecture over a different
// dataset so held-out accuracy can be scored with the trained parameters.
func rebindClassifier(m model.Model, ds *data.Dataset) (model.Classifier, error) {
	switch mm := m.(type) {
	case *model.Logistic:
		return model.NewLogistic(ds)
	case *model.MLP:
		return model.NewMLP(ds, mm.Hidden())
	default:
		return nil, fmt.Errorf("trainsim: cannot rebind %T", m)
	}
}

// paramsTimeline records the global parameter trajectory: entry i holds the
// parameters that became visible at time End[i]. Lookup(t) returns the
// version visible at time t; Prune drops entries older than every worker's
// compute frontier.
type paramsTimeline struct {
	ends   []time.Duration
	params []tensor.Vector
}

func newParamsTimeline(initial tensor.Vector) *paramsTimeline {
	return &paramsTimeline{
		ends:   []time.Duration{0},
		params: []tensor.Vector{initial.Clone()},
	}
}

// Append records a new version visible from time end onward. end must be
// non-decreasing.
func (p *paramsTimeline) Append(end time.Duration, params tensor.Vector) {
	p.ends = append(p.ends, end)
	p.params = append(p.params, params.Clone())
}

// Lookup returns the latest version with End ≤ t.
func (p *paramsTimeline) Lookup(t time.Duration) tensor.Vector {
	// Binary search for the rightmost end ≤ t.
	i := sort.Search(len(p.ends), func(i int) bool { return p.ends[i] > t }) - 1
	if i < 0 {
		i = 0
	}
	return p.params[i]
}

// Latest returns the newest version.
func (p *paramsTimeline) Latest() tensor.Vector { return p.params[len(p.params)-1] }

// Prune drops versions strictly older than the one visible at `before`,
// keeping the timeline bounded.
func (p *paramsTimeline) Prune(before time.Duration) {
	i := sort.Search(len(p.ends), func(i int) bool { return p.ends[i] > before }) - 1
	if i <= 0 {
		return
	}
	p.ends = append([]time.Duration{}, p.ends[i:]...)
	p.params = append([]tensor.Vector{}, p.params[i:]...)
}

// Len returns the number of retained versions.
func (p *paramsTimeline) Len() int { return len(p.ends) }

// sampleCurve appends an eval sample and reports whether the target loss
// was reached.
func sampleCurve(res *Result, ev *evaluator, params tensor.Vector, t time.Duration, iter int, target float64) (bool, error) {
	loss, err := ev.loss(params)
	if err != nil {
		return false, err
	}
	res.Curve = append(res.Curve, Sample{Time: t, Iter: iter, Loss: loss, Acc: ev.accuracy(params)})
	res.FinalLoss = loss
	return target > 0 && loss <= target, nil
}
