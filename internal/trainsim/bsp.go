package trainsim

import (
	"time"

	"repro/internal/opt"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// runBSP simulates Horovod-style bulk-synchronous training: every round all
// workers compute one gradient from the same parameters, the round fires
// when the slowest finishes (NEGOTIATE_ALLREDUCE), a full ring AllReduce
// averages the gradients, and everyone steps. The per-worker wait time —
// the "long-tail effect" the paper targets — is the gap between a worker's
// finish and the barrier.
//
// Within a round the per-worker gradients are independent (each worker owns
// its batch stream, model clone and scratch gradient), so they fan out over
// the shared pool; the reduction then merges them in rank order, keeping
// the result bit-identical to the serial engine.
func runBSP(cfg Config) (*Result, error) {
	root := rng.New(cfg.Seed)
	probeSrc := root.Split(0)
	_ = probeSrc // BSP needs no probes; keep stream layout aligned with runPartial.
	batchSrcs := make([]*rng.Source, cfg.Workers)
	stepSrcs := make([]*rng.Source, cfg.Workers)
	delaySrcs := make([]*rng.Source, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		batchSrcs[w] = root.Split(100 + w)
		stepSrcs[w] = root.Split(200 + w)
		delaySrcs[w] = root.Split(300 + w)
	}

	dim := cfg.Model.Dim()
	params := tensor.New(dim)
	cfg.Model.Init(rng.New(cfg.Seed+7777), params)
	optim, err := opt.NewSGD(dim, cfg.LR, cfg.Momentum, cfg.WeightDecay)
	if err != nil {
		return nil, err
	}
	ev := newEvaluator(&cfg)
	inj := cfg.injector()

	res := &Result{
		Strategy:     Horovod,
		Breakdowns:   make([]stats.Breakdown, cfg.Workers),
		PerIterTimes: &stats.Sample{},
	}
	if cfg.CollectTrace {
		res.Trace = &trace.Trace{}
	}

	ids := make([]int, cfg.Workers)
	for w := range ids {
		ids[w] = w
	}
	models := workerModels(cfg.Model, ids)
	grads := make([]tensor.Vector, cfg.Workers)
	for w := range grads {
		grads[w] = tensor.New(dim)
	}
	batches := make([][]int, cfg.Workers)
	gradErrs := make([]error, cfg.Workers)
	sum := tensor.New(dim)
	var now time.Duration
	for k := 0; k < cfg.maxIterations(); k++ {
		// Compute phase: all workers start from the barrier. Timing and
		// batch draws stay serial (fixed RNG order); the gradient bodies
		// fan out below.
		var fire time.Duration
		ready := make([]time.Duration, cfg.Workers)
		for w := 0; w < cfg.Workers; w++ {
			dur := time.Duration(float64(cfg.Step.Sample(stepSrcs[w]))*cfg.speedFactor(w)) +
				inj.Delay(delaySrcs[w], w, k)
			ready[w] = now + dur
			if ready[w] > fire {
				fire = ready[w]
			}
			res.Breakdowns[w].Compute += dur
			batches[w] = cfg.Dataset.Batch(batchSrcs[w], cfg.BatchSize)
			if res.Trace != nil {
				res.Trace.Add(trace.Span{Worker: w, Kind: trace.SpanCompute,
					Start: now, End: ready[w], Iter: int64(k)})
			}
		}
		compute := func(w int) {
			_, gradErrs[w] = models[w].Gradient(params, grads[w], batches[w])
		}
		if cfg.parallel() {
			parallel.For(cfg.fanout(), cfg.Workers, compute)
		} else {
			for w := 0; w < cfg.Workers; w++ {
				compute(w)
			}
		}
		sum.Zero()
		for w := 0; w < cfg.Workers; w++ {
			if gradErrs[w] != nil {
				return nil, gradErrs[w]
			}
			if err := sum.Add(grads[w]); err != nil {
				return nil, err
			}
		}
		commCost := cfg.updateTail(cfg.Workers, cfg.Spec.GradientBytes(), 0)
		syncEnd := fire + commCost
		for w := 0; w < cfg.Workers; w++ {
			res.Breakdowns[w].Wait += fire - ready[w]
			res.Breakdowns[w].Comm += commCost
			if res.Trace != nil {
				if fire > ready[w] {
					res.Trace.Add(trace.Span{Worker: w, Kind: trace.SpanWait,
						Start: ready[w], End: fire, Iter: int64(k)})
				}
				res.Trace.Add(trace.Span{Worker: w, Kind: trace.SpanComm,
					Start: fire, End: syncEnd, Iter: int64(k)})
			}
		}
		sum.Scale(1 / float64(cfg.Workers))
		if _, err := optim.Step(params, sum, 1); err != nil {
			return nil, err
		}
		res.PerIterTimes.Add(float64(syncEnd - now))
		now = syncEnd
		res.Iterations = k + 1

		if (k+1)%cfg.evalEvery() == 0 || k+1 == cfg.maxIterations() {
			hit, err := sampleCurve(res, ev, params, now, k+1, cfg.TargetLoss)
			if err != nil {
				return nil, err
			}
			if hit {
				res.ReachedTarget = true
				break
			}
		}
		if cfg.MaxTime > 0 && now >= cfg.MaxTime {
			break
		}
	}
	res.VirtualTime = now
	if len(res.Curve) == 0 {
		if _, err := sampleCurve(res, ev, params, now, res.Iterations, 0); err != nil {
			return nil, err
		}
	}
	ev.finalize(res, params)
	return res, nil
}
