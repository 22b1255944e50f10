package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/hetero"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/trainsim"
	"repro/internal/workload"
)

// Fig1 reproduces the motivation study of Section 2.3.1: a three-worker BSP
// cluster running ResNet-56 and VGG-16 on CIFAR-10-class workloads with
// 10 ms / 40 ms deterministic delays injected on workers 2 and 3. The table
// reports each worker's compute vs waiting share of the iteration time.
func Fig1(opts Options) (*Report, error) {
	rep := newReport()
	s, err := newSuite(opts.seed())
	if err != nil {
		return nil, err
	}
	delays := hetero.PerNode{Delays: []time.Duration{0, 10 * time.Millisecond, 40 * time.Millisecond}}
	var body strings.Builder
	// CIFAR-10 step times: ResNet-56 at its spec step, VGG-16 on 32x32
	// inputs is far cheaper than its ImageNet-scale base step.
	fig1Models := []paperModel{
		{name: "ResNet56", spec: workload.ResNet56(),
			step: workload.Balanced{Base: workload.ResNet56().BaseStep, Jitter: 0.05}},
		{name: "VGG16", spec: workload.VGG16(),
			step: workload.Balanced{Base: 80 * time.Millisecond, Jitter: 0.05}},
	}
	for _, pm := range fig1Models {
		spec := pm.spec
		cfg := s.baseConfig(trainsim.Horovod, pm, 3, opts.iters(100), opts.seed())
		cfg.Injector = delays
		cfg.Comm = workload.TenGbEComm() // the motivation cluster is 10 GbE
		res, err := trainsim.Run(cfg)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&body, "%s (batch %d, %d iterations):\n", spec.Name, spec.BatchSize, res.Iterations)
		body.WriteString(stats.Table([]string{"w1 (+0ms)", "w2 (+10ms)", "w3 (+40ms)"}, res.Breakdowns))
		body.WriteByte('\n')
		for w, b := range res.Breakdowns {
			rep.Metrics[fmt.Sprintf("waitfrac/%s/w%d", spec.Name, w+1)] = b.WaitFrac()
			rep.Metrics[fmt.Sprintf("computefrac/%s/w%d", spec.Name, w+1)] = b.ComputeFrac()
		}
	}
	rep.Body = body.String()
	return rep, nil
}

// Fig2 reproduces the load-imbalance study of Section 2.3.1: the UCF101
// video-length distribution (13,320 videos) and the per-batch training-time
// distribution of a single-layer LSTM over 2,000 sampled batches.
func Fig2(opts Options) (*Report, error) {
	rep := newReport()
	src := rng.New(opts.seed())

	// (a) Video length distribution.
	const videos = 13320
	lengths := stats.NewSample(videos)
	for i := 0; i < videos; i++ {
		lengths.Add(workload.VideoLengthFrames(src.Split(i)))
	}
	lmean, err := lengths.Mean()
	if err != nil {
		return nil, err
	}
	lsd, _ := lengths.StdDev()
	lmin, _ := lengths.Min()
	lmax, _ := lengths.Max()
	lhist, err := stats.NewHistogram(lengths.Values(), 12, 0, 600)
	if err != nil {
		return nil, err
	}

	// (b) LSTM batch training times over 2000 batches.
	const batches = 2000
	sampler := workload.VideoBatchSampler()
	times := stats.NewSample(batches)
	bsrc := src.Split(999999)
	for i := 0; i < batches; i++ {
		times.Add(float64(sampler.Sample(bsrc)) / float64(time.Millisecond))
	}
	tmean, _ := times.Mean()
	tsd, _ := times.StdDev()
	tmin, _ := times.Min()
	tmax, _ := times.Max()
	thist, err := stats.NewHistogram(times.Values(), 12, 0, 6000)
	if err != nil {
		return nil, err
	}

	var body strings.Builder
	fmt.Fprintf(&body, "(a) UCF101 video lengths (%d videos): mean %.0f frames, stddev %.1f, range [%.0f, %.0f]\n",
		videos, lmean, lsd, lmin, lmax)
	fmt.Fprintf(&body, "    (paper: mean 186, stddev 97.7, range [29, 1776])\n")
	body.WriteString(lhist.Render(40))
	fmt.Fprintf(&body, "\n(b) LSTM batch training times (%d batches): mean %.0f ms, stddev %.0f, range [%.0f, %.0f] ms\n",
		batches, tmean, tsd, tmin, tmax)
	fmt.Fprintf(&body, "    (paper: mean 1219 ms, stddev 760, range [156, 8000] ms)\n")
	body.WriteString(thist.Render(40))
	rep.Body = body.String()

	rep.Metrics["video/mean"] = lmean
	rep.Metrics["video/stddev"] = lsd
	rep.Metrics["batchms/mean"] = tmean
	rep.Metrics["batchms/stddev"] = tsd
	return rep, nil
}

// Fig3 reproduces the blocking vs non-blocking timeline of Section 2.3.2: a
// three-worker cluster with a persistent straggler, first under the default
// blocking AllReduce, then under the non-blocking (RNA) variant.
func Fig3(opts Options) (*Report, error) {
	rep := newReport()
	s, err := newSuite(opts.seed())
	if err != nil {
		return nil, err
	}
	pm := paperModel{
		name: "ResNet56",
		spec: workload.ResNet56(),
		step: workload.Balanced{Base: workload.ResNet56().BaseStep, Jitter: 0.1},
	}
	delays := hetero.PerNode{Delays: []time.Duration{0, 35 * time.Millisecond, 10 * time.Millisecond}}

	var body strings.Builder
	horizon := 400 * time.Millisecond
	for _, strat := range []trainsim.Strategy{trainsim.Horovod, trainsim.RNA} {
		cfg := s.baseConfig(strat, pm, 3, 5, opts.seed())
		cfg.Injector = delays
		cfg.CollectTrace = true
		res, err := trainsim.Run(cfg)
		if err != nil {
			return nil, err
		}
		label := "(a) Blocking AllReduce (BSP barrier)"
		if strat == trainsim.RNA {
			label = "(b) Non-blocking AllReduce (RNA)"
		}
		fmt.Fprintf(&body, "%s — %d iterations in %v:\n", label, res.Iterations, fmtDur(res.VirtualTime))
		body.WriteString(res.Trace.Render(76, horizon))
		body.WriteByte('\n')
		rep.Metrics["time/"+strat.String()] = res.VirtualTime.Seconds()
	}
	rep.Body = body.String()
	return rep, nil
}

// Fig4 reproduces the cross-iteration working example of Section 3.3: two
// workers under RNA where the slower worker sometimes contributes a null
// gradient and sometimes a locally accumulated multi-iteration reduction.
func Fig4(opts Options) (*Report, error) {
	rep := newReport()
	s, err := newSuite(opts.seed())
	if err != nil {
		return nil, err
	}
	pm := paperModel{
		name: "ResNet56",
		spec: workload.ResNet56(),
		step: workload.Balanced{Base: workload.ResNet56().BaseStep, Jitter: 0.3},
	}
	cfg := s.baseConfig(trainsim.RNA, pm, 2, opts.iters(60), opts.seed())
	cfg.Injector = hetero.PerNode{Delays: []time.Duration{0, 30 * time.Millisecond}}
	cfg.CollectTrace = true
	res, err := trainsim.Run(cfg)
	if err != nil {
		return nil, err
	}
	nulls := 0
	for _, sp := range res.Trace.Spans() {
		if sp.Kind.String() == "null" {
			nulls++
		}
	}
	var body strings.Builder
	fmt.Fprintf(&body, "Two workers, w1 persistently +30 ms; %d synchronizations, %d null contributions (%.0f%% of slots).\n",
		res.Iterations, nulls, res.NullContribRate*100)
	body.WriteString(res.Trace.Render(76, 600*time.Millisecond))
	fmt.Fprintf(&body, "\nFinal training accuracy %.1f%% — cross-iteration accumulation preserves the slow worker's gradients.\n",
		res.TrainAcc*100)
	rep.Body = body.String()
	rep.Metrics["nullrate"] = res.NullContribRate
	rep.Metrics["trainacc"] = res.TrainAcc
	return rep, nil
}
