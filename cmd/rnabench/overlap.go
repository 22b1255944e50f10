package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/collective"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Overlap benchmark: real core BSP workers over a TCP cluster paced to an
// emulated commodity link, A/B-ing the reducer pipeline (bucket collectives
// launched during backprop) against the sequential reference schedule
// (identical bucket plan, each collective joined before the next launches).
// Both variants run the same data path, so the measured gap is purely the
// comm/compute overlap — and the final parameters must match bitwise, which
// the harness asserts on every point.

// overlapBenchRow is one (model, fusion, link) point of the overlap sweep.
type overlapBenchRow struct {
	Model    string  `json:"model"`
	Ranks    int     `json:"ranks"`
	Dim      int     `json:"dim"`
	Buckets  int     `json:"buckets"`
	FusionKB int     `json:"fusion_kb"`
	LinkMBps float64 `json:"link_mbps"`
	// SeqMsPerIter / OverlapMsPerIter are wall-clock per training step
	// (slowest rank), sequential vs pipelined schedule.
	SeqMsPerIter     float64 `json:"seq_ms_per_iter"`
	OverlapMsPerIter float64 `json:"overlap_ms_per_iter"`
	Speedup          float64 `json:"speedup"`
	// MaxInFlight is the peak number of concurrently in-flight bucket
	// collectives on one mesh (max across ranks).
	MaxInFlight int `json:"max_in_flight"`
}

// overlapPoint describes one sweep configuration.
type overlapPoint struct {
	name              string
	ranks             int
	features, hidden  int
	classes, perClass int
	batch             int
	fusionBytes       int
	iters             int
	linkRate          float64 // bytes/s outbound per connection; 0 = unthrottled
	gate              bool    // this point feeds the acceptance gates
}

// overlapSweep: bucket size x model size x link rate. The gate point is the
// large comm-bound MLP on the 500 Mbit/s emulated link (wireLinkRate), where
// hiding the reduction behind the backward pass must buy >= 1.3x.
var overlapSweep = []overlapPoint{
	// MLP-large, 500 Mbit/s: the comm-bound acceptance point, at two fusion
	// thresholds to show the bucket-size tradeoff.
	{name: "mlp-large", ranks: 4, features: 256, hidden: 512, classes: 16, perClass: 40,
		batch: 96, fusionBytes: 128 << 10, iters: 10, linkRate: wireLinkRate, gate: true},
	{name: "mlp-large", ranks: 4, features: 256, hidden: 512, classes: 16, perClass: 40,
		batch: 96, fusionBytes: 512 << 10, iters: 10, linkRate: wireLinkRate},
	// MLP-small on the same link: little to hide, overlap should be ~neutral.
	{name: "mlp-small", ranks: 4, features: 64, hidden: 64, classes: 8, perClass: 40,
		batch: 64, fusionBytes: 32 << 10, iters: 10, linkRate: wireLinkRate},
	// MLP-large on unthrottled loopback: compute-bound regime.
	{name: "mlp-large", ranks: 4, features: 256, hidden: 512, classes: 16, perClass: 40,
		batch: 96, fusionBytes: 128 << 10, iters: 10, linkRate: 0},
}

const overlapBenchReps = 3

// buildOverlapConfig constructs the shared worker config and reports the
// bucket-plan size for the point.
func buildOverlapConfig(p overlapPoint) (core.TrainConfig, int, error) {
	ds, err := data.Blobs(rng.New(7), p.classes, p.features, p.perClass, 0.3)
	if err != nil {
		return core.TrainConfig{}, 0, err
	}
	m, err := model.NewMLP(ds, p.hidden)
	if err != nil {
		return core.TrainConfig{}, 0, err
	}
	cfg := core.TrainConfig{
		Model:       m,
		Batch:       func(src *rng.Source) []int { return ds.Batch(src, p.batch) },
		LR:          0.05,
		Momentum:    0.9,
		Iterations:  p.iters,
		Seed:        42,
		Overlap:     true,
		FusionBytes: p.fusionBytes,
	}
	plan := model.PlanBuckets(model.Buckets(m), p.fusionBytes)
	if err := model.ValidateBuckets(plan, m.Dim()); err != nil {
		return core.TrainConfig{}, 0, err
	}
	return cfg, len(plan), nil
}

// runOverlapWorkers runs p.ranks BSP workers over a fresh TCP cluster and
// returns the slowest rank's wall-clock, the peak in-flight gauge, and rank
// 0's final parameters (for the bit-identity assertion).
func runOverlapWorkers(p overlapPoint, cfg core.TrainConfig) (time.Duration, int, tensor.Vector, error) {
	meshes, err := transport.NewTCPCluster(p.ranks)
	if err != nil {
		return 0, 0, nil, err
	}
	defer func() {
		for _, m := range meshes {
			_ = m.Close()
		}
	}()
	if p.linkRate > 0 {
		for _, m := range meshes {
			m.SetLinkRate(p.linkRate)
		}
	}
	ctrl, err := controller.New(controller.AllReady, p.ranks, 0, 1)
	if err != nil {
		return 0, 0, nil, err
	}
	results := make([]*core.Result, p.ranks)
	errs := make([]error, p.ranks)
	done := make(chan int, p.ranks)
	start := time.Now()
	for i, m := range meshes {
		i, m := i, m
		go func() {
			results[i], errs[i] = core.RunBSPWorker(m, ctrl, cfg)
			done <- i
		}()
	}
	for range meshes {
		<-done
	}
	elapsed := time.Since(start)
	maxInFlight := 0
	for i := range meshes {
		if errs[i] != nil {
			return 0, 0, nil, errs[i]
		}
		if results[i].MaxInFlight > maxInFlight {
			maxInFlight = results[i].MaxInFlight
		}
	}
	return elapsed, maxInFlight, results[0].Params, nil
}

// benchOverlapPoint measures one sweep point, keeping the fastest of
// overlapBenchReps runs per schedule, and asserts the two schedules agree
// bitwise on the final parameters.
func benchOverlapPoint(p overlapPoint) (overlapBenchRow, error) {
	cfg, buckets, err := buildOverlapConfig(p)
	if err != nil {
		return overlapBenchRow{}, err
	}
	var (
		seqBest, overBest time.Duration
		maxInFlight       int
		seqParams         tensor.Vector
	)
	for r := 0; r < overlapBenchReps; r++ {
		seqCfg := cfg
		seqCfg.OverlapSerial = true
		seqT, _, sp, err := runOverlapWorkers(p, seqCfg)
		if err != nil {
			return overlapBenchRow{}, fmt.Errorf("%s sequential: %w", p.name, err)
		}
		overT, inFlight, op, err := runOverlapWorkers(p, cfg)
		if err != nil {
			return overlapBenchRow{}, fmt.Errorf("%s overlapped: %w", p.name, err)
		}
		if r == 0 {
			seqParams = sp
		}
		for j := range sp {
			if sp[j] != op[j] {
				return overlapBenchRow{}, fmt.Errorf("%s: overlapped params diverge from sequential at [%d]: %v vs %v",
					p.name, j, op[j], sp[j])
			}
			if sp[j] != seqParams[j] {
				return overlapBenchRow{}, fmt.Errorf("%s: sequential run not reproducible at [%d]", p.name, j)
			}
		}
		if r == 0 || seqT < seqBest {
			seqBest = seqT
		}
		if r == 0 || overT < overBest {
			overBest = overT
		}
		if inFlight > maxInFlight {
			maxInFlight = inFlight
		}
	}
	iters := float64(p.iters)
	row := overlapBenchRow{
		Model: p.name, Ranks: p.ranks, Dim: cfg.Model.Dim(), Buckets: buckets,
		FusionKB: p.fusionBytes >> 10, LinkMBps: p.linkRate / 1e6,
		SeqMsPerIter:     float64(seqBest.Microseconds()) / 1e3 / iters,
		OverlapMsPerIter: float64(overBest.Microseconds()) / 1e3 / iters,
		Speedup:          float64(seqBest) / float64(overBest),
		MaxInFlight:      maxInFlight,
	}
	return row, nil
}

// runOverlapSweep measures every sweep point and derives the two acceptance
// gates from the gate point: overlapped >= 1.3x over the sequential schedule,
// with >= 2 bucket collectives concurrently in flight on one mesh.
func runOverlapSweep(rep *collectiveBenchReport) error {
	for _, p := range overlapSweep {
		link := "unthrottled"
		if p.linkRate > 0 {
			link = fmt.Sprintf("%.0f MB/s emulated link", p.linkRate/1e6)
		}
		fmt.Fprintf(os.Stderr, "collective bench: overlap %s n%d fusion %dKB (%s)...\n",
			p.name, p.ranks, p.fusionBytes>>10, link)
		row, err := benchOverlapPoint(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "collective bench: overlap %s: seq %.1fms/iter, overlapped %.1fms/iter (%.2fx, %d buckets, %d in flight)\n",
			p.name, row.SeqMsPerIter, row.OverlapMsPerIter, row.Speedup, row.Buckets, row.MaxInFlight)
		rep.Overlap = append(rep.Overlap, row)
		if p.gate {
			rep.GateOverlapSpeedup = row.Speedup
			rep.GateOverlapInFlight = row.MaxInFlight
		}
	}
	return nil
}

// smokeCompression exercises one tiny compressed collective so the smoke run
// touches the wire-dtype path too.
func smokeCompression() error {
	meshes, err := transport.NewTCPCluster(2)
	if err != nil {
		return err
	}
	defer func() {
		for _, m := range meshes {
			_ = m.Close()
		}
	}()
	done := make(chan error, len(meshes))
	for _, m := range meshes {
		m := m
		go func() {
			v := tensor.New(256)
			for j := range v {
				v[j] = float64(m.Rank()+j) * 1e-3
			}
			res := tensor.New(256)
			done <- collective.AllReduceOpts(m, 0, v, collective.OpAverage, collective.Options{
				Compression: tensor.F16, Residual: res,
			})
		}()
	}
	for range meshes {
		if err := <-done; err != nil {
			return err
		}
	}
	return nil
}

// runBenchSmoke is the CI smoke mode: one tiny overlap point end to end (real
// workers, TCP, multi-bucket plan, bit-identity assertion) plus a compressed
// collective, with no JSON written. It validates the benchmark harness wiring
// in seconds, not minutes.
func runBenchSmoke() error {
	p := overlapPoint{
		name: "smoke", ranks: 2, features: 32, hidden: 48, classes: 4, perClass: 20,
		batch: 16, fusionBytes: 8 << 10, iters: 3, linkRate: 0,
	}
	cfg, buckets, err := buildOverlapConfig(p)
	if err != nil {
		return err
	}
	if buckets < 2 {
		return fmt.Errorf("bench-smoke: plan collapsed to %d bucket(s); want a multi-bucket pipeline", buckets)
	}
	seqCfg := cfg
	seqCfg.OverlapSerial = true
	_, _, sp, err := runOverlapWorkers(p, seqCfg)
	if err != nil {
		return fmt.Errorf("bench-smoke sequential: %w", err)
	}
	_, inFlight, op, err := runOverlapWorkers(p, cfg)
	if err != nil {
		return fmt.Errorf("bench-smoke overlapped: %w", err)
	}
	for j := range sp {
		if sp[j] != op[j] {
			return fmt.Errorf("bench-smoke: overlapped params diverge at [%d]", j)
		}
	}
	if err := smokeCompression(); err != nil {
		return fmt.Errorf("bench-smoke compression: %w", err)
	}
	if err := smokeRingRegression("BENCH_collective.json"); err != nil {
		return fmt.Errorf("bench-smoke ring regression: %w", err)
	}
	if err := smokeSharded(); err != nil {
		return fmt.Errorf("bench-smoke sharded: %w", err)
	}
	fmt.Fprintf(os.Stderr, "bench-smoke: ok (%d buckets, %d in flight, sharded Adam bit-identical to replicated, params bit-identical)\n", buckets, inFlight)
	return nil
}
