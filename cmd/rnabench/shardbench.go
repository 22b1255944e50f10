package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/collective"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Sharded owner-computes benchmarks: the update sweep recorded in
// BENCH_collective.json, the end-to-end sharded-vs-replicated Adam sweep
// recorded in BENCH_train.json, and the bench-smoke bit-identity slice.

// The update sweep's grid: the rank counts and vector sizes over which
// AlgoAuto may hand a synchronization to the owner-computes update.
var (
	shardSweepRanks = []int{2, 3, 4, 8}
	shardSweepDims  = []int{2 << 10, 16 << 10, 128 << 10, 1 << 20}
)

const (
	shardSweepReps  = 5
	shardSweepIters = 20
)

// shardSweepRow is one (ranks, dim) point: what a synchronization costs after
// the gradient, both ways core can run it on the ring, over loopback TCP.
type shardSweepRow struct {
	Ranks int `json:"ranks"`
	Dim   int `json:"dim"`
	// ReplicatedNs: RingAllReduce, then every rank steps the whole vector.
	ReplicatedNs int64 `json:"replicated_ns"`
	// OwnerNs: RingReduceScatter, each rank steps the chunk it owns,
	// RingAllGather of the parameters.
	OwnerNs int64   `json:"owner_computes_ns"`
	Ratio   float64 `json:"owner_over_replicated"`
	// AutoSelects: core's AlgoAuto runs the owner-computes update here.
	AutoSelects bool `json:"auto_selects"`
}

// timeShardUpdate times one update body over a fresh n-rank TCP cluster:
// momentum-SGD over dim parameters, min over shardSweepReps of the mean of
// shardSweepIters synchronizations after two warm ones.
func timeShardUpdate(n, dim int, owner bool) (int64, error) {
	meshes, err := transport.NewTCPCluster(n)
	if err != nil {
		return 0, err
	}
	defer func() {
		for _, m := range meshes {
			_ = m.Close()
		}
	}()
	steps := make([]func(iter int64) error, n)
	for i, m := range meshes {
		params, grad := tensor.New(dim), tensor.New(dim)
		for j := range grad {
			grad[j] = float64(i+j) * 1e-3
		}
		lo, hi := 0, dim
		if owner {
			lo, hi = collective.RingOwned(dim, n, i)
		}
		optim, err := opt.NewSGD(max(hi-lo, 1), 0.01, 0.9, 0)
		if err != nil {
			return 0, err
		}
		steps[i] = func(iter int64) error {
			var err error
			if owner {
				err = collective.RingReduceScatter(m, iter, grad, collective.OpAverage)
			} else {
				err = collective.RingAllReduce(m, iter, grad, collective.OpAverage)
			}
			if err == nil && hi > lo {
				_, err = optim.Step(params[lo:hi], grad[lo:hi], 1)
			}
			if err == nil && owner {
				err = collective.RingAllGather(m, iter, params, collective.Options{})
			}
			return err
		}
	}
	round := func(iter int64) error {
		done := make(chan error, n)
		for _, step := range steps {
			go func() { done <- step(iter) }()
		}
		var first error
		for range steps {
			if err := <-done; err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	var best time.Duration
	iter := int64(0)
	for r := 0; r < shardSweepReps; r++ {
		var start time.Time
		for i := -2; i < shardSweepIters; i++ {
			if i == 0 {
				start = time.Now()
			}
			if err := round(iter); err != nil {
				return 0, fmt.Errorf("sharded sweep n%d dim%d: %w", n, dim, err)
			}
			iter++
		}
		if d := time.Since(start); r == 0 || d < best {
			best = d
		}
	}
	return best.Nanoseconds() / shardSweepIters, nil
}

// runShardSweep measures the update both ways at every grid point and derives
// the gate: wherever AlgoAuto selects the owner-computes update it must not
// cost more than the replicated one (the largest ratio over those rows; the
// bar is <= 1.1, the sweep's own run-to-run spread on a shared host, and the
// rows outside the selection show what a size floor would have to exclude).
func runShardSweep(rep *collectiveBenchReport) error {
	for _, n := range shardSweepRanks {
		for _, dim := range shardSweepDims {
			fmt.Fprintf(os.Stderr, "collective bench: owner-computes update n%d dim%d (TCP)...\n", n, dim)
			row := shardSweepRow{Ranks: n, Dim: dim, AutoSelects: collective.AutoRunsRingPair(n, dim, tensor.F64)}
			var err error
			if row.ReplicatedNs, err = timeShardUpdate(n, dim, false); err != nil {
				return err
			}
			if row.OwnerNs, err = timeShardUpdate(n, dim, true); err != nil {
				return err
			}
			row.Ratio = float64(row.OwnerNs) / float64(row.ReplicatedNs)
			rep.Sharded = append(rep.Sharded, row)
			if row.AutoSelects && row.Ratio > rep.GateShardedComposedRatio {
				rep.GateShardedComposedRatio = row.Ratio
			}
		}
	}
	return nil
}

// shardTrainConfig is the end-to-end sweep's model: an MLP whose parameter
// vector (71178 elements) makes the full-vector Adam step a visible share
// of the round, with a single-example batch so the gradient does not drown
// it — the regime where owner-computes pays: every rank steps dim/8 elements
// instead of all 8 ranks redundantly stepping dim.
func shardTrainConfig(sharded bool, iters int) (core.TrainConfig, error) {
	src := rng.New(31)
	ds, err := data.Blobs(src, 10, 128, 40, 0.3)
	if err != nil {
		return core.TrainConfig{}, err
	}
	m, err := model.NewMLP(ds, 512)
	if err != nil {
		return core.TrainConfig{}, err
	}
	return core.TrainConfig{
		Model:          m,
		Batch:          func(s *rng.Source) []int { return ds.Batch(s, 1) },
		LR:             0.005,
		Iterations:     iters,
		StalenessBound: 2,
		Seed:           42,
		Adam:           true,
		Algorithm:      collective.AlgoRing, // same schedule on both paths
		ShardedUpdate:  sharded,
	}, nil
}

// timeShardTrainRun runs one full 8-rank BSP training over the in-memory
// mesh and returns the wall time and the largest per-rank optimizer state.
func timeShardTrainRun(sharded bool, iters int) (time.Duration, int64, error) {
	const n = 8
	cfg, err := shardTrainConfig(sharded, iters)
	if err != nil {
		return 0, 0, err
	}
	ctrl, err := controller.New(controller.AllReady, n, 0, 1)
	if err != nil {
		return 0, 0, err
	}
	net, err := transport.NewLocalNetwork(n)
	if err != nil {
		return 0, 0, err
	}
	defer func() { _ = net.Close() }()
	eps := net.Endpoints()
	results := make([]*core.Result, n)
	errs := make([]error, n)
	done := make(chan int, n)
	start := time.Now()
	for i := range eps {
		i := i
		go func() {
			results[i], errs[i] = core.RunBSPWorker(eps[i], ctrl, cfg)
			done <- i
		}()
	}
	for range eps {
		<-done
	}
	wall := time.Since(start)
	var maxState int64
	for i, err := range errs {
		if err != nil {
			return 0, 0, fmt.Errorf("rank %d: %w", i, err)
		}
		if results[i].OptStateBytes > maxState {
			maxState = results[i].OptStateBytes
		}
	}
	return wall, maxState, nil
}

const (
	shardTrainIters = 10
	shardTrainReps  = 3
)

// runShardedTrainBench measures replicated vs sharded Adam with real core
// workers (min of reps, after one warmup each) and fills the train report's
// sharded rows and gates.
func runShardedTrainBench(rep *trainBenchReport) error {
	measure := func(name string, sharded bool) (trainBenchCase, int64, error) {
		fmt.Fprintf(os.Stderr, "train bench: %s...\n", name)
		if _, _, err := timeShardTrainRun(sharded, 2); err != nil { // warmup
			return trainBenchCase{}, 0, err
		}
		var best time.Duration
		var state int64
		for r := 0; r < shardTrainReps; r++ {
			wall, s, err := timeShardTrainRun(sharded, shardTrainIters)
			if err != nil {
				return trainBenchCase{}, 0, err
			}
			if r == 0 || wall < best {
				best = wall
			}
			state = s
		}
		return trainBenchCase{Name: name, NsPerOp: best.Nanoseconds() / shardTrainIters}, state, nil
	}
	repl, replState, err := measure("CoreBSP/Adam/replicated", false)
	if err != nil {
		return err
	}
	shard, shardState, err := measure("CoreBSP/Adam/sharded", true)
	if err != nil {
		return err
	}
	rep.Current = append(rep.Current, repl, shard)
	if shard.NsPerOp > 0 {
		rep.GateShardedAdamSpeedup = float64(repl.NsPerOp) / float64(shard.NsPerOp)
	}
	rep.OptStateBytesReplicated = replState
	rep.OptStateBytesShardedMax = shardState
	if shardState > 0 {
		rep.OptStateReduction = float64(replState) / float64(shardState)
	}
	return nil
}

// smokeSharded is the bench-smoke slice of the sharded path: a real 4-rank
// TCP cluster trains with replicated Adam, then with sharded Adam, and every
// rank's parameters must match the replicated run bit for bit.
func smokeSharded() error {
	const n, iters = 4, 8
	src := rng.New(77)
	ds, err := data.Blobs(src, 4, 6, 40, 0.25)
	if err != nil {
		return err
	}
	m, err := model.NewLogistic(ds)
	if err != nil {
		return err
	}
	base := core.TrainConfig{
		Model:          m,
		Batch:          func(s *rng.Source) []int { return ds.Batch(s, 16) },
		LR:             0.05,
		Iterations:     iters,
		StalenessBound: 2,
		Seed:           42,
		Adam:           true,
		Algorithm:      collective.AlgoRing,
	}
	run := func(cfg core.TrainConfig) ([]*core.Result, error) {
		ctrl, err := controller.New(controller.AllReady, n, 0, 1)
		if err != nil {
			return nil, err
		}
		meshes, err := transport.NewTCPCluster(n)
		if err != nil {
			return nil, err
		}
		defer func() {
			for _, m := range meshes {
				_ = m.Close()
			}
		}()
		results := make([]*core.Result, n)
		errs := make([]error, n)
		done := make(chan int, n)
		for i := range meshes {
			i := i
			go func() {
				results[i], errs[i] = core.RunBSPWorker(meshes[i], ctrl, cfg)
				done <- i
			}()
		}
		for range meshes {
			<-done
		}
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("rank %d: %w", i, err)
			}
		}
		return results, nil
	}
	repl, err := run(base)
	if err != nil {
		return fmt.Errorf("replicated: %w", err)
	}
	cfg := base
	cfg.ShardedUpdate = true
	shard, err := run(cfg)
	if err != nil {
		return fmt.Errorf("sharded: %w", err)
	}
	for r := range shard {
		for j := range repl[0].Params {
			if math.Float64bits(shard[r].Params[j]) != math.Float64bits(repl[0].Params[j]) {
				return fmt.Errorf("sharded: rank %d diverges from replicated at [%d]", r, j)
			}
		}
	}
	return nil
}
