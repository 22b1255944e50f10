package trainsim

import (
	"fmt"
	"time"

	"repro/internal/controller"
	"repro/internal/ps"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/topology"
)

// psKey is the parameter-server key holding the global model in the
// hierarchical scheme.
const psKey = "global-model"

// profileProbes is the profiling window (iterations) used both to estimate
// per-worker speed and as the accumulation horizon of the grouping rule.
const profileProbes = 32

// runHierarchical simulates Section 4's hierarchical synchronization:
// workers are partitioned into speed-homogeneous groups by the recursive
// ζ > v rule, each group runs RNA internally, and after every group
// synchronization the group's initiator push-pull-averages the group model
// with a central parameter server and broadcasts the result inside the
// group. Groups proceed asynchronously; the PS is their only coupling.
func runHierarchical(cfg Config) (*Result, error) {
	// Profile each worker's per-task times over a window, as the paper's
	// group configuration does, then apply the ζ > v rule.
	obs, err := profileWorkers(&cfg)
	if err != nil {
		return nil, err
	}
	groups, err := topology.PartitionByObservations(obs)
	if err != nil {
		return nil, err
	}
	if len(groups) == 1 {
		// Homogeneous cluster: hierarchical degrades to plain RNA.
		res, err := runPartial(cfg, controller.PowerOfChoices)
		if err != nil {
			return nil, err
		}
		res.Strategy = RNAHierarchical
		return res, nil
	}

	store := ps.NewStore(1)
	// psFreeAt serializes the central server: concurrent group push-pulls
	// queue behind each other, so splitting into many groups re-creates
	// the PS communication hotspot instead of being free.
	var psFreeAt time.Duration
	sims := make([]*partialSim, len(groups))
	for gi, g := range groups {
		s, err := newPartialSim(&cfg, controller.PowerOfChoices, g.Members, int64(gi+1))
		if err != nil {
			return nil, err
		}
		if gi == 0 {
			// Seed the PS with the (shared) initial model so group
			// deltas accumulate on top of it.
			if _, err := store.Push(psKey, s.params, ps.Overwrite); err != nil {
				return nil, err
			}
		}
		// Periodically after a group sync the initiator exchanges with
		// the PS: it pushes the group's accumulated update (Section 4:
		// "the averaged gradients among each group is applied to
		// update models using parameter server"), pulls back the
		// global model that now carries every group's progress, and
		// broadcasts it within the group. The returned duration
		// extends the group's sync.
		groupSize := len(g.Members)
		rounds := 0
		lastPull := s.params.Clone()
		period := cfg.psSyncEvery()
		s.postSync = func(params tensor.Vector, syncEnd time.Duration) time.Duration {
			rounds++
			if rounds%period != 0 {
				return 0
			}
			// The group's progress since its last pull is its
			// aggregate applied gradient.
			delta := params.Clone()
			if err := delta.Sub(lastPull); err != nil {
				return 0
			}
			global, _, err := store.PushPull(psKey, delta, ps.Add)
			if err != nil {
				return 0
			}
			copy(params, global)
			copy(lastPull, global)
			start := syncEnd
			if psFreeAt > start {
				start = psFreeAt
			}
			psCost := cfg.Comm.PSPushPull(cfg.Spec.GradientBytes())
			psFreeAt = start + psCost
			return (start - syncEnd) + psCost +
				cfg.Comm.Broadcast(groupSize, cfg.Spec.GradientBytes())
		}
		sims[gi] = s
	}

	ev := newEvaluator(&cfg)
	res := &Result{
		Strategy:     RNAHierarchical,
		PerIterTimes: &stats.Sample{},
	}

	// Interleave group rounds in virtual-time order: always advance the
	// group whose last sync ended earliest, so PS interactions happen in
	// (approximately) global timestamp order.
	totalRounds := 0
	consensus := tensor.New(cfg.Model.Dim())
	evalNow := func(now time.Duration) (bool, error) {
		consensus.Zero()
		var weight float64
		for gi, s := range sims {
			// Weight each group's model by its worker count.
			w := float64(len(groups[gi].Members))
			if err := consensus.Axpy(w, s.params); err != nil {
				return false, err
			}
			weight += w
		}
		consensus.Scale(1 / weight)
		return sampleCurve(res, ev, consensus, now, totalRounds, cfg.TargetLoss)
	}

	var now time.Duration
	for totalRounds < cfg.maxIterations() {
		// Pick the group lagging furthest behind in virtual time.
		gi := 0
		for i, s := range sims {
			if s.now() < sims[gi].now() {
				gi = i
			}
		}
		s := sims[gi]
		before := s.now()
		if err := s.nextRound(); err != nil {
			return nil, err
		}
		res.PerIterTimes.Add(float64(s.now() - before))
		totalRounds++
		now = max(now, s.now())
		res.Iterations = totalRounds

		if totalRounds%cfg.evalEvery() == 0 || totalRounds == cfg.maxIterations() {
			hit, err := evalNow(now)
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
	var nulls, slots int64
	for _, s := range sims {
		res.Breakdowns = append(res.Breakdowns, s.finishBreakdowns()...)
		res.CopyOverhead += s.copyOverhead
		nulls += s.nulls
		slots += s.slots
	}
	if slots > 0 {
		res.NullContribRate = float64(nulls) / float64(slots)
	}
	if len(res.Curve) == 0 {
		if _, err := evalNow(now); err != nil {
			return nil, err
		}
	}
	// Finalize with the consensus model.
	consensus.Zero()
	var weight float64
	for gi, s := range sims {
		w := float64(len(groups[gi].Members))
		if err := consensus.Axpy(w, s.params); err != nil {
			return nil, err
		}
		weight += w
	}
	consensus.Scale(1 / weight)
	ev.finalize(res, consensus)
	return res, nil
}

// profileWorkers samples each worker's per-task time over the profiling
// window — the measurement phase behind the ζ > v grouping decision.
func profileWorkers(cfg *Config) ([][]time.Duration, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("trainsim: %d workers", cfg.Workers)
	}
	root := rng.New(cfg.Seed + 999)
	inj := cfg.injector()
	obs := make([][]time.Duration, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		stepSrc := root.Split(2 * w)
		delaySrc := root.Split(2*w + 1)
		obs[w] = make([]time.Duration, profileProbes)
		for i := 0; i < profileProbes; i++ {
			obs[w][i] = time.Duration(float64(cfg.Step.Sample(stepSrc))*cfg.speedFactor(w)) +
				inj.Delay(delaySrc, w, i)
		}
	}
	return obs, nil
}
