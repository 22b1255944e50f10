// Package controller implements RNA's central scheduler (Section 3): it
// holds no training state, only instantaneous readiness information, and
// decides *when* each iteration's AllReduce fires. The decision policies —
// wait-for-all (Horovod's NEGOTIATE_ALLREDUCE), purely random initiator,
// and power-of-two-choices probing — are exposed both as pure functions
// (used by the virtual-time simulator) and as a concurrent Controller for
// the goroutine runtime.
package controller

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/opt"
	"repro/internal/rng"
)

// Policy selects the synchronization trigger rule.
type Policy int

// Trigger policies.
const (
	// AllReady fires when every worker is ready — the BSP barrier.
	AllReady Policy = iota + 1
	// RandomInitiator fires when one uniformly chosen worker is ready
	// (the "choice of one" baseline in Fig. 10).
	RandomInitiator
	// PowerOfChoices probes q random workers and fires when the fastest
	// replies (q=2 is the paper's default).
	PowerOfChoices
	// Majority fires when strictly more than half the workers are ready
	// (⌊n/2⌋+1) — eager-SGD's majority collective.
	Majority
	// Solo fires as soon as any worker is ready — eager-SGD's solo
	// collective.
	Solo
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case AllReady:
		return "all-ready"
	case RandomInitiator:
		return "random"
	case PowerOfChoices:
		return "power-of-choices"
	case Majority:
		return "majority"
	case Solo:
		return "solo"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// PickProbes returns the distinct worker indices the scheduler probes this
// iteration under the given policy: nil when the policy needs no probes
// (AllReady/Majority/Solo consider everyone), one worker for
// RandomInitiator, q workers for PowerOfChoices.
func PickProbes(src *rng.Source, policy Policy, n, q int) []int {
	switch policy {
	case RandomInitiator:
		return []int{src.Intn(n)}
	case PowerOfChoices:
		if q < 1 {
			q = 2
		}
		return src.SampleDistinct(n, q)
	default:
		return nil
	}
}

// TriggerTime returns the virtual time at which the synchronization fires,
// given every worker's gradient-ready time for the iteration. probes is the
// PickProbes result (ignored for policies that need none). The returned
// initiator is the worker whose readiness fired the trigger (-1 for
// AllReady where there is no single initiator).
func TriggerTime(policy Policy, probes []int, ready []time.Duration) (at time.Duration, initiator int) {
	switch policy {
	case AllReady:
		var max time.Duration
		for _, t := range ready {
			if t > max {
				max = t
			}
		}
		return max, -1
	case RandomInitiator, PowerOfChoices:
		best := time.Duration(-1)
		who := -1
		for _, p := range probes {
			if p < 0 || p >= len(ready) {
				continue
			}
			if best < 0 || ready[p] < best {
				best = ready[p]
				who = p
			}
		}
		if who < 0 {
			// No valid probes degenerates to solo.
			return TriggerTime(Solo, nil, ready)
		}
		return best, who
	case Majority:
		k := len(ready)/2 + 1 // strictly more than half
		if k > len(ready) {
			k = len(ready)
		}
		return kthSmallest(ready, k)
	case Solo:
		return kthSmallest(ready, 1)
	default:
		return TriggerTime(AllReady, nil, ready)
	}
}

// kthSmallest returns the k-th smallest ready time (1-based) and the worker
// holding it.
func kthSmallest(ready []time.Duration, k int) (time.Duration, int) {
	if len(ready) == 0 {
		return 0, -1
	}
	if k < 1 {
		k = 1
	}
	if k > len(ready) {
		k = len(ready)
	}
	type entry struct {
		t time.Duration
		w int
	}
	es := make([]entry, len(ready))
	for i, t := range ready {
		es[i] = entry{t, i}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].t != es[j].t {
			return es[i].t < es[j].t
		}
		return es[i].w < es[j].w
	})
	return es[k-1].t, es[k-1].w
}

// Floor is the bounded-delay gate (Assumption 2), stated once for the
// simulator and the runtime: synchronization k may not fire before every
// worker has produced Floor(k, η) gradients, so no synchronization outruns the
// slowest worker by more than the staleness bound η.
func Floor(k, bound int64) int64 { return k + 1 - bound }

// Slot is N gradients pre-summed under one Stamp, the parameter version they
// were computed for plus one; W is the weight Weigh gives their sum.
type Slot struct {
	Stamp int64
	N     int
	W     float64
}

// Weigh is the bounded-staleness rule of Section 3.3 for synchronization k,
// stated once for the simulator and the runtime. slots are a worker's
// pending gradients, oldest first. A slot whose gap τ = k − Stamp reaches η
// (and is positive) is dropped: its W is 0. A survivor weighs Stamp − base
// with base = k − τ − 1 for the largest surviving τ, so the oldest weighs 1
// and newer ones linearly more. W is that times N_kept over
// Σ N·(Stamp − base), N_kept being the gradients that survive: the factor its
// sum enters the worker's contribution with. The paper's relative weights
// stay, and Σ N·W = N_kept, so the contribution counts as the N_kept
// mini-batches it carries. It returns N_kept, the worker's flag in the
// partial collective.
func Weigh(k, eta int64, slots []Slot) (kept int) {
	stale := func(s Slot) bool { gap := k - s.Stamp; return gap >= eta && gap > 0 }
	var tau int64
	for _, s := range slots {
		if !stale(s) {
			tau = max(tau, k-s.Stamp)
		}
	}
	base := k - tau - 1
	var total float64
	for i, s := range slots {
		slots[i].W = 0
		if !stale(s) {
			slots[i].W = float64(s.Stamp - base)
			total += float64(s.N) * slots[i].W
			kept += s.N
		}
	}
	if kept > 0 {
		for i := range slots {
			slots[i].W = slots[i].W * float64(kept) / total
		}
	}
	return kept
}

// Step returns the two factors of Algorithm 2's update once a synchronization
// of n workers carries batches > 0 mini-batches, the sum of the contributors'
// Weigh counts: mean turns the reduced sum into the mean over those
// mini-batches, and scale is the Linear Scaling Rule's factor batches/n on the
// learning rate. Each mini-batch then moves the model by γ/n, as under BSP,
// however many a rank brought.
func Step(batches, n int) (mean, scale float64, err error) {
	scale, err = opt.LinearScale(batches, n)
	return 1 / float64(batches), scale, err
}
