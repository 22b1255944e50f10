package controller

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/rng"
)

// Controller is the concurrent central scheduler for the goroutine runtime.
// It keeps no training state — only which workers have announced gradient
// readiness for which iteration — and fires each iteration's trigger
// according to its policy. Workers call Ready when their gradient lands and
// Await to block until the synchronization for an iteration should start.
//
// Readiness is monotone: Ready(w, k) implies readiness for every iteration
// ≤ k, mirroring the paper's probe expiry ("the probe identification is
// updated to the next iteration" when a stale reply arrives). What k counts is
// the caller's: a BSP worker announces its step; an RNA worker announces the
// first synchronization that can still take the gradient it just finished
// (core.Accumulator.Commit), so "a probed worker announced ≥ k" reads "a
// probed worker holds a gradient no synchronization has taken", the fresh
// reply of the simulator's probe.
type Controller struct {
	policy Policy
	n      int
	q      int

	mu sync.Mutex
	// readyIter[w] is the highest iteration worker w announced.
	readyIter []int64
	// started[w] is true once w announced any readiness.
	started []bool
	// announced[w] counts w's announcements, one per gradient; bound is the
	// window the probe policies hold synchronizations to (Floor; 0: none).
	announced []int64
	bound     int64
	iters     map[int64]*iterState
	src       *rng.Source
}

type iterState struct {
	probes []int
	fired  chan struct{}
	// initiator is the worker whose readiness fired the trigger, -1 for
	// barrier policies.
	initiator int
}

// New returns a Controller for n workers. q is the probe count for
// PowerOfChoices (ignored otherwise); seed makes probe selection
// reproducible.
func New(policy Policy, n, q int, seed int64) (*Controller, error) {
	if n <= 0 {
		return nil, fmt.Errorf("controller: %d workers", n)
	}
	if policy == PowerOfChoices && q < 1 {
		return nil, fmt.Errorf("controller: power-of-choices with q=%d", q)
	}
	return &Controller{
		policy:    policy,
		n:         n,
		q:         q,
		readyIter: make([]int64, n),
		started:   make([]bool, n),
		announced: make([]int64, n),
		iters:     make(map[int64]*iterState),
		src:       rng.New(seed),
	}, nil
}

// Policy returns the controller's trigger policy.
func (c *Controller) Policy() Policy { return c.policy }

// Bound sets the bounded-delay window η of the probe policies: from now on
// synchronization k fires only once every worker has announced Floor(k, η)
// gradients. The workers of a run all pass the same η, before they announce
// anything.
func (c *Controller) Bound(eta int64) {
	c.mu.Lock()
	c.bound = eta
	c.mu.Unlock()
}

// Ready announces that worker w has a gradient available for iteration
// iter. Announcements are monotone; regressions are ignored.
func (c *Controller) Ready(w int, iter int64) error {
	if w < 0 || w >= c.n {
		return fmt.Errorf("controller: worker %d of %d", w, c.n)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.announced[w]++
	if !c.started[w] || iter > c.readyIter[w] {
		c.started[w] = true
		if iter > c.readyIter[w] {
			c.readyIter[w] = iter
		}
	}
	for k, st := range c.iters {
		c.maybeFireLocked(k, st)
	}
	return nil
}

// Await returns a channel that is closed when the synchronization for
// iteration iter should fire, plus a function reporting the initiating
// worker once fired (-1 for barrier policies).
func (c *Controller) Await(iter int64) (<-chan struct{}, func() int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.ensureIterLocked(iter)
	return st.fired, func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return st.initiator
	}
}

// Probes returns the probe set chosen for iteration iter (stable per
// iteration), creating it on first use.
func (c *Controller) Probes(iter int64) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.ensureIterLocked(iter)
	out := make([]int, len(st.probes))
	copy(out, st.probes)
	return out
}

// Forget drops bookkeeping for iterations ≤ iter; callers invoke it after
// all workers pass an iteration to bound memory.
func (c *Controller) Forget(iter int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.iters {
		if k <= iter {
			delete(c.iters, k)
		}
	}
}

func (c *Controller) ensureIterLocked(iter int64) *iterState {
	st, ok := c.iters[iter]
	if !ok {
		st = &iterState{
			probes:    PickProbes(c.src, c.policy, c.n, c.q),
			fired:     make(chan struct{}),
			initiator: -1,
		}
		c.iters[iter] = st
		c.maybeFireLocked(iter, st)
	}
	return st
}

// readyForLocked reports whether worker w has announced readiness for
// iteration ≥ iter.
func (c *Controller) readyForLocked(w int, iter int64) bool {
	return c.started[w] && c.readyIter[w] >= iter
}

func (c *Controller) maybeFireLocked(iter int64, st *iterState) {
	select {
	case <-st.fired:
		return // already fired
	default:
	}
	fire := false
	initiator := -1
	switch c.policy {
	case AllReady:
		fire = true
		for w := 0; w < c.n; w++ {
			if !c.readyForLocked(w, iter) {
				fire = false
				break
			}
		}
	case RandomInitiator, PowerOfChoices:
		if c.bound > 0 && slices.Min(c.announced) < Floor(iter, c.bound) {
			break
		}
		for _, p := range st.probes {
			if c.readyForLocked(p, iter) {
				fire = true
				initiator = p
				break
			}
		}
	case Majority:
		need := c.n/2 + 1
		if need > c.n {
			need = c.n
		}
		count := 0
		for w := 0; w < c.n; w++ {
			if c.readyForLocked(w, iter) {
				count++
				if initiator < 0 {
					initiator = w
				}
			}
		}
		fire = count >= need
	case Solo:
		for w := 0; w < c.n; w++ {
			if c.readyForLocked(w, iter) {
				fire = true
				initiator = w
				break
			}
		}
	}
	if fire {
		st.initiator = initiator
		close(st.fired)
	}
}
