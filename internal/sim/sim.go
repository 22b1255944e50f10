// Package sim implements a deterministic discrete-event engine with a
// virtual clock: callbacks scheduled with At or After run in timestamp order,
// ties broken by insertion order, until the queue drains, Stop is called or
// an event budget runs out. internal/trainsim's AD-PSGD simulation schedules
// its workers' compute steps and pairwise averagings on it, so a run is fully
// reproducible given its RNG seed.
package sim

import (
	"container/heap"
	"errors"
	"time"
)

// ErrStopped is returned by Run when the engine was stopped before the
// event queue drained.
var ErrStopped = errors.New("sim: engine stopped")

// Event is a scheduled callback.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *eventQueue) Push(x any) { *q = append(*q, x.(*event)) }

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use: all callbacks run on the goroutine that calls Run.
type Engine struct {
	queue   eventQueue
	now     time.Duration
	seq     uint64
	stopped bool
	// processed counts executed events, exposed for diagnostics and to
	// guard tests against runaway simulations.
	processed uint64
}

// NewEngine returns an empty engine at virtual time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Processed returns how many events have executed.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// runs at the current time (never rewinds the clock).
func (e *Engine) At(t time.Duration, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.queue, &event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d after the current virtual time. Negative d is
// treated as zero.
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

// Stop aborts the run loop after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in timestamp order until the queue drains, Stop is
// called, or maxEvents fire (0 means unlimited). It returns ErrStopped if
// stopped early and an error if the event budget was exhausted.
func (e *Engine) Run(maxEvents uint64) error {
	e.stopped = false
	for len(e.queue) > 0 {
		if e.stopped {
			return ErrStopped
		}
		if maxEvents > 0 && e.processed >= maxEvents {
			return errors.New("sim: event budget exhausted")
		}
		ev := heap.Pop(&e.queue).(*event)
		e.now = ev.at
		e.processed++
		ev.fn()
	}
	return nil
}
