package collective

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/transport"
)

// Non-blocking collectives.
//
// Async multiplexes concurrent collectives over one mesh: each call runs on
// its own tag stream (the Message.Stream frame-header field — see
// transport.Streams), so several bucket reductions can be in flight at once
// without their messages interleaving. On a TCP mesh the streams route
// natively in the transport; other meshes get a cooperative demux. Go hands
// the caller's function the stream's mesh view on a goroutine and returns a
// Handle; Wait joins it. Everything else — algorithm auto-selection,
// compression Options, pooled buffers, the ErrTagOverflow guard — is the
// synchronous engine, called unchanged on the stream view.

// Async runs collectives concurrently on one mesh. All SPMD ranks of a job
// must drive their meshes through an Async with the same stream/iter
// discipline. A stream carries one collective at a time (Go on a busy
// stream fails); distinct streams are fully independent.
type Async struct {
	streams transport.StreamRouter

	mu    sync.Mutex
	views map[int32]transport.Mesh
	busy  map[int32]bool

	inFlight    atomic.Int32
	maxInFlight atomic.Int32
}

// NewAsync wraps m for concurrent collectives. The wrapped mesh's receive
// side belongs to the Async afterwards: raw m.Recv calls must not be mixed
// with in-flight streams.
func NewAsync(m transport.Mesh) *Async {
	return &Async{
		streams: transport.Streams(m),
		views:   make(map[int32]transport.Mesh),
		busy:    make(map[int32]bool),
	}
}

// Handle is one in-flight collective. Wait blocks until it completes and
// returns its error.
type Handle struct {
	done chan struct{}
	err  error
}

// Wait joins the collective. It is idempotent: further calls return the
// same error.
func (h *Handle) Wait() error {
	<-h.done
	return h.err
}

// MaxInFlight reports the largest number of collectives this Async has had
// in flight simultaneously — the observability hook behind the rnabench
// overlap gate.
func (a *Async) MaxInFlight() int { return int(a.maxInFlight.Load()) }

// view returns the (cached) mesh view for a stream.
func (a *Async) view(stream int32) transport.Mesh {
	v := a.views[stream]
	if v == nil {
		v = a.streams.StreamView(stream)
		a.views[stream] = v
	}
	return v
}

// acquire claims a stream for one collective and bumps the in-flight
// gauges. The stream id travels as a first-class frame-header field, so any
// int64 iter is usable on a stream — there is no packed-tag overflow to guard.
func (a *Async) acquire(stream int32) (transport.Mesh, error) {
	if stream < 0 {
		return nil, fmt.Errorf("collective: negative stream %d", stream)
	}
	a.mu.Lock()
	if a.busy[stream] {
		a.mu.Unlock()
		return nil, fmt.Errorf("collective: stream %d already has a collective in flight", stream)
	}
	a.busy[stream] = true
	v := a.view(stream)
	a.mu.Unlock()

	cur := a.inFlight.Add(1)
	for {
		m := a.maxInFlight.Load()
		if cur <= m || a.maxInFlight.CompareAndSwap(m, cur) {
			break
		}
	}
	return v, nil
}

func (a *Async) release(stream int32) {
	a.inFlight.Add(-1)
	a.mu.Lock()
	delete(a.busy, stream)
	a.mu.Unlock()
}

// Go launches run on the given stream's view of the mesh and returns without
// waiting. run is one collective (or a sequence of them) issued by all ranks
// on the same stream; whatever it reads or writes must stay untouched until
// Wait returns.
func (a *Async) Go(stream int32, run func(transport.Mesh) error) (*Handle, error) {
	m, err := a.acquire(stream)
	if err != nil {
		return nil, err
	}
	h := &Handle{done: make(chan struct{})}
	go func() {
		defer close(h.done)
		defer a.release(stream)
		h.err = run(m)
	}()
	return h, nil
}
