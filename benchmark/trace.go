package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/ps"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// The traced pass measures every layer from outside: the workers are handed
// wrapped interfaces (model.Model, transport.Mesh, the Batch and SlowDown
// closures) that record a span around each call into the layer below. Spans
// stay in memory until the repetition ends. Nothing inside the program under
// test is touched; spans recorded from within the runtime are a later change.

// kind names a span's layer and operation.
type kind uint8

const (
	kGradient  kind = iota // model: one Gradient call
	kSleep                 // hetero: one injected sleep (Arg = requested ns)
	kSend                  // transport: Send/SendOwned of a collective frame
	kRecv                  // transport: Recv of a collective frame
	kBcastSend             // transport: in-group broadcast of the pulled model
	kBcastRecv
	kPSSend // ps: leader's frames toward the PS rank
	kPSRecv
	kStep // core: interval between a rank's consecutive Batch calls
	kSync // core: interval between a rank's first mesh op of sync k and k+1
)

var kindNames = [...][2]string{
	kGradient:  {"model", "gradient"},
	kSleep:     {"hetero", "sleep"},
	kSend:      {"transport", "send"},
	kRecv:      {"transport", "recv"},
	kBcastSend: {"transport", "bcast_send"},
	kBcastRecv: {"transport", "bcast_recv"},
	kPSSend:    {"ps", "send"},
	kPSRecv:    {"ps", "recv"},
	kStep:      {"core", "step"},
	kSync:      {"core", "sync"},
}

// span is one timed call. Iter is the shared identifier: the compute step
// for model/hetero/core.step spans, the synchronization index for
// transport/ps/core.sync spans (equal on a BSP rank).
type span struct {
	Rank       int32
	Kind       kind
	Iter       int64
	Start, End int64 // ns since the first worker launch
	Arg        int64 // wire bytes of a frame, requested ns of a sleep
}

// rankRec is one rank's recording state. stamps is filled in both passes
// (the end-to-end metrics are defined on it); the span slices only in the
// traced pass. compute has one writer, the rank's compute goroutine. comm
// has two: the goroutine that runs the collective receives, while the
// pipelined ring hands its sends to a sender goroutine of its own, so mesh
// spans are appended under mu.
type rankRec struct {
	rank   int
	epoch  time.Time
	stamps []int64 // time of every Batch call, preallocated to the budget
	end    int64   // time the worker returned

	traced  bool
	compute []span

	mu      sync.Mutex
	comm    []span
	curSync int64 // last sync index seen on stream 0
}

func (r *rankRec) now() int64 { return int64(time.Since(r.epoch)) }

// warmup snapshots the allocator once every rank has passed its warm-up
// step, so the allocs-per-sync metrics cover the steady state only.
type warmup struct {
	passed atomic.Int32
	mem    runtime.MemStats
}

// batchFunc returns the rank's Batch closure. It stamps the call time into
// the preallocated buffer; that is all the untraced pass ever records.
func (r *rankRec) batchFunc(in *inputs, batch int, w *warmup) func(*rng.Source) []int {
	return func(src *rng.Source) []int {
		r.stamps = append(r.stamps, r.now())
		if r.traced && len(r.stamps) == 2 && int(w.passed.Add(1)) == ranks {
			runtime.ReadMemStats(&w.mem)
		}
		return in.ds.Batch(src, batch)
	}
}

// slowDownFunc returns the rank's SlowDown closure, bound to its GLOBAL
// rank: RunHierarchicalWorker passes the group-local rank, which would make
// a shared per-node injector delay the wrong workers.
//
// Untraced, the closure returns the drawn delay and core sleeps. Traced, it
// performs the sleep itself at the very same point of the loop and returns
// zero: that is the only way to see the requested and the measured sleep
// from outside (core's time.Sleep cannot be wrapped).
func (r *rankRec) slowDownFunc(s *spec, in *inputs) func(int, int) time.Duration {
	if s.delay == nil {
		return nil
	}
	return func(_, iter int) time.Duration {
		d := s.delay.Delay(in.delaySrc[r.rank], r.rank, iter)
		if !r.traced || d <= 0 {
			return d
		}
		t0 := r.now()
		time.Sleep(d)
		r.compute = append(r.compute, span{Rank: int32(r.rank), Kind: kSleep, Iter: int64(iter), Start: t0, End: r.now(), Arg: int64(d)})
		return 0
	}
}

// tracedModel times Gradient. It deliberately does not implement
// model.LayeredModel; tracedLayered adds that for models that have it, so
// wrapping never changes which code path core selects.
type tracedModel struct {
	inner model.Model
	rec   *rankRec
}

func (m *tracedModel) Dim() int { return m.inner.Dim() }

func (m *tracedModel) Loss(params tensor.Vector, batch []int) (float64, error) {
	return m.inner.Loss(params, batch)
}

func (m *tracedModel) Init(src *rng.Source, params tensor.Vector) { m.inner.Init(src, params) }

func (m *tracedModel) Gradient(params, grad tensor.Vector, batch []int) (float64, error) {
	t0 := m.rec.now()
	loss, err := m.inner.Gradient(params, grad, batch)
	m.rec.gradientSpan(t0)
	return loss, err
}

func (r *rankRec) gradientSpan(t0 int64) {
	r.compute = append(r.compute, span{Rank: int32(r.rank), Kind: kGradient, Iter: int64(len(r.stamps) - 1), Start: t0, End: r.now()})
}

type tracedLayered struct {
	tracedModel
	layered model.LayeredModel
}

func (m *tracedLayered) GradientBuckets() []model.Span { return m.layered.GradientBuckets() }

func (m *tracedLayered) GradientLayers(params, grad tensor.Vector, batch []int, emit func(int) error) (float64, error) {
	t0 := m.rec.now()
	loss, err := m.layered.GradientLayers(params, grad, batch, emit)
	m.rec.gradientSpan(t0)
	return loss, err
}

func traceModel(inner model.Model, rec *rankRec) model.Model {
	tm := tracedModel{inner: inner, rec: rec}
	if lm, ok := inner.(model.LayeredModel); ok {
		return &tracedLayered{tracedModel: tm, layered: lm}
	}
	return &tm
}

// tracedMesh times every Send, SendOwned and Recv of one rank. It forwards
// the optional capabilities the runtime probes for (OwnedSender,
// StreamRouter, and Parent for the capability lookup), so a wrapped TCP mesh
// takes exactly the code path the bare one does.
type tracedMesh struct {
	inner  transport.Mesh
	router transport.StreamRouter
	rec    *rankRec
	stream int32
}

var (
	_ transport.OwnedSender  = (*tracedMesh)(nil)
	_ transport.StreamRouter = (*tracedMesh)(nil)
)

func traceMesh(inner *transport.TCPMesh, rec *rankRec) *tracedMesh {
	return &tracedMesh{inner: inner, router: inner, rec: rec}
}

func (m *tracedMesh) Rank() int { return m.inner.Rank() }
func (m *tracedMesh) Size() int { return m.inner.Size() }

// Parent lets transport.MeshCaps reach the negotiated capability set.
func (m *tracedMesh) Parent() transport.Mesh { return m.inner }

// Close closes the wrapped endpoint.
func (m *tracedMesh) Close() error { return m.inner.Close() }

// StreamView wraps the native stream view, so parameter-server frames (which
// travel on ps.PSStream) are timed too and attributed to the ps layer.
func (m *tracedMesh) StreamView(id int32) transport.Mesh {
	return &tracedMesh{inner: m.router.StreamView(id), router: m.router, rec: m.rec, stream: id}
}

func (m *tracedMesh) Send(to int, msg transport.Message) error {
	t0 := m.rec.now()
	err := m.inner.Send(to, msg)
	m.rec.meshSpan(true, m.stream, msg.Iter, wireBytes(msg), t0)
	return err
}

func (m *tracedMesh) SendOwned(to int, msg transport.Message) error {
	// The payload belongs to the transport after the call; size it first.
	wire := wireBytes(msg)
	t0 := m.rec.now()
	err := transport.SendOwned(m.inner, to, msg)
	m.rec.meshSpan(true, m.stream, msg.Iter, wire, t0)
	return err
}

func (m *tracedMesh) Recv(from int) (transport.Message, error) {
	t0 := m.rec.now()
	msg, err := m.inner.Recv(from)
	if err == nil {
		m.rec.meshSpan(false, m.stream, msg.Iter, wireBytes(msg), t0)
	}
	return msg, err
}

// frameHeader is the v1 frame header size (transport/message.go).
const frameHeader = 36

func wireBytes(msg transport.Message) int64 {
	return frameHeader + int64(4*len(msg.Indices)) + int64(msg.Dtype.WireBytes(len(msg.Payload)))
}

// meshSpan classifies a frame by where it travels: the PS stream is the
// ps layer (its Iter field carries a version horizon, so the span takes the
// sync it happened in); a negative Iter is the hierarchical broadcast, which
// core tags ^k; everything else is sync Iter's collective traffic.
func (r *rankRec) meshSpan(send bool, stream int32, iter, wire, t0 int64) {
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	k := kRecv
	switch {
	case stream == ps.PSStream:
		k, iter = kPSRecv, r.curSync
	case iter < 0:
		k, iter = kBcastRecv, ^iter
	default:
		r.curSync = iter
	}
	if send {
		k-- // every send kind sits just before its recv kind
	}
	r.comm = append(r.comm, span{Rank: int32(r.rank), Kind: k, Iter: iter, Start: t0, End: end, Arg: wire})
}
