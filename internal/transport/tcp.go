package transport

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tensor"
)

// dialTimeout bounds connection establishment to a peer.
const dialTimeout = 10 * time.Second

// tuneConn applies the mesh's socket options to a freshly established peer
// connection: TCP_NODELAY so small control messages (handshakes, initiator
// signals, scatter tails) don't sit out a Nagle delay behind unacked bulk
// data, and a keep-alive probe so a silently dead peer eventually fails the
// connection instead of wedging a Recv forever.
func tuneConn(conn net.Conn) {
	tc, ok := conn.(*net.TCPConn)
	if !ok {
		return
	}
	_ = tc.SetNoDelay(true)
	_ = tc.SetKeepAlive(true)
	_ = tc.SetKeepAlivePeriod(30 * time.Second)
}

// TCPMesh is a Mesh over real TCP connections: one full-duplex connection
// per peer pair, negotiated with the v1 hello exchange (see negotiate.go).
// It supports genuine multi-process deployment; NewTCPCluster wires a whole
// cluster on localhost for tests and examples.
//
// # Receive architecture
//
// There is no reader goroutine. The consumer that wants a message reads the
// socket itself: a per-connection pull election (a 1-slot token channel)
// admits one reader at a time, and frames for other logical streams
// encountered while draining are routed to their stream's queue, whose wake
// channel unblocks that stream's consumer even while the elected reader
// stays parked in a blocking read (the same selectable-election pattern as
// StreamDemux, one layer down). Compared to a reader goroutine pumping an
// inbox, the common case — consumer already waiting when the frame arrives —
// saves a full goroutine wakeup and queue handoff per message: the kernel
// wakes the consumer blocked in read(2) directly.
//
// # Backpressure and deadlock freedom
//
// Without an eager reader, two peers bulk-writing to each other could both
// block on full socket buffers. Flushes therefore run under a short write
// deadline; on expiry the writer drains its OWN receive side into the
// stream queues and retries. The drain is resumable at byte granularity
// (each connection keeps a frameDecoder that survives timeouts mid-frame),
// so it consumes exactly what the kernel has buffered and never blocks
// waiting for a frame's tail — a write-blocked rank always frees its
// receive window, which unblocks its peer's write, and transitively every
// cycle of bulk writers makes progress even when every frame in flight is
// larger than the socket buffers. Sends small enough for the socket buffer
// — all control traffic — complete immediately regardless of the
// receiver's schedule.
type TCPMesh struct {
	rank int
	size int

	// peers[j] is the connection state for rank j; peers[rank] is the
	// loopback slot (no conn, queues only).
	peers []*peerConn

	// caps is the capability set negotiated across ALL peers (AND of every
	// connection's negotiated set and our own advertisement); version is the
	// lowest negotiated protocol version. Fixed after DialMesh returns.
	caps    Caps
	version uint8

	// linkRate, when positive (stored as math.Float64bits), paces outbound
	// traffic to emulate a link of that many bytes/second (see SetLinkRate).
	linkRate atomic.Uint64

	mu     sync.Mutex
	closed bool
}

var (
	_ Mesh         = (*TCPMesh)(nil)
	_ OwnedSender  = (*TCPMesh)(nil)
	_ CapsProvider = (*TCPMesh)(nil)
	_ StreamRouter = (*TCPMesh)(nil)
	_ lander       = (*TCPMesh)(nil)
)

// peerConn is one peer's connection state.
type peerConn struct {
	conn net.Conn
	br   *bufio.Reader

	// pull is the read election: holding the token is the right to read the
	// socket. Capacity 1; consumers select sending into it against their
	// queue's wake channel.
	pull chan struct{}

	// rx is the connection's resumable inbound decoder. Only the elected
	// reader (consumer or write-stall drain) touches it, so a frame half
	// read when a drain's deadline expires is finished by whoever reads
	// the socket next.
	rx frameDecoder

	// caps and version are this connection's negotiated values.
	caps    Caps
	version uint8

	// Send side: wmu serializes writers; waiters counts senders committed
	// to acquiring wmu (the group-commit signal); fw coalesces frames;
	// nextFree is the emulated-link transmit horizon (guarded by wmu).
	wmu      sync.Mutex
	waiters  atomic.Int32
	fw       *frameWriter
	nextFree time.Time

	// Receive side: per-stream routed-frame queues. q0 (stream 0) is
	// preallocated — the non-multiplexed fast path takes no lock to find it.
	qmu     sync.Mutex
	queues  map[int32]*chanQueue
	q0      *chanQueue
	qclosed bool
}

func newPeerConn() *peerConn {
	return &peerConn{pull: make(chan struct{}, 1), q0: newChanQueue()}
}

// queue returns the routed-frame queue for a stream, creating it on first
// touch (born closed if the connection already failed).
func (c *peerConn) queue(stream int32) *chanQueue {
	if stream == 0 {
		return c.q0
	}
	c.qmu.Lock()
	q := c.queues[stream]
	if q == nil {
		q = newChanQueue()
		if c.queues == nil {
			c.queues = make(map[int32]*chanQueue)
		}
		if c.qclosed {
			q.close()
		}
		c.queues[stream] = q
	}
	c.qmu.Unlock()
	return q
}

// closeQueues fails every present and future consumer of this connection.
func (c *peerConn) closeQueues() {
	c.qmu.Lock()
	c.qclosed = true
	qs := make([]*chanQueue, 0, len(c.queues))
	for _, q := range c.queues {
		qs = append(qs, q)
	}
	c.qmu.Unlock()
	c.q0.close()
	for _, q := range qs {
		q.close()
	}
}

// MeshOptions tunes what DialMeshOpts advertises in its hello. The zero
// value advertises everything this build supports at the current protocol
// version.
type MeshOptions struct {
	// Caps is the advertised capability set (zero means CapsAll).
	Caps Caps
	// Version is the advertised protocol version (zero means ProtocolV1).
	// Values above ProtocolV1 exercise forward compatibility: the peer
	// negotiates the connection down to the highest version both speak.
	Version uint8
}

func (o MeshOptions) withDefaults() MeshOptions {
	if o.Caps == 0 {
		o.Caps = CapsAll
	}
	if o.Version == 0 {
		o.Version = ProtocolV1
	}
	return o
}

// DialMesh joins a TCP mesh as `rank`, advertising full capabilities. addrs
// lists every rank's listen address; ln must already be listening on
// addrs[rank]. Each rank dials every higher rank and accepts from every
// lower rank; every connection performs the hello exchange and rejects
// incompatible or non-protocol peers with ErrVersionMismatch.
func DialMesh(rank int, addrs []string, ln net.Listener) (*TCPMesh, error) {
	return DialMeshOpts(rank, addrs, ln, MeshOptions{})
}

// DialMeshOpts is DialMesh with an explicit capability/version
// advertisement — the handle mixed-capability and mixed-version tests and
// deployments use.
func DialMeshOpts(rank int, addrs []string, ln net.Listener, opts MeshOptions) (*TCPMesh, error) {
	size := len(addrs)
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("transport: rank %d of %d", rank, size)
	}
	opts = opts.withDefaults()
	m := &TCPMesh{
		rank:    rank,
		size:    size,
		peers:   make([]*peerConn, size),
		caps:    opts.Caps,
		version: opts.Version,
	}
	for j := range m.peers {
		m.peers[j] = newPeerConn()
	}

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) { errOnce.Do(func() { firstErr = err }) }

	attach := func(peer int, conn net.Conn, version uint8, caps Caps) {
		c := m.peers[peer]
		c.conn = conn
		c.br = bufio.NewReaderSize(conn, 1<<16)
		c.fw = newFrameWriter(conn, m.drainAssist)
		c.version = version
		c.caps = caps
	}

	// Dial higher ranks.
	for j := rank + 1; j < size; j++ {
		j := j
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.DialTimeout("tcp", addrs[j], dialTimeout)
			if err != nil {
				fail(fmt.Errorf("dial rank %d at %s: %w", j, addrs[j], err))
				return
			}
			tuneConn(conn)
			peer, version, caps, err := exchangeHello(conn, opts.Version, opts.Caps, rank)
			if err != nil {
				_ = conn.Close()
				fail(fmt.Errorf("hello with rank %d: %w", j, err))
				return
			}
			if int(peer) != j {
				_ = conn.Close()
				fail(fmt.Errorf("transport: rank %d answered at %s, want %d", peer, addrs[j], j))
				return
			}
			attach(j, conn, version, caps)
		}()
	}
	// Accept lower ranks.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for accepted := 0; accepted < rank; accepted++ {
			conn, err := ln.Accept()
			if err != nil {
				fail(fmt.Errorf("accept: %w", err))
				return
			}
			tuneConn(conn)
			peer, version, caps, err := exchangeHello(conn, opts.Version, opts.Caps, rank)
			if err != nil {
				_ = conn.Close()
				fail(fmt.Errorf("hello on accept: %w", err))
				return
			}
			if peer < 0 || int(peer) >= rank || m.peers[peer].conn != nil {
				_ = conn.Close()
				fail(fmt.Errorf("transport: bad hello rank %d", peer))
				return
			}
			attach(int(peer), conn, version, caps)
		}
	}()
	wg.Wait()
	if firstErr != nil {
		_ = m.Close()
		return nil, firstErr
	}

	// The mesh-wide capability set: what EVERY rank of the job can decode.
	// All ranks compute the same AND on a fully connected mesh, so SPMD
	// branches on MeshCaps agree globally.
	for j, c := range m.peers {
		if j == rank {
			continue
		}
		m.caps &= c.caps
		if c.version < m.version {
			m.version = c.version
		}
	}
	return m, nil
}

// Rank implements Mesh.
func (m *TCPMesh) Rank() int { return m.rank }

// Size implements Mesh.
func (m *TCPMesh) Size() int { return m.size }

// Caps implements CapsProvider: the capability set every rank of the mesh
// supports.
func (m *TCPMesh) Caps() Caps { return m.caps }

// Version returns the lowest protocol version negotiated with any peer —
// the version this mesh's frames travel as.
func (m *TCPMesh) Version() uint8 { return m.version }

func (m *TCPMesh) isClosed() bool {
	m.mu.Lock()
	closed := m.closed
	m.mu.Unlock()
	return closed
}

// Send implements Mesh.
func (m *TCPMesh) Send(to int, msg Message) error {
	return m.send(to, msg, false)
}

// SendOwned implements OwnedSender. Ownership of msg.Payload (and
// msg.Indices, when sparse) transfers to the transport: the buffers are
// recycled once their bytes are on the wire — which, under frame coalescing,
// may be a later sender's flush — and loopback delivery hands them to the
// local inbox without a copy.
func (m *TCPMesh) SendOwned(to int, msg Message) error {
	return m.send(to, msg, true)
}

// send is the shared wire path. When owned, the payload/index buffers belong
// to the transport from this point on, error or not.
func (m *TCPMesh) send(to int, msg Message, owned bool) error {
	release := func() {
		if owned {
			PutPayload(msg.Payload)
			PutIndices(msg.Indices)
		}
	}
	if to < 0 || to >= m.size {
		release()
		return fmt.Errorf("transport: send to rank %d of %d", to, m.size)
	}
	if m.isClosed() {
		release()
		return ErrClosed
	}
	msg.From = int32(m.rank)
	msg.To = int32(to)
	if to == m.rank {
		return m.sendSelf(msg, owned)
	}
	c := m.peers[to]
	if c.conn == nil {
		release()
		return fmt.Errorf("transport: no connection to rank %d", to)
	}

	// Capability gating against the negotiated per-connection set. Frames
	// the peer cannot decode are rejected typed (streams, sparse) or
	// transparently downgraded (compressed dtypes: quantize locally, ship
	// the result as f64 — the receiver observes bit-identical values at
	// full wire width).
	if msg.Stream != 0 && c.caps&CapStreams == 0 {
		release()
		return fmt.Errorf("%w: stream %d to rank %d (negotiated %v)", ErrCapability, msg.Stream, to, c.caps)
	}
	if msg.Indices != nil && c.caps&CapSparse == 0 {
		release()
		return fmt.Errorf("%w: sparse frame to rank %d (negotiated %v)", ErrCapability, to, c.caps)
	}
	if msg.Type.IsPS() && c.caps&CapPS == 0 {
		release()
		return fmt.Errorf("%w: ps frame to rank %d (negotiated %v)", ErrCapability, to, c.caps)
	}
	if dc := dtypeCap(msg.Dtype); dc != 0 && c.caps&dc == 0 {
		if !owned {
			if msg.Payload != nil {
				p := GetPayload(len(msg.Payload))
				copy(p, msg.Payload)
				msg.Payload = p
			}
			if msg.Indices != nil {
				ix := GetIndices(len(msg.Indices))
				copy(ix, msg.Indices)
				msg.Indices = ix
			}
			owned = true
		}
		tensor.RoundTrip(msg.Dtype, msg.Payload)
		msg.Dtype = tensor.F64
	}

	rate := math.Float64frombits(m.linkRate.Load())
	c.waiters.Add(1)
	c.wmu.Lock()
	c.waiters.Add(-1)
	err := c.fw.enqueue(&msg, owned)
	if err != nil {
		c.wmu.Unlock()
		return err
	}
	// Group commit: when another sender is already committed to this
	// connection, leave the batch queued for it — the last sender in line
	// always flushes, so frames never linger. Only owned sends may defer
	// (a plain Send's zero-copy iovecs alias the caller's buffers, which
	// the caller is free to reuse once we return), and a full arena flushes
	// regardless to bound queue growth.
	if owned && c.waiters.Load() > 0 && len(c.fw.arena) < arenaCap/2 {
		c.wmu.Unlock()
		return nil
	}
	queued := c.fw.queuedBytes()
	err = c.fw.flush()
	var horizon time.Time
	if err == nil && rate > 0 {
		// Store-and-forward pacing: advance the connection's transmit
		// horizon by the batch's serialization time and wait until the
		// horizon, so outbound wire bytes flow at the emulated link rate.
		// The horizon is cumulative — back-to-back senders queue behind each
		// other exactly as frames on a shared link would.
		now := time.Now()
		if c.nextFree.Before(now) {
			c.nextFree = now
		}
		c.nextFree = c.nextFree.Add(time.Duration(float64(queued) / rate * 1e9))
		horizon = c.nextFree
	}
	c.wmu.Unlock()
	if !horizon.IsZero() {
		pacingWait(horizon)
	}
	return err
}

// pacingSpinWindow is the tail of a pacing wait that busy-polls instead of
// sleeping. Go timers routinely overshoot by hundreds of microseconds under
// scheduler load; on a small-message emulated fabric that overshoot dwarfs
// the sub-millisecond serialization delays the pacer exists to model.
// Sleeping only to within the window
// and yielding-polling the remainder keeps the modeled rates honest at
// microsecond granularity while bounding the burned CPU per flush.
const pacingSpinWindow = 500 * time.Microsecond

// pacingWait blocks until the transmit horizon: coarse timer sleep first,
// then a sched-yielding poll across the final spin window.
func pacingWait(horizon time.Time) {
	if d := time.Until(horizon); d > pacingSpinWindow {
		time.Sleep(d - pacingSpinWindow)
	}
	for time.Now().Before(horizon) {
		runtime.Gosched()
	}
}

// sendSelf is loopback delivery: mirror the wire path's copy AND
// quantization semantics, then push straight to the local queue.
func (m *TCPMesh) sendSelf(msg Message, owned bool) error {
	switch {
	case owned && !msg.HasTail:
		// The buffers are ours — quantize in place, no copy.
		tensor.RoundTrip(msg.Dtype, msg.Payload)
	case owned:
		// A tail needs a buffer one element longer.
		d := delivered(msg)
		PutPayload(msg.Payload)
		PutIndices(msg.Indices)
		msg = d
	default:
		msg = delivered(msg)
	}
	if err := m.peers[m.rank].queue(msg.Stream).push(msg); err != nil {
		PutPayload(msg.Payload)
		PutIndices(msg.Indices)
		return err
	}
	return nil
}

// SetLinkRate makes every subsequent outbound flush pace itself so the
// connection's wire bytes flow at no more than bytesPerSec — an emulated
// link bandwidth. It exists for benchmarking on fast loopback hardware: real
// loopback is CPU-bound, so without a rate cap the wire-byte savings of
// compressed payloads are invisible.
// A rate of 0 (the default) disables pacing. Pacing is applied per
// connection on the sender side only. Safe to call concurrently with
// in-flight sends (the rate is read atomically per flush), though a rate
// change mid-collective applies only to flushes that start after it.
func (m *TCPMesh) SetLinkRate(bytesPerSec float64) {
	m.linkRate.Store(math.Float64bits(bytesPerSec))
}

// Recv implements Mesh: the next stream-0 message from `from`.
func (m *TCPMesh) Recv(from int) (Message, error) {
	msg, _, err := m.receive(from, 0, nil)
	return msg, err
}

// recvInto implements lander on stream 0.
func (m *TCPMesh) recvInto(from int, l Landing) (Message, bool, error) {
	return m.receive(from, 0, &l)
}

// StreamView implements StreamRouter: a Mesh view whose traffic travels on
// logical stream id, routed by the frame header at this layer — no demux
// wrapper, no Iter-bit packing. Views are cheap and stateless.
func (m *TCPMesh) StreamView(id int32) Mesh {
	return &tcpStream{m: m, id: id}
}

// receive returns the next message rank `from` sent on the given stream.
// With a Landing (see land.go) the reader lands the frame when it can, and
// landed reports that msg is the frame's header, its body in l.Dst.
func (m *TCPMesh) receive(from int, stream int32, l *Landing) (msg Message, landed bool, err error) {
	if from < 0 || from >= m.size {
		return Message{}, false, fmt.Errorf("transport: recv from rank %d of %d", from, m.size)
	}
	c := m.peers[from]
	own := c.queue(stream)
	if c.conn == nil {
		// Loopback: queues only.
		msg, err := own.pop()
		return msg, false, err
	}
	for {
		if msg, ok := own.tryPop(); ok {
			return msg, false, nil
		}
		select {
		case <-own.ready():
			// The elected reader routed a message to us (or left a stale
			// token, or the queue closed); loop and re-check. An empty
			// closed queue fails fast here instead of waiting out the
			// election.
			if msg, ok := own.tryPop(); ok {
				return msg, false, nil
			}
			if own.isClosed() {
				return Message{}, false, ErrClosed
			}
		case c.pull <- struct{}{}:
			// We are the reader: take one frame off the socket, then stand
			// down so the election stays fair and a consumer whose message
			// we routed can proceed.
			msg, landed, ok, err := m.readOne(c, own, stream, l)
			<-c.pull
			if err != nil {
				return Message{}, false, err
			}
			if ok {
				return msg, landed, nil
			}
		}
	}
}

// readOne, running as the elected reader for connection c, returns this
// stream's next message when one is available (already routed, or next off
// the socket, landed when l names it). A frame for another stream is routed
// to its queue — whose wake channel unblocks that stream's consumer even if
// it is mid-select — and ok=false tells the caller to re-enter the election.
func (m *TCPMesh) readOne(c *peerConn, own *chanQueue, stream int32, l *Landing) (msg Message, landed, ok bool, err error) {
	// Another consumer may have routed our message while we waited for the
	// election; prefer it over reading further.
	if msg, ok := own.tryPop(); ok {
		return msg, false, true, nil
	}
	if l != nil && !c.rx.active {
		if msg, landed, err = land(c.br, c.conn, stream, l); err != nil {
			// The connection stopped mid-body; it cannot be resynchronized.
			c.closeQueues()
			return Message{}, false, false, ErrClosed
		}
		if landed {
			return msg, true, true, nil
		}
	}
	msg, err = c.readFrame()
	if err != nil {
		c.closeQueues()
		if isDecodeErr(err) {
			// A malformed or incompatible frame: surface the typed error to
			// the consumer that hit it; everyone else observes ErrClosed.
			return Message{}, false, false, err
		}
		return Message{}, false, false, ErrClosed
	}
	if msg.Stream == stream {
		return msg, false, true, nil
	}
	// Routed strays never fail: queues close only with the connection.
	_ = c.queue(msg.Stream).push(msg)
	return Message{}, false, false, nil
}

// isDecodeErr reports whether a readFrame failure is a protocol violation
// (worth surfacing typed) rather than connection teardown.
func isDecodeErr(err error) bool {
	return errors.Is(err, ErrBadFrame) || errors.Is(err, ErrUnknownDtype) ||
		errors.Is(err, ErrPayloadTooLarge) || errors.Is(err, ErrVersionMismatch)
}

// readFrame reads the connection's next frame, resuming any decode a
// write-stall drain left half done. The caller must hold the read election.
func (c *peerConn) readFrame() (Message, error) {
	for {
		msg, done, err := c.rx.step(c.br)
		if err != nil {
			c.rx.abort()
			return Message{}, err
		}
		if done {
			return msg, nil
		}
	}
}

// drainProbe is the read deadline a write-stalled drain arms per decode
// step: reads return as soon as the kernel has any bytes buffered, so the
// full wait is only ever paid probing a silent peer. A deadline in the past
// would NOT work as a cheaper probe — Go fails an expired-deadline read
// without attempting the syscall, so data sitting in the socket buffer
// would never be seen and the drain would assist nothing.
const drainProbe = 200 * time.Microsecond

// drainAssist runs on a write-blocked sender (see frameWriter.flush): for
// every peer whose read election is free, consume whatever bytes are
// already in flight to us, routing completed frames to their stream
// queues. This is what keeps mutual bulk writes live without a reader
// goroutine — a blocked writer empties its own receive window, which opens
// the peer's. The drain never blocks on a frame's remaining bytes: each
// connection's frameDecoder checkpoints mid-frame, so a frame larger than
// the socket buffers is consumed incrementally across successive stalls
// (a blocking read here would deadlock a ring of ranks all mid-frame).
func (m *TCPMesh) drainAssist() {
	for j, c := range m.peers {
		if j == m.rank || c == nil || c.conn == nil {
			continue
		}
		select {
		case c.pull <- struct{}{}:
		default:
			// A consumer is reading this peer; it is draining already.
			continue
		}
		m.drainPeer(c)
		<-c.pull
	}
}

// drainPeer consumes buffered bytes from one connection, at most one
// drainProbe wait per decode step.
func (m *TCPMesh) drainPeer(c *peerConn) {
	for {
		_ = c.conn.SetReadDeadline(time.Now().Add(drainProbe))
		msg, done, err := c.rx.step(c.br)
		if err != nil {
			_ = c.conn.SetReadDeadline(time.Time{})
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return // dry; a partial frame resumes with the next reader
			}
			// Real connection failure: fail the queues so consumers see it.
			c.rx.abort()
			c.closeQueues()
			return
		}
		if done {
			_ = c.queue(msg.Stream).push(msg)
		}
	}
}

// Close implements Mesh.
func (m *TCPMesh) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	for _, c := range m.peers {
		if c == nil {
			continue
		}
		if c.conn != nil {
			_ = c.conn.Close()
		}
		c.closeQueues()
	}
	return nil
}

// tcpStream is one logical stream's view of a TCPMesh.
type tcpStream struct {
	m  *TCPMesh
	id int32
}

var (
	_ Mesh        = (*tcpStream)(nil)
	_ OwnedSender = (*tcpStream)(nil)
	_ lander      = (*tcpStream)(nil)
)

func (s *tcpStream) Rank() int { return s.m.rank }
func (s *tcpStream) Size() int { return s.m.size }

func (s *tcpStream) Send(to int, msg Message) error {
	msg.Stream = s.id
	return s.m.send(to, msg, false)
}

func (s *tcpStream) SendOwned(to int, msg Message) error {
	msg.Stream = s.id
	return s.m.send(to, msg, true)
}

func (s *tcpStream) Recv(from int) (Message, error) {
	msg, _, err := s.m.receive(from, s.id, nil)
	return msg, err
}

// recvInto implements lander on the view's stream.
func (s *tcpStream) recvInto(from int, l Landing) (Message, bool, error) {
	return s.m.receive(from, s.id, &l)
}

// Close closes the underlying mesh (all streams share its lifecycle).
func (s *tcpStream) Close() error { return s.m.Close() }

// NewTCPCluster starts size TCP mesh endpoints on localhost ephemeral ports
// and fully connects them. It is the in-process harness used by tests and
// the tcpcluster example; real deployments call DialMesh with their own
// address book.
func NewTCPCluster(size int) ([]*TCPMesh, error) {
	return NewTCPClusterOpts(size, nil)
}

// NewTCPClusterOpts is NewTCPCluster with per-rank hello advertisements
// (optsFor may be nil for all-default), for exercising mixed-capability and
// mixed-version meshes in one process.
func NewTCPClusterOpts(size int, optsFor func(rank int) MeshOptions) ([]*TCPMesh, error) {
	if size <= 0 {
		return nil, fmt.Errorf("transport: cluster of %d ranks", size)
	}
	listeners := make([]net.Listener, size)
	addrs := make([]string, size)
	for i := 0; i < size; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				_ = l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}

	meshes := make([]*TCPMesh, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for i := 0; i < size; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			var opts MeshOptions
			if optsFor != nil {
				opts = optsFor(i)
			}
			meshes[i], errs[i] = DialMeshOpts(i, addrs, listeners[i], opts)
		}()
	}
	wg.Wait()
	for _, ln := range listeners {
		_ = ln.Close()
	}
	if err := errors.Join(errs...); err != nil {
		for _, m := range meshes {
			if m != nil {
				_ = m.Close()
			}
		}
		return nil, err
	}
	return meshes, nil
}
