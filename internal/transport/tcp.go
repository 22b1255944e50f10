package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
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
// stays parked in a blocking read. The election must be selectable, not a
// mutex: a waiter committed to a mutex acquire could never observe a frame
// the parked reader routed to it, and if the reader's own missing frame
// depends on that waiter's progress on another rank, the job deadlocks.
// Compared to a reader goroutine pumping an
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

	mu     sync.Mutex
	closed bool
}

var (
	_ Mesh        = (*TCPMesh)(nil)
	_ OwnedSender = (*TCPMesh)(nil)
	_ lander      = (*TCPMesh)(nil)
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

	// Send side: wmu serializes writers; waiters counts senders committed
	// to acquiring wmu (the group-commit signal); fw coalesces frames.
	wmu     sync.Mutex
	waiters atomic.Int32
	fw      *frameWriter

	// Receive side: the frames read off this connection (or, in the
	// loopback slot, sent to self), filed by stream.
	*streamQueues
}

func newPeerConn() *peerConn {
	return &peerConn{pull: make(chan struct{}, 1), streamQueues: newStreamQueues()}
}

// DialMesh joins a TCP mesh as `rank`. addrs lists every rank's listen
// address; ln must already be listening on addrs[rank]. Each rank dials
// every higher rank and accepts from every lower rank; every connection
// performs the hello exchange and rejects incompatible or non-protocol peers
// with ErrVersionMismatch.
func DialMesh(rank int, addrs []string, ln net.Listener) (*TCPMesh, error) {
	size := len(addrs)
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("transport: rank %d of %d", rank, size)
	}
	m := &TCPMesh{rank: rank, size: size, peers: make([]*peerConn, size)}
	for j := range m.peers {
		m.peers[j] = newPeerConn()
	}

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) { errOnce.Do(func() { firstErr = err }) }

	attach := func(peer int, conn net.Conn) {
		c := m.peers[peer]
		c.conn = conn
		c.br = bufio.NewReaderSize(conn, 1<<16)
		c.fw = newFrameWriter(conn, m.drainAssist)
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
			peer, _, err := exchangeHello(conn, ProtocolV1, rank)
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
			attach(j, conn)
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
			peer, _, err := exchangeHello(conn, ProtocolV1, rank)
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
			attach(int(peer), conn)
		}
	}()
	wg.Wait()
	if firstErr != nil {
		_ = m.Close()
		return nil, firstErr
	}
	return m, nil
}

// Rank implements Mesh.
func (m *TCPMesh) Rank() int { return m.rank }

// Size implements Mesh.
func (m *TCPMesh) Size() int { return m.size }

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
		return deliver(m.peers[m.rank].queue(msg.Stream), msg, owned)
	}
	c := m.peers[to]
	if c.conn == nil {
		release()
		return fmt.Errorf("transport: no connection to rank %d", to)
	}

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
	err = c.fw.flush()
	c.wmu.Unlock()
	return err
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
// logical stream id, routed by the frame header at this layer.
func (m *TCPMesh) StreamView(id int32) Mesh { return &streamView{m: m, id: id} }

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

// NewTCPCluster starts size TCP mesh endpoints on localhost ephemeral ports
// and fully connects them. It is the in-process harness used by tests and
// the tcpcluster example; real deployments call DialMesh with their own
// address book.
func NewTCPCluster(size int) ([]*TCPMesh, error) {
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
			meshes[i], errs[i] = DialMesh(i, addrs, listeners[i])
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
