package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned by operations on a closed mesh endpoint.
var ErrClosed = errors.New("transport: mesh closed")

// Mesh is one rank's view of a fully connected, reliable, ordered
// point-to-point network. Send never blocks indefinitely on a live peer;
// Recv blocks until a message from the named peer arrives or the endpoint
// closes.
//
// Every mesh carries independent tag streams (see StreamRouter): a message
// travels on its Message.Stream, and the mesh files it by (sender, stream)
// as it arrives, so Recv and each StreamView see only their own stream.
type Mesh interface {
	// Rank returns this endpoint's rank.
	Rank() int
	// Size returns the number of ranks in the job.
	Size() int
	// Send delivers m to rank `to` on stream m.Stream. The message's
	// From/To fields are stamped by the implementation.
	Send(to int, m Message) error
	// Recv returns the next stream-0 message sent by rank `from`, in send
	// order.
	Recv(from int) (Message, error)
	// Close releases the endpoint; pending and future Recv calls fail
	// with ErrClosed.
	Close() error
	// StreamView returns this endpoint's view of one tag stream.
	StreamRouter
}

// OwnedSender is an optional Mesh capability: SendOwned transfers ownership
// of m.Payload to the transport. The caller must not touch the payload after
// the call (success or failure) — the in-memory mesh hands the very buffer to
// the receiver without copying, and the TCP mesh recycles it into the payload
// pool once it is on the wire. Payloads sent this way should come from
// GetPayload (or a prior Recv) so the eventual PutPayload finds a pool class.
type OwnedSender interface {
	SendOwned(to int, m Message) error
}

// SendOwned delivers m with ownership transfer when the mesh supports it,
// and otherwise falls back to a plain Send followed by releasing the payload
// on the caller's behalf. Either way the caller relinquishes m.Payload.
func SendOwned(m Mesh, to int, msg Message) error {
	if os, ok := m.(OwnedSender); ok {
		return os.SendOwned(to, msg)
	}
	err := m.Send(to, msg)
	PutPayload(msg.Payload)
	return err
}

// chanQueue is an unbounded FIFO delivering messages from one peer. It is a
// growable ring buffer: steady-state push/pop traffic recycles the same
// backing array instead of appending onto an ever-advancing slice front.
type chanQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []Message
	head   int // index of the oldest message
	count  int
	closed bool
	// notify carries a wake token after every push (and on close), so a
	// single consumer can select on message arrival alongside other events
	// (a TCP consumer selects on it against its connection's read
	// election). Tokens
	// are sticky, not counted: a consumer must re-check tryPop after every
	// wake and tolerate stale tokens.
	notify chan struct{}
}

func newChanQueue() *chanQueue {
	q := &chanQueue{notify: make(chan struct{}, 1)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// wake sets the notify token if it is not already pending.
func (q *chanQueue) wake() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// ready returns the wake channel: it yields a token after a push or close.
// Spurious and stale tokens are possible; pair every receipt with tryPop.
func (q *chanQueue) ready() <-chan struct{} { return q.notify }

func (q *chanQueue) push(m Message) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if q.count == len(q.buf) {
		grown := make([]Message, max(8, 2*len(q.buf)))
		for i := 0; i < q.count; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf = grown
		q.head = 0
	}
	q.buf[(q.head+q.count)%len(q.buf)] = m
	q.count++
	q.cond.Signal()
	q.wake()
	return nil
}

func (q *chanQueue) pop() (Message, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.count == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.count == 0 {
		return Message{}, ErrClosed
	}
	m := q.buf[q.head]
	q.buf[q.head] = Message{} // drop the payload reference
	q.head = (q.head + 1) % len(q.buf)
	q.count--
	return m, nil
}

// tryPop removes and returns the oldest message without blocking; ok is
// false when the queue is empty (closed or not).
func (q *chanQueue) tryPop() (Message, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.count == 0 {
		return Message{}, false
	}
	m := q.buf[q.head]
	q.buf[q.head] = Message{} // drop the payload reference
	q.head = (q.head + 1) % len(q.buf)
	q.count--
	return m, true
}

func (q *chanQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
	q.wake()
}

// isClosed reports whether close was called. Messages pushed before the
// close may still be pending; pair with tryPop.
func (q *chanQueue) isClosed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// streamQueues files one peer's inbound messages by stream. Stream 0's
// queue exists from the start, so a mesh that never multiplexes takes no
// lock to find it; other streams' queues are created on first touch, born
// closed once closeQueues has run.
type streamQueues struct {
	q0     *chanQueue
	mu     sync.Mutex
	byID   map[int32]*chanQueue
	closed bool
}

func newStreamQueues() *streamQueues { return &streamQueues{q0: newChanQueue()} }

// queue returns the queue of one stream, creating it on first touch.
func (s *streamQueues) queue(stream int32) *chanQueue {
	if stream == 0 {
		return s.q0
	}
	s.mu.Lock()
	q := s.byID[stream]
	if q == nil {
		q = newChanQueue()
		if s.byID == nil {
			s.byID = make(map[int32]*chanQueue)
		}
		if s.closed {
			q.close()
		}
		s.byID[stream] = q
	}
	s.mu.Unlock()
	return q
}

// closeQueues fails every present and future consumer of these queues.
func (s *streamQueues) closeQueues() {
	s.mu.Lock()
	s.closed = true
	qs := make([]*chanQueue, 0, len(s.byID))
	for _, q := range s.byID {
		qs = append(qs, q)
	}
	s.mu.Unlock()
	s.q0.close()
	for _, q := range qs {
		q.close()
	}
}

// deliver pushes msg to q as its receiver finds it: a copying send
// (owned false) hands over copies of the payload and indices, an owned one
// the sender's own buffers, except that a payload with a tail needs a buffer
// one element longer and goes by copy. The buffers are recycled when the
// push fails.
func deliver(q *chanQueue, msg Message, owned bool) error {
	switch {
	case owned && msg.HasTail:
		d := delivered(msg)
		PutPayload(msg.Payload)
		PutIndices(msg.Indices)
		msg = d
	case !owned:
		msg = delivered(msg)
	}
	if err := q.push(msg); err != nil {
		PutPayload(msg.Payload)
		PutIndices(msg.Indices)
		return err
	}
	return nil
}

// delivered returns msg as its receiver finds it after a copying send.
// Messages are immutable once sent, so the payload (tail included) and the
// index list are copied into pooled buffers the receiver owns — see the
// ownership contract in pool.go — and the sender may keep mutating its own
// (the TCP mesh gets this for free by serializing onto the wire).
func delivered(msg Message) Message {
	if msg.Payload != nil || msg.HasTail {
		p := GetPayload(msg.elems())
		copy(p, msg.Payload)
		if msg.HasTail {
			p[len(msg.Payload)] = msg.Tail
		}
		msg.Payload, msg.Tail, msg.HasTail = p, 0, false
	}
	if msg.Indices != nil {
		ix := GetIndices(len(msg.Indices))
		copy(ix, msg.Indices)
		msg.Indices = ix
	}
	return msg
}

// LocalNetwork is an in-memory mesh fabric for n ranks within one process.
// Endpoints returns one Mesh per rank; messages are delivered immediately
// and in order.
//
// Per-peer queues are created lazily on first use: a fully connected fabric
// has n² peer pairs, but real collectives touch only the pairs their
// schedules use (a ring touches 2n, a binomial tree 2(n−1)), so
// eager allocation would dominate memory at 1024 ranks (~3M queues) for
// structures that are never exercised.
type LocalNetwork struct {
	size      int
	endpoints []*localMesh
}

// NewLocalNetwork builds an in-memory fabric for n ranks.
func NewLocalNetwork(n int) (*LocalNetwork, error) {
	if n <= 0 {
		return nil, fmt.Errorf("transport: network of %d ranks", n)
	}
	net := &LocalNetwork{size: n}
	net.endpoints = make([]*localMesh, n)
	for i := 0; i < n; i++ {
		net.endpoints[i] = &localMesh{net: net, rank: i, inbox: make([]atomic.Pointer[streamQueues], n)}
	}
	return net, nil
}

// Endpoint returns rank i's Mesh.
func (n *LocalNetwork) Endpoint(i int) (Mesh, error) {
	if i < 0 || i >= n.size {
		return nil, fmt.Errorf("transport: rank %d of %d", i, n.size)
	}
	return n.endpoints[i], nil
}

// Endpoints returns all rank endpoints in rank order.
func (n *LocalNetwork) Endpoints() []Mesh {
	out := make([]Mesh, n.size)
	for i, ep := range n.endpoints {
		out[i] = ep
	}
	return out
}

// Close closes every endpoint.
func (n *LocalNetwork) Close() error {
	for _, ep := range n.endpoints {
		_ = ep.Close()
	}
	return nil
}

type localMesh struct {
	net  *LocalNetwork
	rank int
	// inbox[j] holds messages sent by rank j to this rank, by stream; slots
	// are populated lazily by queuesFrom on the first send or receive.
	inbox []atomic.Pointer[streamQueues]

	mu     sync.Mutex
	closed bool
}

var (
	_ Mesh        = (*localMesh)(nil)
	_ OwnedSender = (*localMesh)(nil)
)

func (m *localMesh) Rank() int { return m.rank }

func (m *localMesh) Size() int { return m.net.size }

// queuesFrom returns this endpoint's inbox for peer `from`, creating it on
// first touch. An inbox created concurrently with Close must come up
// already closed, so the winner of the CAS re-checks the closed flag under
// the endpoint lock (Close flips the flag under the same lock before it
// walks the slots).
func (m *localMesh) queuesFrom(from int) *streamQueues {
	if q := m.inbox[from].Load(); q != nil {
		return q
	}
	q := newStreamQueues()
	if m.inbox[from].CompareAndSwap(nil, q) {
		if m.isClosed() {
			q.closeQueues()
		}
		return q
	}
	return m.inbox[from].Load()
}

func (m *localMesh) isClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

func (m *localMesh) Send(to int, msg Message) error { return m.send(to, msg, false) }

// SendOwned implements OwnedSender: the sender's buffer is delivered to the
// receiver as-is, skipping the defensive copy Send performs. The ring
// AllReduce forwards chunks through the ring this way, so one buffer rotates
// all the way around instead of being copied at every hop. Ownership of
// msg.Indices transfers with the message as well.
func (m *localMesh) SendOwned(to int, msg Message) error { return m.send(to, msg, true) }

// send files msg in the receiver's inbox under (this rank, msg.Stream): the
// sender routes, so no receiver ever sees another stream's message. When
// owned, the buffers belong to the mesh from here on, error or not.
func (m *localMesh) send(to int, msg Message, owned bool) error {
	var err error
	switch {
	case m.isClosed():
		err = ErrClosed
	case to < 0 || to >= m.net.size:
		err = fmt.Errorf("transport: send to rank %d of %d", to, m.net.size)
	}
	if err != nil {
		if owned {
			PutPayload(msg.Payload)
			PutIndices(msg.Indices)
		}
		return err
	}
	msg.From = int32(m.rank)
	msg.To = int32(to)
	return deliver(m.net.endpoints[to].queuesFrom(m.rank).queue(msg.Stream), msg, owned)
}

func (m *localMesh) Recv(from int) (Message, error) {
	msg, _, err := m.receive(from, 0, nil)
	return msg, err
}

// receive returns the next message rank `from` sent on stream. The
// in-memory mesh never lands a frame: its messages already sit in buffers.
func (m *localMesh) receive(from int, stream int32, _ *Landing) (Message, bool, error) {
	if from < 0 || from >= m.net.size {
		return Message{}, false, fmt.Errorf("transport: recv from rank %d of %d", from, m.net.size)
	}
	msg, err := m.queuesFrom(from).queue(stream).pop()
	return msg, false, err
}

// StreamView implements StreamRouter.
func (m *localMesh) StreamView(id int32) Mesh { return &streamView{m: m, id: id} }

func (m *localMesh) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	for i := range m.inbox {
		if q := m.inbox[i].Load(); q != nil {
			q.closeQueues()
		}
	}
	return nil
}
