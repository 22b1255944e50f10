package transport

import (
	"fmt"
	"sync"
)

// Tag-stream demultiplexing.
//
// A Mesh delivers a single FIFO per peer: Recv(from) returns the next
// message that peer sent, whatever it belongs to. That is exactly right for
// one collective at a time and exactly wrong for concurrent collectives —
// two in-flight ring reductions on one mesh would steal each other's
// messages off the shared per-peer queue. The parameter-server client
// shares a mesh with the collectives (ps.PSStream), so the transport
// provides tag streams: independent virtual FIFOs multiplexed over one
// mesh, identified by the Message.Stream field (a first-class header field
// of the v1 frame format — stream routing no longer borrows Iter's high
// bits, and the full int64 iteration space belongs to the collective).
//
// Transports that route streams natively implement StreamRouter: the TCP
// mesh demultiplexes on the frame header as frames leave the socket, with no
// wrapper layer at all. For meshes without native routing (the in-memory
// mesh), StreamDemux supplies the same semantics cooperatively on top of
// plain Recv. Streams(m) picks whichever the mesh supports.
//
// The demux's routing is pull-driven and cooperative: whichever stream needs
// a message drains the parent queue under a per-peer election, delivering
// strays to their owning stream's queue, so no pump goroutine exists and an
// idle demux costs nothing.
//
// The election must be selectable, not a mutex: the elected puller may block
// in parent.Recv indefinitely (its own message simply hasn't been sent yet)
// AFTER having routed another stream's message. A waiter committed to a
// mutex acquire could never observe that routed delivery, and if the
// puller's missing message transitively depends on the waiter's progress on
// another rank, the job deadlocks. Waiters therefore select on their own
// queue's wake channel against the pull semaphore, so a routed delivery
// always unblocks its owner even while the puller stays parked.

// StreamRouter is an optional Mesh capability: StreamView returns a Mesh
// view whose traffic travels on logical stream id (id ≥ 0), fully isolated
// from other streams' traffic on the same mesh. Stream 0 is the view plain
// Send/Recv already speak.
type StreamRouter interface {
	StreamView(id int32) Mesh
}

// Streams returns a stream router for m: the mesh's own native router when
// it implements StreamRouter (TCPMesh routes on the frame header; SubMesh
// forwards to a native parent), and a cooperative StreamDemux otherwise.
// The mesh's receive side belongs to the router's views afterwards — raw
// m.Recv calls must not be mixed with stream Recvs on demux-backed meshes.
func Streams(m Mesh) StreamRouter {
	if sr, ok := m.(StreamRouter); ok {
		return sr
	}
	return NewStreamDemux(m)
}

// StreamDemux multiplexes independent tag streams over one parent Mesh.
// Each Stream(id) view behaves as a private mesh: concurrent collectives on
// distinct streams cannot observe each other's messages. One goroutine per
// (stream, peer) may Recv at a time — which the SPMD collectives satisfy by
// construction — while different streams may run fully concurrently.
//
// The demux owns the parent's receive side while any stream is active: raw
// parent.Recv calls must not be mixed with stream Recvs, or routing races
// on the shared queues.
type StreamDemux struct {
	parent Mesh

	// pull[j] is a binary semaphore electing the goroutine that drains the
	// parent's peer-j queue (send acquires, receive releases). A channel
	// rather than a mutex so waiters can select against their own queue.
	pull []chan struct{}

	mu     sync.Mutex
	queues map[uint64]*chanQueue // (stream, peer) -> routed messages
}

var _ StreamRouter = (*StreamDemux)(nil)

// NewStreamDemux wraps parent for tag-stream use. The parent must not be
// receiving elsewhere while streams are active. Prefer Streams(), which
// skips the wrapper entirely when the parent routes natively.
func NewStreamDemux(parent Mesh) *StreamDemux {
	d := &StreamDemux{
		parent: parent,
		pull:   make([]chan struct{}, parent.Size()),
		queues: make(map[uint64]*chanQueue),
	}
	for j := range d.pull {
		d.pull[j] = make(chan struct{}, 1)
	}
	return d
}

// Stream returns the mesh view for stream id (id ≥ 0). Views are cheap and
// stateless; the per-peer queues are created lazily on first routing. When
// the parent routes streams natively, its own view is returned — a demux
// layered over a native router would never see the frames it waits for (the
// parent files them under its own stream queues before the demux's
// parent.Recv could observe them).
func (d *StreamDemux) Stream(id int32) Mesh {
	if sr, ok := d.parent.(StreamRouter); ok {
		return sr.StreamView(id)
	}
	return &streamMesh{d: d, id: id}
}

// StreamView implements StreamRouter.
func (d *StreamDemux) StreamView(id int32) Mesh { return d.Stream(id) }

func streamKey(stream int32, peer int) uint64 {
	return uint64(uint32(stream))<<32 | uint64(uint32(peer))
}

// queue returns (creating if needed) the routed-message queue for
// (stream, peer).
func (d *StreamDemux) queue(stream int32, peer int) *chanQueue {
	key := streamKey(stream, peer)
	d.mu.Lock()
	q := d.queues[key]
	if q == nil {
		q = newChanQueue()
		d.queues[key] = q
	}
	d.mu.Unlock()
	return q
}

// streamMesh is one stream's view of the demux parent.
type streamMesh struct {
	d  *StreamDemux
	id int32
}

var (
	_ Mesh        = (*streamMesh)(nil)
	_ OwnedSender = (*streamMesh)(nil)
)

func (s *streamMesh) Rank() int { return s.d.parent.Rank() }
func (s *streamMesh) Size() int { return s.d.parent.Size() }

// Send stamps the stream id on the message and forwards to the parent.
func (s *streamMesh) Send(to int, msg Message) error {
	msg.Stream = s.id
	return s.d.parent.Send(to, msg)
}

// SendOwned implements OwnedSender.
func (s *streamMesh) SendOwned(to int, msg Message) error {
	msg.Stream = s.id
	return SendOwned(s.d.parent, to, msg)
}

// Recv returns the next message rank `from` sent on this stream. Messages
// for other streams encountered while draining the parent queue are routed
// to their owners.
func (s *streamMesh) Recv(from int) (Message, error) {
	if from < 0 || from >= s.d.parent.Size() {
		return Message{}, fmt.Errorf("transport: recv from rank %d of %d", from, s.d.parent.Size())
	}
	own := s.d.queue(s.id, from)
	pull := s.d.pull[from]
	for {
		if msg, ok := own.tryPop(); ok {
			return msg, nil
		}
		select {
		case <-own.ready():
			// The elected puller routed a message to us (or left a stale
			// token); loop around and try the pop.
		case pull <- struct{}{}:
			// We are the puller: drain one message from the parent, then
			// stand down so a waiter with a routed message can proceed and
			// the election stays fair.
			msg, ok, err := s.drainOne(own, from)
			<-pull
			if err != nil {
				return Message{}, err
			}
			if ok {
				return msg, nil
			}
		}
	}
}

// drainOne, running as the elected puller for peer `from`, returns this
// stream's next message when one is available (already routed, or next off
// the parent). A stray for another stream is routed to its owner's queue —
// whose wake channel unblocks that owner even if it is mid-select — and
// ok=false tells the caller to re-enter the election.
func (s *streamMesh) drainOne(own *chanQueue, from int) (Message, bool, error) {
	// Another stream may have routed our message while we waited for the
	// election; prefer it over draining further.
	if msg, ok := own.tryPop(); ok {
		return msg, true, nil
	}
	msg, err := s.d.parent.Recv(from)
	if err != nil {
		return Message{}, false, err
	}
	if msg.Stream == s.id {
		return msg, true, nil
	}
	// The push cannot fail — demux queues never close.
	_ = s.d.queue(msg.Stream, from).push(msg)
	return Message{}, false, nil
}

// Close closes the underlying mesh (all streams share its lifecycle).
func (s *streamMesh) Close() error { return s.d.parent.Close() }
