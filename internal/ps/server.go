package ps

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/collective"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// DefaultChunks is the default chunk count a PS deployment splits its
// model into. More chunks buy more request pipelining and finer-grained
// server-side locking; fewer amortize the frame header better.
const DefaultChunks = 8

// ServerConfig configures one parameter-server rank. Clients and servers
// must agree on Key, Dim and Chunks — the chunk geometry is configuration,
// exactly like a collective's schedule.
type ServerConfig struct {
	// Key is the logical model key; chunk c is stored under "Key#c".
	Key string
	// Dim is the model dimension.
	Dim int
	// Chunks is the chunk-shard count (default DefaultChunks, clamped to
	// [1, min(Dim, MaxChunks)]).
	Chunks int
	// Init optionally seeds every chunk at version 1 with the
	// corresponding span of this vector (len Dim). Hierarchical training
	// seeds with the shared initial model so group deltas accumulate on
	// top of it.
	Init tensor.Vector
	// Store optionally supplies the backing store (a fresh one is built
	// when nil). A Loopback over the same store and Key exchanges chunks
	// with this server's clients: both read and write the same "Key#c"
	// entries, so their exchanges interleave in one version order.
	Store *Store
}

func (c *ServerConfig) chunkCount() int {
	n := c.Chunks
	if n < 1 {
		n = DefaultChunks
	}
	if n > c.Dim {
		n = c.Dim
	}
	if n > MaxChunks {
		n = MaxChunks
	}
	return n
}

// Server serves the PS frame protocol for one rank of a mesh: one handler
// goroutine per peer decodes chunk requests in arrival order, applies them
// to the snapshot store, and acks — with the chunk's values for pull-class
// requests, sent from the published snapshot itself at f64. Because each
// chunk is its own store key, concurrent clients touching different chunks
// never contend, and pulls read published snapshots without blocking pushes.
type Server struct {
	view    transport.Mesh
	store   *Store
	keys    []string
	offsets []int

	wg       sync.WaitGroup
	errMu    sync.Mutex
	firstErr error
}

// NewServer validates cfg, seeds the store when Init is given, and starts
// one handler goroutine per peer rank. The handlers run until the mesh
// closes; Wait blocks for them and reports the first protocol violation.
func NewServer(mesh transport.Mesh, cfg ServerConfig) (*Server, error) {
	if cfg.Key == "" {
		return nil, fmt.Errorf("ps: empty server key")
	}
	if cfg.Dim < 1 {
		return nil, fmt.Errorf("ps: server dim %d", cfg.Dim)
	}
	chunks := cfg.chunkCount()
	offsets, err := collective.ShardOffsets(cfg.Dim, chunks)
	if err != nil {
		return nil, err
	}
	store := cfg.Store
	if store == nil {
		store = NewStore(chunks)
	}
	s := &Server{
		view:    mesh.StreamView(PSStream),
		store:   store,
		keys:    chunkKeys(cfg.Key, chunks),
		offsets: offsets,
	}
	if cfg.Init != nil {
		if err := seed(store, s.keys, offsets, cfg.Init); err != nil {
			return nil, err
		}
	}
	for peer := 0; peer < mesh.Size(); peer++ {
		if peer == mesh.Rank() {
			continue
		}
		s.wg.Add(1)
		go s.serve(peer)
	}
	return s, nil
}

// Seed publishes cfg.Init under cfg.Key's chunk keys in store — the layout a
// Server with cfg serves and a Loopback's chunk exchange reads — at version 1
// on a fresh store.
func Seed(store *Store, cfg ServerConfig) error {
	if cfg.Dim < 1 {
		return fmt.Errorf("ps: seed dim %d", cfg.Dim)
	}
	chunks := cfg.chunkCount()
	offsets, err := collective.ShardOffsets(cfg.Dim, chunks)
	if err != nil {
		return err
	}
	return seed(store, chunkKeys(cfg.Key, chunks), offsets, cfg.Init)
}

func seed(store *Store, keys []string, offsets []int, init tensor.Vector) error {
	if len(init) != offsets[len(offsets)-1] {
		return fmt.Errorf("ps: init vector %d elems, dim %d", len(init), offsets[len(offsets)-1])
	}
	for c := range keys {
		if _, err := store.Push(keys[c], init[offsets[c]:offsets[c+1]], Overwrite); err != nil {
			return err
		}
	}
	return nil
}

// Store returns the backing store (shared with the loopback fast path).
func (s *Server) Store() *Store { return s.store }

// Wait blocks until every handler has exited — which happens when the mesh
// closes — and returns the first protocol violation observed, if any.
func (s *Server) Wait() error {
	s.wg.Wait()
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.firstErr
}

func (s *Server) fail(err error) {
	s.errMu.Lock()
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.errMu.Unlock()
}

// serve is one peer's handler loop: requests are processed strictly in
// arrival order, which is what lets acks match requests positionally on
// the client. A request whose version horizon has not been reached parks
// this loop only — other clients' handlers keep running.
func (s *Server) serve(peer int) {
	defer s.wg.Done()
	for {
		msg, err := s.view.Recv(peer)
		if err != nil {
			// Mesh closed or peer gone — a clean end of service.
			return
		}
		if err := s.handle(peer, msg); err != nil {
			if !errors.Is(err, transport.ErrClosed) {
				s.fail(fmt.Errorf("ps: serving rank %d: %w", peer, err))
			}
			return
		}
	}
}

// handle applies one request frame and acks it. The request payload (a
// pooled buffer owned by this side since Recv) is released here.
func (s *Server) handle(peer int, msg transport.Message) error {
	if msg.Dtype != tensor.F64 {
		transport.PutPayload(msg.Payload)
		return fmt.Errorf("%w: %v values", ErrBadRequest, msg.Dtype)
	}
	mode, chunk, err := splitTag(msg.Chunk)
	if err != nil {
		transport.PutPayload(msg.Payload)
		return err
	}
	if chunk >= len(s.keys) {
		transport.PutPayload(msg.Payload)
		return fmt.Errorf("%w: chunk %d of %d", ErrBadRequest, chunk, len(s.keys))
	}
	span := s.offsets[chunk+1] - s.offsets[chunk]
	if err := reqPayloadLen(msg.Type, len(msg.Payload), span); err != nil {
		transport.PutPayload(msg.Payload)
		return err
	}
	switch msg.Type {
	case transport.MsgPSPush, transport.MsgPSPushPull:
		if mode < Overwrite {
			transport.PutPayload(msg.Payload)
			return fmt.Errorf("%w: push without update mode", ErrBadRequest)
		}
		snap, err := s.store.applySnap(s.keys[chunk], msg.Payload, mode, msg.Iter)
		transport.PutPayload(msg.Payload)
		if err != nil {
			return err
		}
		if msg.Type == transport.MsgPSPush {
			version := snap.version
			snap.release()
			return s.view.Send(peer, transport.Message{
				Type: transport.MsgPSAck, Stream: PSStream, Iter: version, Chunk: msg.Chunk,
			})
		}
		err = s.ackValues(peer, msg.Chunk, snap)
		snap.release()
		return err
	case transport.MsgPSPull:
		snap, ok := s.store.acquireSnap(s.keys[chunk])
		if !ok {
			// Version 0 with an empty payload signals the unknown key.
			return s.view.Send(peer, transport.Message{
				Type: transport.MsgPSAck, Stream: PSStream, Chunk: msg.Chunk,
			})
		}
		err := s.ackValues(peer, msg.Chunk, snap)
		snap.release()
		return err
	default:
		transport.PutPayload(msg.Payload)
		return fmt.Errorf("%w: frame type %d", ErrBadRequest, msg.Type)
	}
}

// ackValues replies with a chunk's published values, straight from the
// snapshot with a plain Send, which is done with the payload when it returns
// (the caller releases the snapshot after).
func (s *Server) ackValues(peer int, tag int32, snap *snapshot) error {
	return s.view.Send(peer, transport.Message{
		Type: transport.MsgPSAck, Stream: PSStream, Iter: snap.version, Chunk: tag, Payload: snap.value,
	})
}
