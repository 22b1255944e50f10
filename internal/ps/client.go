package ps

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/collective"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// DefaultWindow is the default request-pipelining window: how many chunk
// requests a client keeps in flight before consuming acks. The window is
// what overlaps the first returned chunks with later pushes.
const DefaultWindow = 4

// GlobalStore is the whole-model push-pull both a networked Client and an
// in-process Loopback offer, bit-identical to each other at f64.
type GlobalStore interface {
	// PushPull applies value under mode and returns the resulting global
	// model and its version. A positive minVersion delays the exchange
	// until the model's version reaches it.
	PushPull(value tensor.Vector, mode UpdateMode, minVersion int64) (tensor.Vector, int64, error)
}

// Loopback returns the in-process GlobalStore over store's key: PushPull is
// Store.PushPull on key after the version wait.
func Loopback(store *Store, key string) GlobalStore {
	return &loopback{store: store, key: key}
}

type loopback struct {
	store *Store
	key   string
}

func (l *loopback) PushPull(value tensor.Vector, mode UpdateMode, minVersion int64) (tensor.Vector, int64, error) {
	if minVersion > 0 {
		l.store.WaitVersion(l.key, minVersion)
	}
	return l.store.PushPull(l.key, value, mode)
}

// checkChunkRange validates a chunk range [first, last) of an offsets table
// and the span-sized vectors that carry it.
func checkChunkRange(offsets []int, first, last int, span ...tensor.Vector) error {
	if first < 0 || last < first || last >= len(offsets) {
		return fmt.Errorf("ps: chunk range [%d, %d) of %d chunks", first, last, len(offsets)-1)
	}
	want := offsets[last] - offsets[first]
	for _, v := range span {
		if len(v) != want {
			return fmt.Errorf("ps: %w: %d elems for chunks [%d, %d), want %d", tensor.ErrShapeMismatch, len(v), first, last, want)
		}
	}
	return nil
}

// ClientConfig configures a networked parameter-server client. Key, Dim
// and Chunks must match the servers' configuration.
type ClientConfig struct {
	// Servers are the PS ranks. Chunk c is owned by Servers[c % len],
	// so concurrent groups spread their chunk traffic across every
	// server rank.
	Servers []int
	// Key is the logical model key.
	Key string
	// Dim is the model dimension.
	Dim int
	// Chunks is the chunk-shard count (default DefaultChunks, clamped as
	// on the server).
	Chunks int
	// Window bounds in-flight chunk requests (default DefaultWindow).
	Window int
}

func (c *ClientConfig) chunkCount() int {
	return (&ServerConfig{Dim: c.Dim, Chunks: c.Chunks}).chunkCount()
}

func (c *ClientConfig) window() int {
	if c.Window < 1 {
		return DefaultWindow
	}
	return c.Window
}

// Client speaks the PS wire protocol toward a set of server ranks: a
// push-pull decomposes into per-chunk request frames pipelined through the
// reserved PS stream, so a server can answer early chunks while later ones
// are still being pushed. Requests go out as views of the caller's vectors
// (writev on TCP sends), and pulled chunks land in the caller's vector
// (transport.RecvInto).
//
// A Client belongs to one goroutine — a group member's communication
// thread — like every other SPMD communication handle in the repository.
type Client struct {
	view    transport.Mesh
	cfg     ClientConfig
	chunks  int
	offsets []int
}

var _ GlobalStore = (*Client)(nil)

// NewClient validates cfg against the mesh and returns a client ready for
// exchanges. No traffic flows until the first operation.
func NewClient(mesh transport.Mesh, cfg ClientConfig) (*Client, error) {
	if cfg.Key == "" {
		return nil, fmt.Errorf("ps: empty client key")
	}
	if cfg.Dim < 1 {
		return nil, fmt.Errorf("ps: client dim %d", cfg.Dim)
	}
	if len(cfg.Servers) == 0 {
		return nil, fmt.Errorf("ps: no server ranks")
	}
	for _, r := range cfg.Servers {
		if r < 0 || r >= mesh.Size() {
			return nil, fmt.Errorf("ps: server rank %d of %d", r, mesh.Size())
		}
		if r == mesh.Rank() {
			return nil, fmt.Errorf("ps: rank %d cannot be its own server", r)
		}
	}
	chunks := cfg.chunkCount()
	offsets, err := collective.ShardOffsets(cfg.Dim, chunks)
	if err != nil {
		return nil, err
	}
	return &Client{
		view:    mesh.StreamView(PSStream),
		cfg:     cfg,
		chunks:  chunks,
		offsets: offsets,
	}, nil
}

func (c *Client) serverOf(chunk int) int {
	return c.cfg.Servers[chunk%len(c.cfg.Servers)]
}

// ChunkOffsets returns the chunk table the client shares with its servers:
// chunk c spans offsets[c]:offsets[c+1], and a server stores it under
// "Key#c".
func (c *Client) ChunkOffsets() ([]int, error) { return c.offsets, nil }

// PushPull applies value to the global model and returns the post-update
// model. The returned version is the minimum across chunks (they are equal
// whenever exchanges are ordered).
func (c *Client) PushPull(value tensor.Vector, mode UpdateMode, minVersion int64) (tensor.Vector, int64, error) {
	out := tensor.New(c.cfg.Dim)
	ver, err := c.PushPullInto(out, value, mode, minVersion)
	if err != nil {
		return nil, 0, err
	}
	return out, ver, nil
}

// PushPullInto is PushPull scattering the post-update model into out, which
// must have the model's dimension and must not alias value.
func (c *Client) PushPullInto(out, value tensor.Vector, mode UpdateMode, minVersion int64) (int64, error) {
	if err := checkChunkRange(c.offsets, 0, c.chunks, out, value); err != nil {
		return 0, err
	}
	return c.exchange(0, c.chunks, value, nil, mode, minVersion, out)
}

// PushPullDeltaChunks adds latest − base to chunks [first, last) of the
// global model and writes the result to out: a hierarchical member's exchange
// of the span it owns, base being that span as of its last pull. out, base and
// latest cover offsets[first]:offsets[last]; out may be latest, base or a span
// of its own, and nothing else is written. It needs no scratch of its own:
// each chunk's delta is formed in out and sent from there, and the chunk's ack
// lands in the same place once the chunk is on its way. An empty range
// exchanges nothing and returns version 0.
func (c *Client) PushPullDeltaChunks(first, last int, out, base, latest tensor.Vector, minVersion int64) (int64, error) {
	if err := checkChunkRange(c.offsets, first, last, out, base, latest); err != nil {
		return 0, err
	}
	return c.exchange(first, last, latest, base, Add, minVersion, out)
}

// exchange runs one chunked, windowed operation over chunks [first, last),
// whose span body, base and out cover (checkChunkRange): up to Window chunk
// requests stay in flight, and acks are consumed in send order (each server
// answers its requests FIFO, and chunks visit servers round-robin, so the
// next expected ack is always at the head of its server's stream). With base
// set the pushed value is body − base, formed in out's chunk. A chunk's ack is
// received only after the chunk's request is sent, and a Send leaves its
// payload to the caller when it returns, so the ack may land where the
// request went out from: out may be body or base.
func (c *Client) exchange(first, last int, body, base tensor.Vector, mode UpdateMode, minVersion int64, out tensor.Vector) (int64, error) {
	if first == last {
		return 0, nil
	}
	window := c.cfg.window()
	version := int64(math.MaxInt64)
	sent, recvd := first, first
	var sendErr error
	for recvd < last {
		for sendErr == nil && sent < last && sent-recvd < window {
			if sendErr = c.sendReq(first, sent, mode, minVersion, body, base, out); sendErr == nil {
				sent++
			}
		}
		if recvd == sent {
			return 0, sendErr
		}
		ver, err := c.recvAck(first, recvd, mode, out)
		if err != nil {
			// The response stream is out of step; outstanding acks are
			// unrecoverable.
			return 0, err
		}
		recvd++
		if ver < version {
			version = ver
		}
	}
	if sendErr != nil {
		return 0, sendErr
	}
	return version, nil
}

// sendReq ships one chunk request of an exchange starting at chunk first.
// The payload is a view of the caller's span: the chunk of body, or of
// body − base formed in out.
func (c *Client) sendReq(first, chunk int, mode UpdateMode, minVersion int64, body, base, out tensor.Vector) error {
	msg := transport.Message{
		Type: transport.MsgPSPushPull, Stream: PSStream, Iter: minVersion,
		Chunk: psTag(mode, chunk),
	}
	lo, hi := c.offsets[chunk]-c.offsets[first], c.offsets[chunk+1]-c.offsets[first]
	msg.Payload = body[lo:hi]
	if base != nil {
		msg.Payload = out[lo:hi]
		_ = tensor.DiffInto(msg.Payload, body[lo:hi], base[lo:hi]) // lengths checked by the caller
	}
	return c.view.Send(c.serverOf(chunk), msg)
}

// recvAck consumes the ack for chunk of an exchange starting at chunk first.
// The chunk's values land in out through transport.RecvInto, whatever version
// the ack carries; a frame that is not the expected ack comes back whole and
// is reported.
func (c *Client) recvAck(first, chunk int, mode UpdateMode, out tensor.Vector) (int64, error) {
	lo, hi := c.offsets[chunk]-c.offsets[first], c.offsets[chunk+1]-c.offsets[first]
	msg, err := transport.RecvInto(c.view, c.serverOf(chunk), transport.Landing{
		Type: transport.MsgPSAck, AnyIter: true, Chunk: psTag(mode, chunk), Dst: out[lo:hi],
	})
	if err == nil {
		return msg.Iter, nil
	}
	if !errors.Is(err, transport.ErrUnexpectedFrame) {
		return 0, err
	}
	defer transport.PutPayload(msg.Payload)
	if err := c.checkAck(&msg, chunk); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("ps: ack chunk %d carries %d elems, want %d", chunk, len(msg.Payload), hi-lo)
}

// checkAck reports a frame that is not chunk's ack.
func (c *Client) checkAck(msg *transport.Message, chunk int) error {
	if msg.Type != transport.MsgPSAck {
		return fmt.Errorf("ps: expected ack, got frame type %d", msg.Type)
	}
	if _, got, err := splitTag(msg.Chunk); err != nil || got != chunk {
		return fmt.Errorf("ps: ack for chunk %d, want %d (tag %d)", got, chunk, msg.Chunk)
	}
	return nil
}
