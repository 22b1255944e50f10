// Package transport provides reliable, ordered point-to-point messaging
// between the ranks of a training job. Two implementations are provided: an
// in-memory mesh (per-peer queues in one process) for single-process
// clusters and a TCP mesh (net) for multi-process deployments. Both satisfy
// the Mesh interface consumed by the collective layer, and each routes its
// own tag streams (stream.go): a message is filed under its sender and its
// stream id by the mesh that carries it.
//
// On the wire every message travels as a frame of the explicit, versioned
// frame protocol v1 (see frame.go for the writer and the layout rationale):
//
//	offset  size  field
//	     0     4  frame length (bytes after this field)
//	     4     1  protocol version (1)
//	     5     1  message type
//	     6     1  flags (all reserved: a frame that sets one is refused)
//	     7     1  payload dtype (0, f64: the only encoding)
//	     8     4  stream id
//	    12     4  sender rank
//	    16     4  receiver rank
//	    20     8  iteration tag
//	    28     4  chunk tag
//	    32     4  payload element count
//	    36     …  payload (8·n bytes)
//
// All fields are little-endian. The length prefix lets a receiver (or a
// fuzzer) bound a frame before trusting any of its fields; the version byte
// makes the format evolvable; a dtype other than f64 is rejected, and so is a
// length prefix that disagrees with the element count. The stream id
// is what both meshes route tag streams on, instead of packing stream bits
// into Iter's high bits, so the full int64 iteration space belongs to the
// collective.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/tensor"
)

// MsgType distinguishes the wire messages of the collective protocols.
type MsgType uint8

// Message kinds. Start at 1 so the zero value is invalid.
const (
	// MsgChunk carries a gradient chunk during reduce-scatter/allgather.
	MsgChunk MsgType = iota + 1
	// MsgBroadcast carries a full tensor during a broadcast.
	MsgBroadcast
	// MsgControl carries small control payloads (activations, acks).
	MsgControl
	// MsgReduce carries partial sums during tree reductions.
	MsgReduce
)

// Parameter-server message kinds keep the numbers they were assigned when 5
// and 6 carried push-only and pull-only requests; 5 and 6 are unassigned, and
// the parameter server refuses a frame that carries one.
const (
	// MsgPSPushPull carries one chunk of a parameter-server request: the
	// payload is the pushed values, the chunk tag packs the update mode and
	// chunk index (see internal/ps). The MsgPSAck returns the chunk's
	// post-update values.
	MsgPSPushPull MsgType = 7
	// MsgPSAck answers a parameter-server request: the iteration tag
	// carries the chunk's new version, the chunk tag echoes the request's
	// and the payload holds the chunk's values.
	MsgPSAck MsgType = 8

	// maxMsgType bounds the valid type range for the frame decoder.
	maxMsgType = MsgPSAck
)

// Message is the unit of exchange on a Mesh.
type Message struct {
	// Type is the message kind.
	Type MsgType
	// From is the sender's rank.
	From int32
	// To is the receiver's rank.
	To int32
	// Stream is the logical tag stream the message belongs to (see
	// stream.go). Zero — the default — is the stream plain Recv observes, so
	// senders that never multiplex interoperate unchanged. The mesh that
	// carries the message files it by this id: the in-memory mesh when it is
	// sent, the TCP mesh from the frame header when it is read. Concurrent
	// users of one mesh therefore never touch the iteration tag or each
	// other's messages.
	Stream int32
	// Iter tags the training iteration the message belongs to, so
	// cross-iteration traffic cannot be confused. The full int64 range is
	// usable: stream multiplexing no longer borrows its high bits.
	Iter int64
	// Chunk is the ring chunk index for MsgChunk traffic.
	Chunk int32
	// Dtype is the payload's wire encoding. Only the zero value,
	// tensor.F64 (raw float64 bits), encodes or decodes. It stays while the
	// benchmark's trace sizes frames by it.
	Dtype tensor.Dtype
	// Payload carries tensor data.
	Payload []float64
	// Indices is never carried: a frame has no room for an index list, and
	// a send refuses a message that sets one (ErrBadFrame), so nothing is
	// silently dropped. It stays while the benchmark's trace sizes frames by
	// it.
	Indices []int32
	// Tail, when HasTail is set, is one more element the frame carries
	// after Payload: the frame's element count includes it, and a receiver
	// finds it as the last element of a Recv'd payload (or in its own Tail
	// after a RecvInto that names it). It lets a sender append a scalar to a
	// span of its own vector without staging the two in one buffer.
	Tail    float64
	HasTail bool
}

// elems is the frame's element count: the payload plus the tail.
func (m *Message) elems() int {
	if m.HasTail {
		return len(m.Payload) + 1
	}
	return len(m.Payload)
}

// Frame protocol constants.
const (
	// ProtocolV1 is the current (and oldest supported) frame protocol
	// version. Every frame carries the negotiated version in its header.
	ProtocolV1 = 1

	// frameHeaderBytes is the full fixed header: the 4-byte length prefix
	// plus 32 bytes of framing fields.
	frameHeaderBytes = 36

	// frameLenBase is the value of the length prefix for an empty frame:
	// the header bytes that follow the prefix itself.
	frameLenBase = frameHeaderBytes - 4
)

// MaxPayloadElems bounds a single message's payload to guard decoders
// against corrupt or hostile length prefixes (128 MiB of float64s).
const MaxPayloadElems = 16 << 20

// ErrPayloadTooLarge is returned when encoding or decoding a message whose
// payload exceeds MaxPayloadElems.
var ErrPayloadTooLarge = errors.New("transport: payload too large")

// ErrUnknownDtype is returned when encoding or decoding a message whose
// dtype byte is not a known wire encoding.
var ErrUnknownDtype = errors.New("transport: unknown payload dtype")

// ErrBadFrame is returned when a frame header is self-contradictory or
// unassigned: a length prefix that disagrees with the element count, an
// unknown type, a flag bit set, or a negative stream id. Bit 0 once marked a
// sparse frame (an index list before the payload), bit 1 a payload narrower
// than f64; both are reserved like the rest. A send refuses a message that
// sets Indices with it too.
var ErrBadFrame = errors.New("transport: malformed frame header")

// errIndices is every mesh's refusal of a message that sets Indices.
var errIndices = fmt.Errorf("%w: indices are not carried", ErrBadFrame)

// checkEncodable validates the encoder-side invariants shared by Encode and
// the frame writer.
func checkEncodable(m *Message) error {
	if m.elems() > MaxPayloadElems {
		return fmt.Errorf("%w: %d elems", ErrPayloadTooLarge, m.elems())
	}
	if !m.Dtype.Valid() {
		return fmt.Errorf("%w: %d", ErrUnknownDtype, m.Dtype)
	}
	if m.Indices != nil {
		return errIndices
	}
	if m.Type == 0 || m.Type > maxMsgType {
		return fmt.Errorf("%w: type %d", ErrBadFrame, m.Type)
	}
	if m.Stream < 0 {
		return fmt.Errorf("%w: negative stream %d", ErrBadFrame, m.Stream)
	}
	return nil
}

// putFrameHeader writes the fixed v1 header into b (len(b) must be at least
// frameHeaderBytes) for a message with n payload elements.
func putFrameHeader(b []byte, m *Message, n int) {
	binary.LittleEndian.PutUint32(b[0:], uint32(frameLenBase+8*n))
	b[4] = ProtocolV1
	b[5] = byte(m.Type)
	b[6] = 0 // flags: all reserved
	b[7] = byte(m.Dtype)
	binary.LittleEndian.PutUint32(b[8:], uint32(m.Stream))
	binary.LittleEndian.PutUint32(b[12:], uint32(m.From))
	binary.LittleEndian.PutUint32(b[16:], uint32(m.To))
	binary.LittleEndian.PutUint64(b[20:], uint64(m.Iter))
	binary.LittleEndian.PutUint32(b[28:], uint32(m.Chunk))
	binary.LittleEndian.PutUint32(b[32:], uint32(n))
}

// parseFrameHeader validates a fixed header and returns the decoded message
// shell (no body) plus the element count.
func parseFrameHeader(hdr []byte) (Message, int, error) {
	frameLen := binary.LittleEndian.Uint32(hdr[0:])
	if hdr[4] != ProtocolV1 {
		return Message{}, 0, fmt.Errorf("%w: frame version %d, speaking v%d", ErrVersionMismatch, hdr[4], ProtocolV1)
	}
	m := Message{
		Type:   MsgType(hdr[5]),
		Dtype:  tensor.Dtype(hdr[7]),
		Stream: int32(binary.LittleEndian.Uint32(hdr[8:])),
		From:   int32(binary.LittleEndian.Uint32(hdr[12:])),
		To:     int32(binary.LittleEndian.Uint32(hdr[16:])),
		Iter:   int64(binary.LittleEndian.Uint64(hdr[20:])),
		Chunk:  int32(binary.LittleEndian.Uint32(hdr[28:])),
	}
	if m.Type == 0 || m.Type > maxMsgType {
		return Message{}, 0, fmt.Errorf("%w: type %d", ErrBadFrame, m.Type)
	}
	// The dtype goes before the flags: a frame of a build that shipped
	// narrower dtypes also sets the reserved bit 1, and its dtype is what
	// this decoder cannot read.
	if !m.Dtype.Valid() {
		return Message{}, 0, fmt.Errorf("%w: %d", ErrUnknownDtype, hdr[7])
	}
	if hdr[6] != 0 {
		return Message{}, 0, fmt.Errorf("%w: reserved flags %#02x", ErrBadFrame, hdr[6])
	}
	if m.Stream < 0 {
		return Message{}, 0, fmt.Errorf("%w: negative stream %d", ErrBadFrame, m.Stream)
	}
	n := binary.LittleEndian.Uint32(hdr[32:])
	if n > MaxPayloadElems {
		return Message{}, 0, fmt.Errorf("%w: %d elems", ErrPayloadTooLarge, n)
	}
	if want := uint32(frameLenBase + 8*int(n)); frameLen != want {
		return Message{}, 0, fmt.Errorf("%w: frame len %d, header implies %d", ErrBadFrame, frameLen, want)
	}
	return m, int(n), nil
}

// Encode appends the v1 wire frame of m to buf and returns the extended
// slice. The hot transport path uses the vectored frame writer instead (see
// frame.go); Encode is the reference serializer shared by tests, fuzzers and
// loopback-free callers.
func Encode(buf []byte, m Message) ([]byte, error) {
	if err := checkEncodable(&m); err != nil {
		return nil, err
	}
	n := len(m.Payload)
	need := frameHeaderBytes + 8*m.elems()
	off := len(buf)
	if cap(buf)-off < need {
		grown := make([]byte, off, off+need)
		copy(grown, buf)
		buf = grown
	}
	buf = buf[:off+need]
	b := buf[off:]
	putFrameHeader(b, &m, m.elems())
	p := b[frameHeaderBytes:]
	if n > 0 {
		encodePayload(p, m.Payload)
	}
	if m.HasTail {
		binary.LittleEndian.PutUint64(p[8*n:], math.Float64bits(m.Tail))
	}
	return buf, nil
}

// encodeBufs recycles wire-format scratch buffers across sends; readBufs
// recycles the staging buffer readFrameExact reads a body through.
var encodeBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}
var readBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// ReadMessage reads one v1 frame from r. It returns io.EOF unchanged on a
// clean end-of-stream before any header byte. When r is a *bufio.Reader the
// decode is zero-copy: f64 payloads are decoded straight from the peek
// window into pooled buffers, with no raw staging copy. Any
// other reader gets the exact-read path, which consumes precisely one
// frame's bytes and not one more — callers may keep using r for whatever
// follows the frame.
func ReadMessage(r io.Reader) (Message, error) {
	if br, ok := r.(*bufio.Reader); ok {
		return readFrame(br)
	}
	return readFrameExact(r)
}

// readFrameExact decodes one frame reading exactly its bytes from r: the
// fixed header, then the body staged through a pooled buffer. This is the
// reference decode path for non-buffered readers; the TCP hot path uses
// readFrame's peek-window decode instead.
func readFrameExact(r io.Reader) (Message, error) {
	var hdr [frameHeaderBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) && err != io.ErrUnexpectedEOF {
			return Message{}, io.EOF
		}
		return Message{}, fmt.Errorf("transport: read frame header: %w", err)
	}
	m, n, err := parseFrameHeader(hdr[:])
	if err != nil {
		return Message{}, err
	}
	body := 8 * n
	bp := readBufs.Get().(*[]byte)
	raw := *bp
	if cap(raw) < body {
		raw = make([]byte, body)
	}
	raw = raw[:body]
	*bp = raw[:0]
	defer readBufs.Put(bp)
	if _, err := io.ReadFull(r, raw); err != nil {
		return Message{}, fmt.Errorf("transport: read frame body: %w", err)
	}
	if n > 0 {
		payload := GetPayload(n)
		if view := f64Bytes(payload); view != nil {
			copy(view, raw)
		} else {
			for i := range payload {
				payload[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			}
		}
		m.Payload = payload
	}
	return m, nil
}

// readFrame decodes one frame from br. See ReadMessage for the contract.
func readFrame(br *bufio.Reader) (Message, error) {
	var d frameDecoder
	msg, _, err := d.step(br)
	if err != nil {
		d.abort()
		return Message{}, err
	}
	return msg, nil
}

// frameDecoder incrementally decodes v1 frames, retaining progress across
// calls. The TCP mesh keeps one per connection so a decode that times out
// mid-frame — the write-stall drain reads under a short deadline — resumes
// exactly where the bytes ran out instead of abandoning the frame. Every
// stage is restartable: a partial header stays buffered in the bufio
// window, and the payload fill records how many whole elements have landed
// in the pooled destination buffer.
//
// Only one reader may touch a decoder at a time (the mesh's per-connection
// read election guarantees that). After a non-timeout error the stream is
// unframed garbage; call abort to release partial buffers and tear the
// connection down.
type frameDecoder struct {
	active bool    // header parsed; msg/n describe the frame in progress
	msg    Message // header fields; Payload filled as bytes arrive
	n      int     // payload elements expected
	payOff int     // payload elements decoded so far
}

// step advances the decode as far as br can supply bytes. It returns
// (msg, true, nil) with a complete frame, or an error: a net.Error timeout
// means the source ran dry mid-frame and step may be called again once more
// bytes arrive; anything else is fatal to the stream. io.EOF is returned
// unchanged only on a clean end-of-stream before any frame byte.
func (d *frameDecoder) step(br *bufio.Reader) (Message, bool, error) {
	if !d.active {
		// Peek instead of ReadFull: the header is parsed in place in the
		// bufio window, so the hot path allocates nothing (a stack header
		// buffer would escape through the io.Reader interface).
		hdr, err := br.Peek(frameHeaderBytes)
		if err != nil {
			if errors.Is(err, io.EOF) {
				if len(hdr) == 0 {
					return Message{}, false, io.EOF
				}
				err = io.ErrUnexpectedEOF
			}
			return Message{}, false, fmt.Errorf("transport: read frame header: %w", err)
		}
		m, n, err := parseFrameHeader(hdr)
		if _, derr := br.Discard(frameHeaderBytes); derr != nil && err == nil {
			return Message{}, false, fmt.Errorf("transport: read frame header: %w", derr)
		}
		if err != nil {
			return Message{}, false, err
		}
		d.active, d.msg, d.n, d.payOff = true, m, n, 0
		if n > 0 {
			// The decoded payload comes from the shared pool; the receiver
			// owns it and may release it with PutPayload once consumed.
			d.msg.Payload = GetPayload(n)
		}
	}
	if d.n > 0 {
		k, err := decodeF64From(br, d.msg.Payload[d.payOff:])
		d.payOff += k
		if err != nil {
			return Message{}, false, fmt.Errorf("transport: read payload: %w", err)
		}
	}
	msg := d.msg
	*d = frameDecoder{}
	return msg, true, nil
}

// abort releases any partially-decoded frame's pooled buffers and resets
// the decoder. Call it when the stream is being torn down (or after a fatal
// step error); the decoder cannot resync mid-stream.
func (d *frameDecoder) abort() {
	if d.active {
		PutPayload(d.msg.Payload)
	}
	*d = frameDecoder{}
}
