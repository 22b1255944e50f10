package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"sync/atomic"

	"repro/internal/tensor"
)

// Landing: a received frame's body goes where it is consumed.
//
// A plain Recv hands the receiver a pooled payload that the decoder filled
// from the read window, and a collective then copies or adds that payload
// into its own vector: after the kernel's copy into the 64 KiB bufio window,
// every body byte crosses user space twice more (window → payload → vector).
// RecvInto names the frame it expects and the span its body is for. When the
// calling goroutine is the one decoding that frame off the socket and the
// header matches, the body skips the payload:
//
//   - copy: the bytes already buffered are copied out of the window, and the
//     rest of the body is read(2) straight into the span's bytes;
//   - add: the body is folded out of the window with tensor.AddLE.
//
// Every other frame takes the pooled payload and is folded the same way:
// frames drain-assist or another stream's reader already routed to the
// stream's queue (drain-assist cannot land: it does not know where a body
// goes), frames whose header differs from the expectation, and meshes that
// cannot land. So a collective's receive is one
// RecvInto call whichever way the frame came. TCPMesh, its stream views and
// SubMesh over them land; the in-memory mesh and wrapping meshes take the
// pooled path. A landing never outlives its call: the reader keeps the
// connection's read election until the frame is complete or the call fails,
// so no drain or other reader can interleave with a half-landed body, and on
// failure the connection is dead and nothing writes to the span afterwards.

// Landing names the frame a RecvInto expects and what its body is for.
type Landing struct {
	// Type, Iter and Chunk are the header fields the frame must carry.
	Type  MsgType
	Iter  int64
	Chunk int32
	// AnyIter accepts the frame whatever its Iter, which the returned
	// Message carries: a parameter-server ack's Iter is the version it
	// publishes, which the client cannot know in advance.
	AnyIter bool
	// Dst takes the frame's first len(Dst) elements.
	Dst []float64
	// HasTail says the frame carries exactly one element after Dst's;
	// RecvInto returns it in the Message's Tail.
	HasTail bool
	// Add folds the body into Dst (Dst[i] += x) instead of copying it.
	Add bool
}

// ErrUnexpectedFrame is RecvInto's error for a frame that is not the one the
// Landing names: another type, iteration, tag or element count. The frame is
// returned whole, its payload pooled and Dst untouched, so the caller can
// report what it got and release the payload.
var ErrUnexpectedFrame = errors.New("transport: unexpected frame")

// RecvInto receives the next message rank `from` sent and completes the
// Landing with it. On success the returned Message carries the frame's
// header fields and, when the Landing names one, its tail; its Payload is
// nil because the body is in Dst. See ErrUnexpectedFrame for a frame that
// does not match.
func RecvInto(m Mesh, from int, l Landing) (Message, error) {
	msg, landed, err := recvLanding(m, from, l)
	if err != nil {
		return Message{}, err
	}
	if !landed {
		if msg, err = l.deliver(msg); err != nil {
			return msg, err
		}
	}
	if hook := landHook.Load(); hook != nil {
		(*hook)(landed)
	}
	return msg, nil
}

// lander is implemented by the meshes that can land a frame off their own
// socket. recvInto returns either a landed frame's header (landed = true) or
// the next message as Recv would.
type lander interface {
	recvInto(from int, l Landing) (msg Message, landed bool, err error)
}

// recvLanding receives from a lander, or with a plain Recv.
func recvLanding(m Mesh, from int, l Landing) (Message, bool, error) {
	if ln, ok := m.(lander); ok {
		return ln.recvInto(from, l)
	}
	msg, err := m.Recv(from)
	return msg, false, err
}

// landHook, when set, hears whether each completed RecvInto landed its frame
// off the socket; export_test.go installs it.
var landHook atomic.Pointer[func(landed bool)]

// elems is the element count of the frame l expects.
func (l *Landing) elems() int {
	if l.HasTail {
		return len(l.Dst) + 1
	}
	return len(l.Dst)
}

// expects reports whether a frame with header m and n elements is the one l
// names.
func (l *Landing) expects(m *Message, n int) bool {
	return m.Type == l.Type && (l.AnyIter || m.Iter == l.Iter) && m.Chunk == l.Chunk && n == l.elems()
}

// deliver completes the landing from a decoded message: the pooled path.
func (l *Landing) deliver(msg Message) (Message, error) {
	if !l.expects(&msg, len(msg.Payload)) {
		return msg, ErrUnexpectedFrame
	}
	body := msg.Payload[:len(l.Dst)]
	if l.Add {
		_ = tensor.Vector(l.Dst).Add(body) // lengths checked by expects
	} else {
		copy(l.Dst, body)
	}
	if l.HasTail {
		msg.Tail, msg.HasTail = msg.Payload[len(l.Dst)], true
	}
	PutPayload(msg.Payload)
	msg.Payload = nil
	return msg, nil
}

// land lands the next frame of a byte stream when it travels on stream and
// l names it: br is the stream's read window and raw the reader under it (a
// connection's socket). It runs as the connection's elected reader with no
// frame half decoded. landed is false, with nothing consumed, when the frame
// is another one (or its header cannot be read yet): the caller decodes it as
// usual. An error is fatal to the stream, which stops mid-frame.
func land(br *bufio.Reader, raw io.Reader, stream int32, l *Landing) (msg Message, landed bool, err error) {
	if !hostLittleEndian {
		return Message{}, false, nil
	}
	hdr, err := br.Peek(frameHeaderBytes)
	if err != nil {
		return Message{}, false, nil // readFrame reports it
	}
	msg, n, err := parseFrameHeader(hdr)
	if err != nil || msg.Stream != stream || !l.expects(&msg, n) {
		return Message{}, false, nil
	}
	_, _ = br.Discard(frameHeaderBytes) // buffered: Peek returned it
	if l.Add {
		err = addFrom(br, l.Dst)
	} else {
		err = readInto(br, raw, f64Bytes(l.Dst))
	}
	if err == nil && l.HasTail {
		msg.Tail, err = readF64(br)
		msg.HasTail = true
	}
	return msg, err == nil, err
}

// readInto fills dst with the stream's next len(dst) bytes: whatever the
// read window br already holds, then read(2) on raw straight into dst. The
// window is empty by then, so reading raw directly neither skips nor
// reorders a byte.
func readInto(br *bufio.Reader, raw io.Reader, dst []byte) error {
	k, _ := br.Read(dst[:min(len(dst), br.Buffered())])
	if _, err := io.ReadFull(raw, dst[k:]); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

// addFrom folds the next len(dst) wire float64s from br into dst, a window
// at a time.
func addFrom(br *bufio.Reader, dst []float64) error {
	for len(dst) > 0 {
		b, err := peekElems(br, 8, 8*len(dst))
		if err != nil {
			return err
		}
		k := len(b) / 8
		tensor.AddLE(dst[:k], b)
		_, _ = br.Discard(8 * k) // buffered: peekElems returned it
		dst = dst[k:]
	}
	return nil
}

// readF64 decodes the next wire float64 from br.
func readF64(br *bufio.Reader) (float64, error) {
	b, err := br.Peek(8)
	if err != nil {
		return 0, err
	}
	x := math.Float64frombits(binary.LittleEndian.Uint64(b))
	_, _ = br.Discard(8)
	return x, nil
}
