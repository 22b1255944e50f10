package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"time"
	"unsafe"
)

// Zero-copy field codecs.
//
// The v1 wire format is little-endian, which is also the byte order of every
// platform this repo targets. When host and wire order agree, a []float64
// payload IS its wire encoding — the codec reinterprets the backing array as
// bytes instead of converting element by element, and the send path hands
// those byte views to writev untouched. The big-endian fallback converts
// through encoding/binary, so correctness never depends on the fast path.

// hostLittleEndian reports whether the host's memory order matches the wire.
var hostLittleEndian = func() bool {
	x := uint16(0x0102)
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}()

// f64Bytes returns p's backing array viewed as wire bytes, or nil when the
// host byte order does not match the wire (callers must then fall back to a
// converting codec). The view aliases p: it is valid only while p is, and
// writes through either alias are visible in both.
func f64Bytes(p []float64) []byte {
	if !hostLittleEndian || len(p) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&p[0])), 8*len(p))
}

// encodePayload writes src's wire encoding into dst (8·len(src) bytes).
func encodePayload(dst []byte, src []float64) {
	if b := f64Bytes(src); b != nil {
		copy(dst, b)
		return
	}
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

// decodeF64From fills dst with float64s decoded straight out of br's peek
// window — no staging buffer between the socket and the pooled payload. Each
// round consumes the whole-element prefix of what is buffered (blocking for
// at most one element when the buffer runs dry), so the loop costs one
// Peek/Discard pair per socket fill rather than per element. It returns the
// number of elements decoded, which on error is the resume offset: the
// stream stops exactly at an element boundary (sub-element stragglers stay
// buffered in br), so a timed-out decode continues with dst[n:].
func decodeF64From(br *bufio.Reader, dst []float64) (int, error) {
	done := 0
	for len(dst) > 0 {
		b, err := peekElems(br, 8, 8*len(dst))
		if err != nil {
			return done, err
		}
		n := len(b) / 8
		if view := f64Bytes(dst[:n]); view != nil {
			copy(view, b)
		} else {
			for i := 0; i < n; i++ {
				dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
			}
		}
		if _, err := br.Discard(8 * n); err != nil {
			return done, err
		}
		dst = dst[n:]
		done += n
	}
	return done, nil
}

// peekElems returns a whole-element prefix (element size elem bytes) of br's
// buffered data, at most limit bytes, blocking only when not even one
// element is buffered. The returned slice is valid until the next read or
// discard on br.
func peekElems(br *bufio.Reader, elem, limit int) ([]byte, error) {
	avail := br.Buffered()
	if avail < elem {
		// One blocking fill: ask for a single element so a slow sender
		// cannot stall us waiting for a window larger than it has sent.
		avail = elem
	}
	if avail > limit {
		avail = limit
	}
	avail -= avail % elem
	b, err := br.Peek(avail)
	if len(b) >= elem {
		return b[:len(b)-len(b)%elem], nil
	}
	return nil, err
}

// frameWriter writes outbound frames on one peer connection as vectored
// writes. A frame's header — and a payload small enough that copying beats
// another iovec, and a tail — is encoded into a fixed arena; a large f64
// payload is queued as a zero-copy view of its backing array. A flush hands
// the queued iovec list to writev (net.Buffers), so one frame costs one
// syscall whatever its parts.
//
// The writer is NOT self-flushing: callers own the flush boundary. The TCP
// mesh flushes every frame before its Send returns, so a zero-copy view never
// outlives the caller's hold on the buffer it aliases.
//
// Not safe for concurrent use; the TCP mesh serializes access per
// connection.
type frameWriter struct {
	conn net.Conn
	// stall, when non-nil, is invoked each time a flush's write deadline
	// expires (the TCP mesh drains its own receive side there). When nil,
	// flushes are plain blocking writes.
	stall func()

	// arena holds header bytes, tails and copied small bodies between
	// flushes. Fixed capacity: iovec entries alias it, so it must never
	// reallocate while a frame is queued — grabArena flushes first when the
	// next part does not fit.
	arena []byte
	// iov is the pending writev list, in frame order: arena regions
	// interleaved with zero-copy payload views. open tracks whether the
	// last entry is the still-growing arena tail (so consecutive arena
	// appends extend it instead of adding an entry each).
	iov  net.Buffers
	open bool
	// out is the part of iov a flush has yet to write. WriteTo consumes the
	// slice it is called on; calling it on iov itself would leave iov
	// without its capacity and make the next frame's append reallocate.
	out net.Buffers

	// scratch holds the pooled staging buffers of a big-endian host until
	// the flush that puts their bytes on the wire.
	scratch []*[]byte

	// armedUntil is the write deadline currently set on conn; flush re-arms
	// it only when less than flushMinRunway of runway remains (see flush).
	armedUntil time.Time
}

// arenaCap is the arena size. It bounds one flush's copied bytes: a frame's
// header, tail and a body below zeroCopyMin, or on a big-endian host a body
// of up to half the arena.
const arenaCap = 32 << 10

// zeroCopyMin is the smallest payload body (bytes) worth queueing as its own
// iovec instead of copying into the arena. Below this, the copy is cheaper
// than growing the writev vector and pinning the caller's buffer.
const zeroCopyMin = 2048

func newFrameWriter(conn net.Conn, stall func()) *frameWriter {
	return &frameWriter{conn: conn, stall: stall, arena: make([]byte, 0, arenaCap)}
}

// grabArena returns n bytes of arena space as the current iovec tail,
// flushing queued frames first if the arena is full. n must be ≤ arenaCap.
func (w *frameWriter) grabArena(n int) ([]byte, error) {
	if len(w.arena)+n > cap(w.arena) {
		if err := w.flush(); err != nil {
			return nil, err
		}
	}
	start := len(w.arena)
	w.arena = w.arena[:start+n]
	b := w.arena[start : start+n]
	if w.open {
		// Extend the open tail entry over the new region.
		last := len(w.iov) - 1
		w.iov[last] = w.iov[last][:len(w.iov[last])+n]
	} else {
		w.iov = append(w.iov, b)
		w.open = true
	}
	return b, nil
}

// addView queues a zero-copy iovec entry.
func (w *frameWriter) addView(b []byte) {
	w.iov = append(w.iov, b)
	w.open = false
}

// enqueue appends one frame to the pending batch. A zero-copy view aliases
// the caller's payload, so the caller flushes before it lets go of it.
func (w *frameWriter) enqueue(msg *Message) error {
	if err := checkEncodable(msg); err != nil {
		return err
	}
	hdr, err := w.grabArena(frameHeaderBytes)
	if err != nil {
		return err
	}
	putFrameHeader(hdr, msg, msg.elems())
	if err := w.enqueuePayload(msg.Payload); err != nil || !msg.HasTail {
		return err
	}
	b, err := w.grabArena(8)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(b, math.Float64bits(msg.Tail))
	return nil
}

// enqueuePayload appends a payload body to the pending batch.
func (w *frameWriter) enqueuePayload(p []float64) error {
	wire := 8 * len(p)
	if wire == 0 {
		return nil
	}
	if wire >= zeroCopyMin {
		if view := f64Bytes(p); view != nil {
			w.addView(view)
			return nil
		}
	}
	// Small payloads copy because it is cheaper than pinning, and so does a
	// big-endian host. Stage into the arena when the body fits, else into
	// pooled scratch.
	if wire <= arenaCap-len(w.arena) || wire <= arenaCap/2 {
		b, err := w.grabArena(wire)
		if err != nil {
			return err
		}
		encodePayload(b, p)
	} else {
		w.addView(w.stage(wire, func(b []byte) { encodePayload(b, p) }))
	}
	return nil
}

// stage encodes n bytes into a pooled scratch buffer held until the next
// reset, and returns it.
func (w *frameWriter) stage(n int, fill func([]byte)) []byte {
	bp := encodeBufs.Get().(*[]byte)
	buf := (*bp)[:0]
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	fill(buf)
	*bp = buf
	w.scratch = append(w.scratch, bp)
	return buf
}

// flush writes every queued frame to the connection and releases the
// staging buffers. writev (net.Buffers.WriteTo) ships the whole batch — arena
// regions and zero-copy payload views — in as few syscalls as the kernel
// allows. With a stall hook installed, the write runs under short deadlines
// and the hook is invoked on each expiry; the TCP mesh uses this to drain
// its own receive side while write-blocked, which breaks send-send cycles
// between mutually bulk-writing peers without a dedicated reader goroutine
// (net.Buffers consumes written entries, so each retry resumes exactly where
// the deadline cut the batch).
func (w *frameWriter) flush() error {
	var err error
	w.out = w.iov
	for len(w.out) > 0 {
		if w.stall != nil {
			// Lazy deadline re-arm: adjusting the runtime poller timer
			// costs more than the writev itself on small flushes (~12% of
			// small-message CPU when done per flush), so the armed deadline
			// is left in place across flushes and only pushed out when the
			// runway drops below flushMinRunway. A write-blocked rank times
			// out within flushArm and then cycles write/drain on whatever
			// runway each re-arm grants.
			if now := time.Now(); w.armedUntil.Sub(now) < flushMinRunway {
				w.armedUntil = now.Add(flushArm)
				_ = w.conn.SetWriteDeadline(w.armedUntil)
			}
		}
		_, err = w.out.WriteTo(w.conn)
		if err == nil {
			break
		}
		var ne net.Error
		if w.stall != nil && errors.As(err, &ne) && ne.Timeout() {
			w.stall()
			continue
		}
		break
	}
	w.reset()
	return err
}

// reset clears the queue and releases the staging buffers. Called after a
// flush attempt: on error the connection is dead and the bytes will never
// ship, so the buffers are released either way.
func (w *frameWriter) reset() {
	for i := range w.iov {
		w.iov[i] = nil
	}
	w.iov, w.out = w.iov[:0], nil
	w.open = false
	w.arena = w.arena[:0]
	for _, bp := range w.scratch {
		*bp = (*bp)[:0]
		encodeBufs.Put(bp)
	}
	w.scratch = w.scratch[:0]
}

// flushQuantum is how long a flush blocks on the socket before lending its
// thread to the receive side (see TCPMesh drainAssist). Long enough that an
// unblocked write never sees it; short enough that a write-blocked rank
// starts draining promptly.
const flushQuantum = 5 * time.Millisecond

// flushArm is how far out the write deadline is armed when it needs
// refreshing; many fast flushes then amortize one poller-timer update. It
// bounds the worst-case delay before a write-blocked rank notices the
// stall and starts drain-assisting.
const flushArm = 4 * flushQuantum

// flushMinRunway is the least deadline runway a write attempt may start
// with. Below it the deadline is pushed back out to flushArm; above it the
// existing deadline stands, so the common unblocked flush (microseconds)
// skips the poller-timer update entirely.
const flushMinRunway = time.Millisecond
