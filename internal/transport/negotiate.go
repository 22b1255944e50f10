package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// Connection negotiation.
//
// A TCP mesh connection opens with a symmetric hello exchange: both ends
// send a fixed 20-byte hello and read the peer's, before any frame flows.
// The hello pins three things the pre-v1 handshake (a bare 4-byte rank) left
// implicit: that the peer speaks this protocol at all (magic), WHICH version
// it speaks (so mixed-version elastic clusters fail typed instead of
// decoding garbage), and what it can decode (capability bitmask), so a newer
// node can downgrade to the common capability set instead of wedging an
// older peer mid-collective.
//
//	offset  size  field
//	     0     4  magic "RNA1"
//	     4     1  protocol version
//	     5     3  reserved (zero)
//	     8     8  capability bitmask
//	    16     4  sender rank
//
// Negotiation: the connection speaks min(version_a, version_b), which both
// ends compute independently; each side's effective capability set is the
// AND of the two masks. A magic mismatch, short read, or version below the
// oldest this build supports rejects the connection with ErrVersionMismatch.

// helloMagic is "RNA1" read as a little-endian u32 — the first four bytes on
// every conforming connection.
const helloMagic uint32 = 'R' | 'N'<<8 | 'A'<<16 | '1'<<24

// helloBytes is the fixed hello size.
const helloBytes = 20

// Caps is the capability bitmask exchanged in the hello: what a peer's
// decoder understands beyond the v1 baseline (dense f64 frames on stream 0).
type Caps uint64

// Capability bits. Bits 0–2 advertised the f32, f16 and i8 payload
// encodings of earlier builds; they are reserved, never reused, so a hello
// from such a build negotiates down to the bits both sides share.
const (
	// CapSparse — decodes sparse (index+value) top-k frames.
	CapSparse Caps = 1 << (iota + 3)
	// CapStreams — routes frames by the header stream id (without it, only
	// stream 0 may be used toward this peer).
	CapStreams
	// CapPS — decodes the parameter-server frame family (push / pull /
	// push-pull / ack). Peers built before the PS service treat those
	// types as malformed frames, so a send toward a peer without this bit
	// is rejected typed instead of poisoning its decoder.
	CapPS
)

// CapsAll is every capability this build implements — the default advertised
// set.
const CapsAll = CapSparse | CapStreams | CapPS

// String lists the set bits for diagnostics.
func (c Caps) String() string {
	if c == 0 {
		return "none"
	}
	names := []struct {
		bit  Caps
		name string
	}{{CapSparse, "sparse"}, {CapStreams, "streams"}, {CapPS, "ps"}}
	out := ""
	for _, n := range names {
		if c&n.bit != 0 {
			if out != "" {
				out += "+"
			}
			out += n.name
		}
	}
	if rest := c &^ CapsAll; rest != 0 {
		if out != "" {
			out += "+"
		}
		out += fmt.Sprintf("unknown(%#x)", uint64(rest))
	}
	return out
}

// ErrVersionMismatch is returned when a peer does not speak a compatible
// frame protocol: wrong magic (not a mesh peer at all), a version this build
// cannot serve, or a hello cut short.
var ErrVersionMismatch = errors.New("transport: incompatible protocol version")

// ErrCapability is returned when a send requires a capability the negotiated
// connection lacks — e.g. a sparse frame toward a peer that never learned to
// decode one, or a non-zero stream id toward a peer without stream routing.
var ErrCapability = errors.New("transport: peer lacks required capability")

// putHello encodes a hello into b (helloBytes long).
func putHello(b []byte, version uint8, caps Caps, rank int) {
	binary.LittleEndian.PutUint32(b[0:], helloMagic)
	b[4] = version
	b[5], b[6], b[7] = 0, 0, 0
	binary.LittleEndian.PutUint64(b[8:], uint64(caps))
	binary.LittleEndian.PutUint32(b[16:], uint32(rank))
}

// parseHello validates and decodes a peer hello.
func parseHello(b []byte) (version uint8, caps Caps, rank int32, err error) {
	if magic := binary.LittleEndian.Uint32(b[0:]); magic != helloMagic {
		return 0, 0, 0, fmt.Errorf("%w: bad magic %#08x (not a mesh peer?)", ErrVersionMismatch, magic)
	}
	version = b[4]
	caps = Caps(binary.LittleEndian.Uint64(b[8:]))
	rank = int32(binary.LittleEndian.Uint32(b[16:]))
	return version, caps, rank, nil
}

// helloTimeout bounds the hello exchange on a fresh connection, so a peer
// that connects and goes silent (or a non-protocol service that never
// writes) cannot wedge mesh construction.
const helloTimeout = 10 * time.Second

// exchangeHello performs the symmetric hello on a fresh connection: write
// ours, read theirs, negotiate. Returns the peer's rank, the connection's
// version (min of both) and effective caps (AND of both).
func exchangeHello(conn net.Conn, version uint8, caps Caps, rank int) (peer int32, negVersion uint8, negCaps Caps, err error) {
	_ = conn.SetDeadline(time.Now().Add(helloTimeout))
	defer func() { _ = conn.SetDeadline(time.Time{}) }()

	var ours [helloBytes]byte
	putHello(ours[:], version, caps, rank)
	if _, err := conn.Write(ours[:]); err != nil {
		return 0, 0, 0, fmt.Errorf("transport: send hello: %w", err)
	}
	var theirs [helloBytes]byte
	if _, err := io.ReadFull(conn, theirs[:]); err != nil {
		// A short hello (peer hung up after a partial write, or sent fewer
		// bytes than a hello and closed) is a protocol mismatch, not a
		// transient I/O condition: nothing valid can follow.
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, 0, 0, fmt.Errorf("%w: short hello: %v", ErrVersionMismatch, err)
		}
		return 0, 0, 0, fmt.Errorf("transport: read hello: %w", err)
	}
	peerVersion, peerCaps, peerRank, err := parseHello(theirs[:])
	if err != nil {
		return 0, 0, 0, err
	}
	negVersion = version
	if peerVersion < negVersion {
		negVersion = peerVersion
	}
	if negVersion < ProtocolV1 {
		return 0, 0, 0, fmt.Errorf("%w: peer speaks v%d, this build serves v%d..v%d",
			ErrVersionMismatch, peerVersion, ProtocolV1, version)
	}
	return peerRank, negVersion, caps & peerCaps, nil
}

// CapsProvider is an optional Mesh capability: Caps reports the capability
// set every peer of this endpoint supports (the AND over its connections,
// including the endpoint's own). Meshes without negotiation (in-memory)
// support everything.
type CapsProvider interface {
	Caps() Caps
}

// MeshCaps returns the capability set usable across every rank of m. On a
// fully connected negotiated mesh each endpoint's AND includes every rank's
// advertised set, so all SPMD ranks compute the same value and can branch on
// it consistently (e.g. the collective layer falls back from sparse top-k to
// a dense schedule when any rank lacks CapSparse). Meshes that do not
// negotiate support everything.
func MeshCaps(m Mesh) Caps {
	type parented interface{ Parent() Mesh }
	for {
		if cp, ok := m.(CapsProvider); ok {
			return cp.Caps()
		}
		p, ok := m.(parented)
		if !ok {
			return CapsAll
		}
		m = p.Parent()
	}
}
