package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// Connection hello.
//
// A TCP mesh connection opens with a symmetric hello exchange: both ends
// send a fixed 20-byte hello and read the peer's, before any frame flows.
// The hello pins what the pre-v1 handshake (a bare 4-byte rank) left
// implicit: that the peer speaks this protocol at all (magic), and WHICH
// version it speaks, so mixed-version clusters fail typed instead of
// decoding garbage.
//
//	offset  size  field
//	     0     4  magic "RNA1"
//	     4     1  protocol version
//	     5     3  reserved (zero)
//	     8     8  reserved (zero; earlier builds sent a capability mask here)
//	    16     4  sender rank
//
// The connection speaks min(version_a, version_b), which both ends compute
// independently. A magic mismatch, short read, or version below the oldest
// this build supports rejects the connection with ErrVersionMismatch. Bytes
// 8–15 are written as zero and never read, so a hello from a build that
// still filled them parses at the same offsets.

// helloMagic is "RNA1" read as a little-endian u32 — the first four bytes on
// every conforming connection.
const helloMagic uint32 = 'R' | 'N'<<8 | 'A'<<16 | '1'<<24

// helloBytes is the fixed hello size.
const helloBytes = 20

// ErrVersionMismatch is returned when a peer does not speak a compatible
// frame protocol: wrong magic (not a mesh peer at all), a version this build
// cannot serve, or a hello cut short.
var ErrVersionMismatch = errors.New("transport: incompatible protocol version")

// putHello encodes a hello into b (helloBytes long).
func putHello(b []byte, version uint8, rank int) {
	clear(b[:helloBytes])
	binary.LittleEndian.PutUint32(b[0:], helloMagic)
	b[4] = version
	binary.LittleEndian.PutUint32(b[16:], uint32(rank))
}

// parseHello validates and decodes a peer hello.
func parseHello(b []byte) (version uint8, rank int32, err error) {
	if magic := binary.LittleEndian.Uint32(b[0:]); magic != helloMagic {
		return 0, 0, fmt.Errorf("%w: bad magic %#08x (not a mesh peer?)", ErrVersionMismatch, magic)
	}
	return b[4], int32(binary.LittleEndian.Uint32(b[16:])), nil
}

// helloTimeout bounds the hello exchange on a fresh connection, so a peer
// that connects and goes silent (or a non-protocol service that never
// writes) cannot wedge mesh construction.
const helloTimeout = 10 * time.Second

// exchangeHello performs the symmetric hello on a fresh connection: write
// ours, advertising version, read theirs, negotiate. Returns the peer's rank
// and the connection's version (the min of both).
func exchangeHello(conn net.Conn, version uint8, rank int) (peer int32, negVersion uint8, err error) {
	_ = conn.SetDeadline(time.Now().Add(helloTimeout))
	defer func() { _ = conn.SetDeadline(time.Time{}) }()

	var ours [helloBytes]byte
	putHello(ours[:], version, rank)
	if _, err := conn.Write(ours[:]); err != nil {
		return 0, 0, fmt.Errorf("transport: send hello: %w", err)
	}
	var theirs [helloBytes]byte
	if _, err := io.ReadFull(conn, theirs[:]); err != nil {
		// A short hello (peer hung up after a partial write, or sent fewer
		// bytes than a hello and closed) is a protocol mismatch, not a
		// transient I/O condition: nothing valid can follow.
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, 0, fmt.Errorf("%w: short hello: %v", ErrVersionMismatch, err)
		}
		return 0, 0, fmt.Errorf("transport: read hello: %w", err)
	}
	peerVersion, peerRank, err := parseHello(theirs[:])
	if err != nil {
		return 0, 0, err
	}
	negVersion = min(version, peerVersion)
	if negVersion < ProtocolV1 {
		return 0, 0, fmt.Errorf("%w: peer speaks v%d, this build serves v%d..v%d",
			ErrVersionMismatch, peerVersion, ProtocolV1, version)
	}
	return peerRank, negVersion, nil
}
