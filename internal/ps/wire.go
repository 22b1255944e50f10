package ps

import (
	"errors"
	"fmt"
)

// PS wire protocol (protocol v1 frame family, on stream PSStream).
//
// A parameter-server exchange is chunked: the model splits into Chunks
// spans by the collective layer's ShardOffsets table, and every chunk
// travels as its own request frame so the server can publish — and the
// client can consume — early chunks while later ones are still in flight.
// All PS traffic runs on the reserved stream PSStream, so it never collides
// with collective frames multiplexed over the same mesh.
//
// Frame field assignments (on top of the v1 header, message.go):
//
//	request  (MsgPSPushPull, type 7)
//	    Iter    version horizon: the server delays the request until the
//	            chunk's published version is ≥ Iter (0 = no wait). This is
//	            what makes the deterministic OrderedPS hierarchy possible
//	            over a network.
//	    Chunk   psTag(mode, chunk): update mode (Overwrite 1, Add 2) in
//	            the high bits, chunk index in the low 24
//	    Dtype   f64; a request naming another dtype ends the sender's
//	            service with ErrBadRequest
//	    Payload pushed values, the chunk's span
//
//	response (MsgPSAck, type 8)
//	    Iter    the chunk's new version
//	    Chunk   echo of the request tag
//	    Payload the chunk's post-update values
//
// Types 5 and 6 once carried push-only and pull-only requests, and mode 3
// the retired averaging update; a frame of either type, like any other, and a
// tag naming mode 3, like any mode but 1 and 2, end the sender's service
// with ErrBadRequest.
//
// Responses carry the version in the iteration tag rather than as a
// trailing payload element. Requests from one client are handled in FIFO order per
// server, so acks match requests positionally; the echoed tag is a
// cross-check, not a router.

// ErrBadRequest is the error a Server stops serving a peer with when one of
// its frames is not a well-formed request: a forged tag, a chunk outside the
// table, a payload whose length does not match its chunk, a tag without an
// update mode (Overwrite or Add), a dtype other than f64, or a frame of
// another type.
// Server.Wait reports it wrapped.
var ErrBadRequest = errors.New("ps: bad request")

// PSStream is the reserved stream id all parameter-server frames travel
// on. It sits far above the collectives' default stream, so PS and
// collective traffic multiplexed over one mesh cannot collide.
const PSStream int32 = 1 << 16

// chunkTagBits is the width of the chunk-index field inside the chunk tag;
// the update mode rides in the bits above it.
const chunkTagBits = 24

// MaxChunks bounds a PS deployment's chunk count (the tag's index field).
const MaxChunks = 1 << chunkTagBits

// psTag packs an update mode and a chunk index into the frame's chunk tag.
func psTag(mode UpdateMode, chunk int) int32 {
	return int32(mode)<<chunkTagBits | int32(chunk)
}

// splitTag unpacks a chunk tag. The mode is validated against the known
// update modes; the chunk index is validated by the caller against its
// offset table.
func splitTag(tag int32) (UpdateMode, int, error) {
	if tag < 0 {
		return 0, 0, fmt.Errorf("%w: negative chunk tag %d", ErrBadRequest, tag)
	}
	mode := UpdateMode(tag >> chunkTagBits)
	if mode < Overwrite || mode > maxUpdateMode {
		return 0, 0, fmt.Errorf("%w: update mode %d in chunk tag", ErrBadRequest, mode)
	}
	return mode, int(tag & (MaxChunks - 1)), nil
}

// chunkKeys precomputes the store keys the logical key's chunks live
// under, "key#c", so the request hot path never formats strings.
func chunkKeys(key string, chunks int) []string {
	keys := make([]string, chunks)
	for c := range keys {
		keys[c] = fmt.Sprintf("%s#%d", key, c)
	}
	return keys
}
