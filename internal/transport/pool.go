package transport

import (
	"math/bits"
	"sync"
)

// Payload buffer pooling.
//
// Every message delivered through a Mesh carries a payload the receiver
// owns: the in-memory mesh copies the sender's slice on Send (so the sender
// may keep mutating its buffers) and the TCP mesh materializes one slice per
// message read off the wire that RecvInto does not land. Without this pool,
// both paths would allocate a fresh slice per message.
//
// Ownership contract:
//
//   - Send never takes ownership of m.Payload; the caller may reuse its
//     buffer immediately after Send returns. Every mesh either copies the
//     payload or has written it to the socket by then.
//   - The payload in a message returned by Recv is owned by the receiver.
//     When the receiver is done with it, it MAY hand it back with
//     PutPayload; holding it forever is also fine (the pool just misses).
//     After PutPayload the slice must not be touched — it will be handed to
//     a future GetPayload caller.
//   - Buffers returned by GetPayload hold arbitrary stale data; callers
//     must overwrite (or zero) every element they read.
//
// The pool is bucketed by power-of-two capacity so mixed message sizes
// (full gradients, ring chunks, parameter-server chunks) do not poison each
// other: class c holds slices with cap ≥ 1<<c, Get rounds the request up,
// Put files a slice under the largest class its capacity covers.

// minPooledElems is the smallest buffer the pools hold. Requests below it
// are rounded UP to this capacity and served from the smallest class: tiny
// payloads (ring chunks of a few elements, control-sized frames) are the
// per-message steady state of small-tensor collectives, and handing them a
// pooled 64-element buffer keeps the receive path at zero allocations where
// an exact-size make would allocate per message.
const minPooledElems = 64

// minPoolClass is the class that holds minPooledElems-capacity buffers.
const minPoolClass = 6

// maxPoolClass covers MaxPayloadElems (16M elems = 1<<24).
const maxPoolClass = 24

var payloadPools [maxPoolClass + 1]sync.Pool

// headerPool recycles the *[]float64 boxes the payload pools store, so a
// PutPayload does not allocate a fresh 24-byte slice header on every
// release (the classic sync.Pool interface-boxing trap).
var headerPool sync.Pool

// poolClass returns the smallest class whose buffers hold n elements.
func poolClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// GetPayload returns a float64 slice of length n, recycled when possible.
// Contents are NOT zeroed.
func GetPayload(n int) []float64 {
	if n == 0 {
		return nil
	}
	c := poolClass(n)
	if c > maxPoolClass {
		return make([]float64, n)
	}
	if c < minPoolClass {
		c = minPoolClass // round tiny requests up to the smallest class
	}
	if hp, ok := payloadPools[c].Get().(*[]float64); ok {
		p := *hp
		*hp = nil
		headerPool.Put(hp)
		return p[:n]
	}
	return make([]float64, n, 1<<c)
}

// PutPayload recycles p for a future GetPayload. Small, nil, or oversized
// slices are dropped silently, so it is always safe to call on a payload of
// unknown provenance — but never on one that is still referenced elsewhere.
func PutPayload(p []float64) {
	c := capClass(cap(p))
	if c < 0 {
		return
	}
	hp, _ := headerPool.Get().(*[]float64)
	if hp == nil {
		hp = new([]float64)
	}
	*hp = p[:cap(p)]
	payloadPools[c].Put(hp)
}

// capClass returns the pool class a slice of capacity c can serve, or -1 if
// it is not poolable. A buffer of capacity c serves any request n ≤ c, so it
// files under floor(log2(c)): every Get from that class needs ≤ 1<<class
// elements.
func capClass(c int) int {
	if c < minPooledElems {
		return -1
	}
	class := bits.Len(uint(c)) - 1
	if class > maxPoolClass {
		return -1
	}
	return class
}
