// Package collective implements decentralized collective operations over a
// transport.Mesh: the bandwidth-optimal ring AllReduce of Section 2.2
// (scatter-reduce + allgather), the partial AllReduce RNA builds on (null
// contributions from stragglers, contributor counting), and a binomial-tree
// broadcast used by the hierarchical synchronizer.
//
// All operations are SPMD: every rank calls the same function with its own
// mesh endpoint, and the call returns when that rank's part completes.
package collective

import (
	"errors"
	"fmt"

	"repro/internal/tensor"
	"repro/internal/transport"
)

// ReduceOp selects the AllReduce reduction.
type ReduceOp int

// Supported reductions.
const (
	// OpSum leaves the element-wise sum in the output.
	OpSum ReduceOp = iota + 1
	// OpAverage divides the element-wise sum by the rank count.
	OpAverage
)

// ErrProtocol is returned when a received message does not match the
// collective's expected step (wrong iteration or chunk), which indicates
// interleaved collectives on one mesh.
var ErrProtocol = errors.New("collective: protocol violation")

// RingAllReduce reduces v in place across all ranks of m using the ring
// schedule: N−1 scatter-reduce steps, each sending one 1/N chunk to the
// left neighbor while reducing the chunk arriving from the right, followed
// by N−1 allgather steps circulating the fully reduced chunks. iter tags
// the messages so concurrent iterations cannot be confused.
//
// The schedule is pipelined (see ring.go): each step's sends overlap its
// receives, and large chunks travel as several segments so reduction
// compute hides behind transfer. Results are bit-identical to the serial
// schedule.
func RingAllReduce(m transport.Mesh, iter int64, v tensor.Vector, op ReduceOp) error {
	return ringAllReduce(m, iter, v, op, 0, tensor.F64, nil)
}

// RingAllReduceSegmented is RingAllReduce with an explicit pipeline depth:
// each ring chunk travels as `segments` back-to-back messages. segments <= 0
// selects the depth automatically (the RingAllReduce default). All ranks
// must pass the same depth.
func RingAllReduceSegmented(m transport.Mesh, iter int64, v tensor.Vector, op ReduceOp, segments int) error {
	return ringAllReduce(m, iter, v, op, segments, tensor.F64, nil)
}

// PartialResult is the outcome of a partial AllReduce.
type PartialResult struct {
	// Sum is the element-wise sum over contributing ranks only.
	Sum tensor.Vector
	// Contributors is Σ w_{k,i}: how many ranks contributed a real
	// gradient (the rest supplied nulls). Zero means nobody had data.
	Contributors int
}

// Release hands Sum's backing buffer back to the transport pool. Callers
// that are done with Sum should release it — the partial collective runs
// once per training step on every rank, and releasing makes that steady
// state allocation-free. After Release the Sum slice must not be touched.
//
// Release is idempotent: it nils Sum out, so releasing the same result
// twice is a no-op rather than a double PutPayload that would hand one
// buffer out to two future callers and silently corrupt the pool's free
// list. (Releasing two COPIES of one result is still a double free — keep
// a single owning PartialResult per collective.)
func (r *PartialResult) Release() {
	if r.Sum != nil {
		transport.PutPayload(r.Sum)
		r.Sum = nil
		r.Contributors = 0
	}
}

// PartialRingAllReduce performs the paper's partial AllReduce: ranks with
// contributes=false take part in the communication graph with a null
// (zero) gradient, exactly as Section 2.3.2 describes, so the ring schedule
// is unchanged. The reduction also counts contributors, giving every rank
// the weight W = 1/Σw needed for the weighted average of Algorithm 2.
//
// v is not modified; the summed gradient is returned in PartialResult.Sum,
// which lives in a pooled scratch buffer — call Release when done with it.
func PartialRingAllReduce(m transport.Mesh, iter int64, v tensor.Vector, contributes bool) (PartialResult, error) {
	// The contribution flag piggybacks as one extra element so the count
	// is reduced by the same pass as the data (see partialAllReduce).
	return partialAllReduce(m, iter, v, contributes, Options{Algorithm: AlgoRing})
}

// Broadcast distributes root's v to all ranks via a binomial tree rooted at
// root. On non-root ranks v is overwritten with the received data; all
// ranks must pass a v of equal length.
func Broadcast(m transport.Mesh, iter int64, v tensor.Vector, root int) error {
	return broadcast(m, iter, v, root, tensor.F64)
}

// broadcast is Broadcast with a wire dtype. The root must already hold
// quantized (grid) values when wire is lossy — every relay then re-encodes
// the full vector it decoded, which is exact by idempotence, so all ranks
// finish with the root's bytes.
func broadcast(m transport.Mesh, iter int64, v tensor.Vector, root int, wire tensor.Dtype) error {
	n := m.Size()
	if n == 1 {
		return nil
	}
	if root < 0 || root >= n {
		return fmt.Errorf("collective: broadcast root %d of %d", root, n)
	}
	// Work in a rotated space where the root is rank 0.
	vrank := mod(m.Rank()-root, n)

	// Receive phase: every non-root rank receives exactly once, from the
	// parent that covers it in the doubling schedule.
	if vrank != 0 {
		// The parent of vrank is vrank with its highest set bit cleared.
		parent := vrank &^ highestBit(vrank)
		src := mod(parent+root, n)
		msg, err := m.Recv(src)
		if err != nil {
			return fmt.Errorf("broadcast recv: %w", err)
		}
		if err := checkMsg("broadcast", msg, transport.MsgBroadcast, iter, 0); err != nil {
			transport.PutPayload(msg.Payload)
			return err
		}
		err = v.CopyFrom(msg.Payload)
		transport.PutPayload(msg.Payload)
		if err != nil {
			return fmt.Errorf("broadcast copy: %w", err)
		}
	}

	// Send phase: forward to children vrank+span for doubling spans.
	span := highestBit(vrank)
	if vrank == 0 {
		span = 1
	} else {
		span <<= 1
	}
	for ; span < n; span <<= 1 {
		child := vrank + span
		if child >= n {
			break
		}
		dst := mod(child+root, n)
		if err := m.Send(dst, transport.Message{
			Type:    transport.MsgBroadcast,
			Iter:    iter,
			Dtype:   wire,
			Payload: v,
		}); err != nil {
			return fmt.Errorf("broadcast send: %w", err)
		}
	}
	return nil
}

// mod returns a (mod n) normalized to [0, n).
func mod(a, n int) int {
	return ((a % n) + n) % n
}

// highestBit returns the highest power of two not exceeding x; 0 for x<=0.
func highestBit(x int) int {
	if x <= 0 {
		return 0
	}
	b := 1
	for b<<1 <= x {
		b <<= 1
	}
	return b
}
