package collective

import (
	"fmt"

	"repro/internal/tensor"
	"repro/internal/transport"
)

// The uniform ring pair: the two halves of the ring AllReduce as separate
// calls, so an owner-computes update can step the optimizer between them.
//
// The direct exchange in shard.go handles arbitrary ownership tables in one
// send round, but it copies every one of the n−1 spans at both ends and folds
// with strided modular indexing. On the ring each hop lands the received
// chunk in v — folded in (scatter) or copied (gather) by transport.RecvInto,
// straight off the socket where the mesh can — and the next hop sends that
// span of v with a plain Send: the TCP mesh aliases it in the writev and has
// flushed it when Send returns, the in-memory mesh copies. No buffer rotates
// and nothing is staged, and the pair ships exactly the fused ring's 2(n−1)
// chunks per rank, one frame each.
//
// The owner is where the ring completes the chunk. Chunk c starts at rank c
// and travels c, c+1, …, c−1, each hop adding the partial sum it receives
// into its own segment of v (v + payload has the bits of payload + v), so it
// completes at rank c−1: rank r owns uniform chunk (r+1) mod n (RingOwned),
// the chunk the fused ring also completes at r.
// That fold order — every element left-associatively from its uniform chunk
// index around the ring — is the fused ring's and the direct exchange's, and
// it is the whole bit-identity argument: which rank holds the completed sum
// changes nothing about how it was summed. An earlier version kept "rank r
// owns span r" and paid for it with an n-th hop delivering the chunk from rank
// c−1 to rank c; DESIGN.md, "Sharded optimizer", has what that hop cost.
//
// Compression follows the owner-quantize contract of the direct exchange: the
// owner round-trips its chunk once (capturing the error-feedback residual),
// and forwarded buffers already sit on the quantization grid, so re-encoding
// them on the next hop is exact by idempotence.

// RingOwned returns the span of a total-element vector that rank owns under
// the ring pair: uniform chunk (rank+1) mod n.
func RingOwned(total, n, rank int) (lo, hi int) {
	lo, hi, _ = tensor.ChunkBounds(total, n, (rank+1)%n)
	return lo, hi
}

// RingReduceScatter reduces v across all ranks of m on the ring and leaves
// rank r holding the fully reduced (and, for OpAverage, scaled) span
// RingOwned(len(v), n, r). Only that span is defined afterwards: the rest of
// v holds partial sums the chunks picked up on their way through this rank.
// It ships exact fp64 and, followed by RingAllGather, is bit-identical to
// RingAllReduce.
func RingReduceScatter(m transport.Mesh, iter int64, v tensor.Vector, op ReduceOp) error {
	if op != OpSum && op != OpAverage {
		return fmt.Errorf("collective: unknown reduce op %d", op)
	}
	n := m.Size()
	if n == 1 {
		return nil
	}
	if _, err := ringScatter(m, iter, v, false, 0); err != nil {
		return err
	}
	if op == OpAverage {
		// Owner-side scale, identical to the fused ring's.
		lo, hi := RingOwned(len(v), n, m.Rank())
		v[lo:hi].Scale(1 / float64(n))
	}
	return nil
}

// PartialRingReduceScatter is RingReduceScatter with RNA's partial
// participation, on the flag-extended vector PartialAllReduceInPlace rings
// over: work is dim data elements plus the flag slot, and the uniform chunks
// of all dim+1 elements set the fold boundaries, so every data element keeps
// the fold start it has in the replicated partial collective and finishes
// with the same bits. A rank with contributes=false joins with a null gradient
// (work is zeroed). The owned span RingOwned(len(work), n, r) holds the
// UNSCALED sum over contributors, and only it is defined afterwards; the
// caller divides by the returned count, identical on every rank.
//
// Every owner needs the count before it steps and only the last chunk holds
// the flag slot, so each scatter message carries, as its one-element tail
// (transport.Message.Tail), the count of contributors among the ranks it has
// visited: a chunk visits all n on its way to its owner, and no extra round
// is needed.
func PartialRingReduceScatter(m transport.Mesh, iter int64, work tensor.Vector, contributes bool) (int, error) {
	dim := len(work) - 1
	if dim < 0 {
		return 0, fmt.Errorf("collective: partial reduce-scatter needs a flag slot, got an empty vector")
	}
	flag := 0.0
	if contributes {
		flag, work[dim] = 1, 1
	} else {
		work.Zero()
	}
	n := m.Size()
	if n == 1 {
		return int(flag), nil
	}
	count, err := ringScatter(m, iter, work, true, flag)
	return decodeCount(count, n), err
}

// ringScatter runs the scatter-reduce half of the ring over the uniform
// chunks of v: n−1 hops, each folding the received chunk into v, the last of
// which completes chunk rank+1. With trail, every message carries one tail
// element: the sum of flag over the ranks the chunk has visited, whose total
// is returned.
func ringScatter(m transport.Mesh, iter int64, v tensor.Vector, trail bool, flag float64) (float64, error) {
	n := m.Size()
	rank := m.Rank()
	if err := checkSegTagSpace(n, 2); err != nil {
		return 0, err
	}
	left := (rank + 1) % n
	right := mod(rank-1, n)
	count := flag
	for st := 0; st < n-1; st++ {
		// Step 0 sends this rank's own chunk; every later step sends the
		// chunk the previous hop folded into v.
		idx := mod(rank-st, n)
		cs, ce, _ := tensor.ChunkBounds(len(v), n, idx)
		err := m.Send(left, transport.Message{
			Type: transport.MsgChunk, Iter: iter, Chunk: skewScatterTag(idx),
			Payload: v[cs:ce], Tail: count, HasTail: trail,
		})
		if err != nil {
			return 0, fmt.Errorf("reduce-scatter ring send: %w", err)
		}
		recvIdx := mod(idx-1, n)
		rs, re, _ := tensor.ChunkBounds(len(v), n, recvIdx)
		visited, err := land(m, right, "reduce-scatter", transport.Landing{
			Type: transport.MsgChunk, Iter: iter, Chunk: skewScatterTag(recvIdx),
			Dst: v[rs:re], HasTail: trail, Add: true,
		})
		if err != nil {
			return 0, err
		}
		count = visited + flag
	}
	return count, nil
}

// RingAllGather distributes each rank's owned span RingOwned(len(v), n, rank)
// of v to every peer on the ring, so all ranks finish with identical vectors:
// rank r sends its chunk at step 0, and every later hop lands the received
// chunk in v and sends it on from there. opts carries the wire dtype and the
// owner's error-feedback residual, as for AllGather.
func RingAllGather(m transport.Mesh, iter int64, v tensor.Vector, opts Options) error {
	if err := checkGatherOpts(opts, len(v)); err != nil {
		return err
	}
	n := m.Size()
	if n == 1 {
		return nil
	}
	rank := m.Rank()
	if err := checkSegTagSpace(n, 2); err != nil {
		return err
	}
	wire := opts.Compression
	left := (rank + 1) % n
	right := mod(rank-1, n)
	lo, hi := RingOwned(len(v), n, rank)
	quantizeOwned(wire, v[lo:hi], opts.Residual, lo)
	for st := 0; st < n-1; st++ {
		// Step 0 sends the owned chunk; every later step sends the chunk that
		// just landed, already on the wire's grid, so re-encoding it is exact.
		idx := mod(rank+1-st, n)
		cs, ce, _ := tensor.ChunkBounds(len(v), n, idx)
		err := m.Send(left, transport.Message{
			Type: transport.MsgChunk, Iter: iter, Chunk: skewGatherTag(n, idx), Dtype: wire, Payload: v[cs:ce],
		})
		if err != nil {
			return fmt.Errorf("allgather ring send: %w", err)
		}
		recvIdx := mod(idx-1, n)
		rs, re, _ := tensor.ChunkBounds(len(v), n, recvIdx)
		if _, err := land(m, right, "allgather", transport.Landing{
			Type: transport.MsgChunk, Iter: iter, Chunk: skewGatherTag(n, recvIdx), Dst: v[rs:re],
		}); err != nil {
			return err
		}
	}
	return nil
}
