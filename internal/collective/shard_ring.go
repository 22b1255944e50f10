package collective

import (
	"fmt"
	"math"

	"repro/internal/tensor"
	"repro/internal/transport"
)

// The ring: RingAllReduce is RingReduceScatter then RingAllGather, and an
// owner-computes update calls the two halves itself so it can step the
// optimizer between them.
//
// On the ring each hop lands the received chunk in v — folded in (scatter)
// or copied (gather) by transport.RecvInto, straight off the socket where
// the mesh can — and the next hop sends that span of v with a plain Send:
// the TCP mesh aliases it in the writev and has flushed it when Send
// returns, the in-memory mesh copies. No buffer rotates, nothing is staged
// and no goroutine is started: each rank ships 2(n−1) chunks, one frame
// each.
//
// The owner is where the ring completes the chunk. Chunk c starts at rank c
// and travels c, c+1, …, c−1, each hop adding the partial sum it receives
// into its own span of v (v + payload has the bits of payload + v), so it
// completes at rank c−1: rank r owns uniform chunk (r+1) mod n (RingOwned).
// That fold order — every element left-associatively from its uniform chunk
// index around the ring — is the serial ring's, and it is the whole
// bit-identity argument: for OpAverage the owner scales its completed chunk
// by 1/n before the gather, which has the bits of scaling after it.
// TestRingMatchesReference holds every rank to a scalar replay of that order.
// An earlier version kept "rank r owns span r" and paid for it with an n-th
// hop delivering the chunk from rank c−1 to rank c; DESIGN.md, "Sharded
// optimizer", has what that hop cost.
//
// Ownership tables. Each call of the pair takes an optional table: n+1
// nondecreasing offsets from 0 to len(v), part i being table[i]:table[i+1].
// Part i travels the ring exactly as uniform chunk i does, so rank r still
// owns part (r+1) mod n; only the boundaries move, and parts may be empty.
// No table means the uniform chunks, and RingAllReduce's bits. Under any
// other table an element's fold starts at the rank of its part instead of
// its uniform chunk, which moves its bits from three ranks up; at two ranks
// each element is one addition, a + b = b + a, so every table gives the bits
// of every other (and of the tree).

// RingPath is the ring's critical path across n ranks for a payload of the
// given bytes: the N−1 reduce-scatter steps, then the N−1 allgather steps,
// each ship one chunk (a 1/N share, cut to the byte). This is the only
// description of the schedule's cost: CostModel and the simulator's
// workload.CommModel both evaluate it.
func RingPath(n int, bytes int64) [2]Hop {
	if n <= 1 {
		return [2]Hop{}
	}
	share := bytes / int64(n)
	return [2]Hop{{Msgs: n - 1, Bytes: share}, {Msgs: n - 1, Bytes: share}}
}

// RingAllReduce reduces v in place across all ranks of m on the ring:
// RingReduceScatter, then RingAllGather, both tagged iter. All ranks must
// pass the same iter, op and vector length; every rank finishes with the
// same bits.
func RingAllReduce(m transport.Mesh, iter int64, v tensor.Vector, op ReduceOp) error {
	if err := RingReduceScatter(m, iter, v, op); err != nil {
		return err
	}
	return RingAllGather(m, iter, v)
}

// checkTagSpace rejects rank counts whose ring tags would overflow the int32
// Chunk field: scatter frames are tagged by part (0…n−1) and gather frames by
// n plus part, so 2n must stay within MaxInt32. Without this guard distinct
// parts would silently alias onto one tag and defeat the protocol checks.
func checkTagSpace(n int) error {
	if n < 1 || 2*int64(n) > math.MaxInt32 {
		return fmt.Errorf("%w: %d ranks exceed the int32 tag space", ErrTagOverflow, n)
	}
	return nil
}

// RingOwned returns the span of a total-element vector that rank owns under
// the ring pair: part (rank+1) mod n of table, uniform chunk (rank+1) mod n
// without one. The table is trusted: the collectives validate it.
func RingOwned(total, n, rank int, table ...int) (lo, hi int) {
	return ringPart(total, n, (rank+1)%n, table)
}

// ringPart returns part i of a total-element vector: table[i]:table[i+1],
// or uniform chunk i when table is empty.
func ringPart(total, n, i int, table []int) (lo, hi int) {
	if len(table) == 0 {
		lo, hi, _ = tensor.ChunkBounds(total, n, i)
		return lo, hi
	}
	return table[i], table[i+1]
}

// checkRingTable validates an optional ownership table against (n ranks,
// total elements).
func checkRingTable(n, total int, table []int) error {
	if len(table) == 0 {
		return nil
	}
	return checkShardOffsets(n, total, table)
}

// RingReduceScatter reduces v across all ranks of m on the ring and leaves
// rank r holding the fully reduced (and, for OpAverage, scaled) span
// RingOwned(len(v), n, r, table...). Only that span is defined afterwards:
// the rest of v holds partial sums the parts picked up on their way through
// this rank. Followed by RingAllGather over the same table, it is
// RingAllReduce when the table is absent.
func RingReduceScatter(m transport.Mesh, iter int64, v tensor.Vector, op ReduceOp, table ...int) error {
	if op != OpSum && op != OpAverage {
		return fmt.Errorf("collective: unknown reduce op %d", op)
	}
	n := m.Size()
	if n == 1 {
		return nil
	}
	if _, err := ringScatter(m, iter, v, false, 0, table); err != nil {
		return err
	}
	if op == OpAverage {
		// Owner-side scale: sum·(1/n) has the same bits here as after the
		// gather.
		lo, hi := RingOwned(len(v), n, m.Rank(), table...)
		v[lo:hi].Scale(1 / float64(n))
	}
	return nil
}

// PartialRingReduceScatter is RingReduceScatter with RNA's partial
// participation, on the flag-extended vector PartialAllReduceInPlace rings
// over: work is dim data elements plus the flag slot. Without a table the
// uniform chunks of all dim+1 elements set the fold boundaries, so every data
// element keeps the fold start it has in PartialAllReduceInPlace's ring and
// finishes with the same bits; a table covers all dim+1 elements, so the flag
// slot closes its last part. weight is what the rank's flag carries
// (setFlag). The owned span RingOwned(len(work), n, r, table...) holds the
// UNSCALED sum over contributors, and only it is defined afterwards; the
// caller divides by the returned sum of the weights, identical on every rank.
//
// Every owner needs that sum before it steps and only the last part holds
// the flag slot, so each scatter message carries, as its one-element tail
// (transport.Message.Tail), the sum of the weights of the ranks it has
// visited: a part visits all n on its way to its owner, empty or not, and no
// extra round is needed.
func PartialRingReduceScatter(m transport.Mesh, iter int64, work tensor.Vector, weight int, table ...int) (int, error) {
	if err := setFlag(work, weight, "partial reduce-scatter"); err != nil {
		return 0, err
	}
	flag := work[len(work)-1]
	if m.Size() == 1 {
		return decodeCount(flag), nil
	}
	count, err := ringScatter(m, iter, work, true, flag, table)
	return decodeCount(count), err
}

// ringScatter runs the scatter-reduce half of the ring over the parts of v:
// n−1 hops, each folding the received part into v, the last of which
// completes part rank+1. With trail, every message carries one tail element:
// the sum of flag over the ranks the part has visited, whose total is
// returned.
func ringScatter(m transport.Mesh, iter int64, v tensor.Vector, trail bool, flag float64, table []int) (float64, error) {
	n := m.Size()
	rank := m.Rank()
	if err := checkTagSpace(n); err != nil {
		return 0, err
	}
	if err := checkRingTable(n, len(v), table); err != nil {
		return 0, err
	}
	left := (rank + 1) % n
	right := mod(rank-1, n)
	count := flag
	for st := 0; st < n-1; st++ {
		// Step 0 sends this rank's own chunk; every later step sends the
		// chunk the previous hop folded into v.
		idx := mod(rank-st, n)
		cs, ce := ringPart(len(v), n, idx, table)
		err := m.Send(left, transport.Message{
			Type: transport.MsgChunk, Iter: iter, Chunk: scatterTag(idx),
			Payload: v[cs:ce], Tail: count, HasTail: trail,
		})
		if err != nil {
			return 0, fmt.Errorf("reduce-scatter ring send: %w", err)
		}
		recvIdx := mod(idx-1, n)
		rs, re := ringPart(len(v), n, recvIdx, table)
		visited, err := land(m, right, "reduce-scatter", transport.Landing{
			Type: transport.MsgChunk, Iter: iter, Chunk: scatterTag(recvIdx),
			Dst: v[rs:re], HasTail: trail, Add: true,
		})
		if err != nil {
			return 0, err
		}
		count = visited + flag
	}
	return count, nil
}

// RingAllGather distributes each rank's owned span RingOwned(len(v), n, rank,
// table...) of v to every peer on the ring, so all ranks finish with identical
// vectors: rank r sends its part at step 0, and every later hop lands the
// received part in v and sends it on from there.
func RingAllGather(m transport.Mesh, iter int64, v tensor.Vector, table ...int) error {
	n := m.Size()
	if n == 1 {
		return nil
	}
	rank := m.Rank()
	if err := checkTagSpace(n); err != nil {
		return err
	}
	if err := checkRingTable(n, len(v), table); err != nil {
		return err
	}
	left := (rank + 1) % n
	right := mod(rank-1, n)
	for st := 0; st < n-1; st++ {
		// Step 0 sends the owned chunk; every later step sends the chunk that
		// just landed.
		idx := mod(rank+1-st, n)
		cs, ce := ringPart(len(v), n, idx, table)
		err := m.Send(left, transport.Message{
			Type: transport.MsgChunk, Iter: iter, Chunk: gatherTag(n, idx), Payload: v[cs:ce],
		})
		if err != nil {
			return fmt.Errorf("allgather ring send: %w", err)
		}
		recvIdx := mod(idx-1, n)
		rs, re := ringPart(len(v), n, recvIdx, table)
		if _, err := land(m, right, "allgather", transport.Landing{
			Type: transport.MsgChunk, Iter: iter, Chunk: gatherTag(n, recvIdx), Dst: v[rs:re],
		}); err != nil {
			return err
		}
	}
	return nil
}
