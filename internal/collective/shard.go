package collective

import (
	"fmt"
	"math"

	"repro/internal/tensor"
	"repro/internal/transport"
)

// First-class ReduceScatter / AllGather primitives over an ownership table:
// the direct exchange. Reduce-scatter sends each peer its span in one hop
// and the owner folds all contributions; allgather ships the completed span
// back out in one hop. An owner-computes update runs the optimizer BETWEEN
// them: reduce-scatter leaves each rank owning the fully reduced span
// offs[rank]:offs[rank+1], the owner applies its optimizer to that span only,
// and allgather ships the refreshed parameters back out.
//
// Ownership tables. offs is an n+1 prefix table: rank r owns the span
// offs[r]:offs[r+1]. Spans must be monotone and cover the vector exactly;
// ShardOffsets derives the uniform tensor.ChunkBounds table, and a bucketed
// stage clips it to each bucket's span. A nil offs selects the uniform
// table. The uniform partition on the ring schedule is a separate pair with
// its own ownership (RingReduceScatter / RingAllGather in shard_ring.go),
// which is what the training stack runs when it does not bucket.
//
// Bit-identity contract: element g is folded left-associatively in ring
// order starting from g's UNIFORM chunk index in v — regardless of which
// rank owns g under offs — so the composed ReduceScatter+AllGather produces
// the same bits as RingAllReduce under ANY table. OpAverage scales at the
// owner, exactly like the ring's fused average.
//
// Compression invariant (fp64 reduce / compressed allgather): the
// reduce-scatter always ships exact fp64 — quantizing partial sums would
// re-quantize values and break the one-quantization-per-element contract —
// while the allgather carries Options.Compression. The owner quantizes its
// completed span once, captures the error into Options.Residual at the only
// point where exact fp64 exists, and every peer decodes the identical grid
// values.

// Direct-exchange tags: scatter frames carry the owner's rank, gather frames
// n plus the owner's rank.
func scatterTag(owner int) int32   { return int32(owner) }
func gatherTag(n, owner int) int32 { return int32(n + owner) }

// ShardOffsets returns the n+1 ownership offset table over a total-element
// vector: the uniform tensor.ChunkBounds partition. It is a pure function of
// (total, n), so SPMD ranks agree on every span.
func ShardOffsets(total, n int) ([]int, error) {
	if n < 1 {
		return nil, fmt.Errorf("collective: shard offsets over %d ranks", n)
	}
	if total < 0 {
		return nil, fmt.Errorf("collective: shard offsets over %d elements", total)
	}
	offs := make([]int, n+1)
	for c := 0; c < n; c++ {
		_, end, err := tensor.ChunkBounds(total, n, c)
		if err != nil {
			return nil, err
		}
		offs[c+1] = end
	}
	return offs, nil
}

// checkShardOffsets validates an ownership table against (n ranks, total
// elements).
func checkShardOffsets(n, total int, offs []int) error {
	if len(offs) != n+1 || offs[0] != 0 || offs[n] != total {
		return fmt.Errorf("collective: shard offsets cover %d of %d elements over %d ranks", offs[len(offs)-1], total, n)
	}
	for i := 0; i < n; i++ {
		if offs[i+1] < offs[i] {
			return fmt.Errorf("collective: shard offsets not monotone at rank %d", i)
		}
	}
	return nil
}

// shardOffsetsOrUniform resolves a nil offs to the uniform table.
func shardOffsetsOrUniform(total, n int, offs []int) ([]int, error) {
	if offs != nil {
		return offs, nil
	}
	return ShardOffsets(total, n)
}

// ReduceScatter reduces v across all ranks of m and leaves each rank owning
// the fully reduced (and, for OpAverage, scaled) span offs[rank]:offs[rank+1]
// of the result. The rest of v is left with stale local values — pair with
// AllGather to complete an AllReduce. A nil offs selects the uniform
// partition. The reduction ships exact fp64 and folds in the pipelined
// ring's order, so ReduceScatter followed by AllGather is bit-identical to
// RingAllReduce under any partition.
func ReduceScatter(m transport.Mesh, iter int64, v tensor.Vector, op ReduceOp, offs []int) error {
	if op != OpSum && op != OpAverage {
		return fmt.Errorf("collective: unknown reduce op %d", op)
	}
	n := m.Size()
	if n == 1 {
		return nil
	}
	offs, err := shardOffsetsOrUniform(len(v), n, offs)
	if err != nil {
		return err
	}
	return reduceScatter(m, iter, v, op, offs, make([][]float64, n))
}

// checkGatherOpts validates the Options of an allgather over a total-element
// vector: the gather owns its schedule, so no pinned tree.
func checkGatherOpts(opts Options, total int) error {
	if opts.Algorithm != AlgoAuto && opts.Algorithm != AlgoRing {
		return fmt.Errorf("collective: allgather cannot run %v", opts.Algorithm)
	}
	if !opts.Compression.Valid() {
		return fmt.Errorf("collective: unknown compression dtype %d", opts.Compression)
	}
	if opts.Residual != nil && len(opts.Residual) != total {
		return fmt.Errorf("collective: residual length %d != vector length %d", len(opts.Residual), total)
	}
	return nil
}

// quantizeOwned round-trips the owner's span own (starting at element lo of
// the vector) through a lossy wire, in place: the values this rank keeps are
// exactly the values every peer decodes (re-encode is exact by idempotence),
// and the error-feedback residual is captured at the only point where exact
// fp64 values exist.
func quantizeOwned(wire tensor.Dtype, own, residual tensor.Vector, lo int) {
	switch {
	case wire == tensor.F64 || len(own) == 0:
	case residual != nil:
		tensor.RoundTripEF(wire, own, residual[lo:lo+len(own)])
	default:
		tensor.RoundTrip(wire, own)
	}
}

// decodeCount reads a contributor count out of the fp64 it was summed in:
// rounded, and clamped to the rank count.
func decodeCount(sum float64, n int) int {
	return min(max(int(math.Round(sum)), 0), n)
}

// AllGather distributes each rank's owned span offs[rank]:offs[rank+1] of v
// to every peer, so all ranks finish with identical vectors. A nil offs
// selects the uniform partition. opts carries the wire dtype of the
// distribution (Options.Compression; the owner quantizes its span once,
// in place, capturing the error into Options.Residual's matching span) —
// Algorithm must be AlgoAuto or AlgoRing, as the direct exchange owns the
// schedule.
func AllGather(m transport.Mesh, iter int64, v tensor.Vector, offs []int, opts Options) error {
	if err := checkGatherOpts(opts, len(v)); err != nil {
		return err
	}
	n := m.Size()
	if n == 1 {
		return nil
	}
	offs, err := shardOffsetsOrUniform(len(v), n, offs)
	if err != nil {
		return err
	}
	return allGather(m, iter, v, offs, opts.Compression, opts.Residual)
}

// PartialReduceScatter is ReduceScatter with RNA's partial-participation
// semantics: ranks with contributes=false contribute an implicit zero vector
// (their v is read-only except the owned span), and every rank returns the
// identical count of contributing ranks, learned from a flag element that
// rides every scatter message. The owned span finishes with the UNSCALED sum
// over contributors; the caller divides by the returned count (matching
// PartialAllReduce, whose Sum is also unscaled).
//
// The fold order matches the flag-extended replicated partial collective
// (partialAllReduce appends the flag as one extra element before the ring
// runs), so a sharded RNA update is bit-identical to the replicated one
// under any partition.
func PartialReduceScatter(m transport.Mesh, iter int64, v tensor.Vector, contributes bool, offs []int) (int, error) {
	n := m.Size()
	if n == 1 {
		if !contributes {
			return 0, nil
		}
		return 1, nil
	}
	offs, err := shardOffsetsOrUniform(len(v), n, offs)
	if err != nil {
		return 0, err
	}
	return partialReduceScatter(m, iter, v, contributes, offs, make([][]float64, n))
}

// foldOwnSpan folds all ranks' contributions for the span starting at global
// offset `start` in the pipelined ring's exact accumulation order: element g
// folds as v_c + v_{c+1} + … + v_{c−1} (left-associative) where c is g's
// UNIFORM chunk index under a foldTotal-element vector. foldTotal is len(v)
// for the plain collectives and len(v)+1 for the flag-extended partial
// layout — the one replicated partialAllReduce rings over.
func foldOwnSpan(own tensor.Vector, start, n, foldTotal int, srcs [][]float64) {
	c, ce := -1, 0
	for i := range own {
		for g := start + i; g >= ce; {
			c++
			_, ce, _ = tensor.ChunkBounds(foldTotal, n, c)
		}
		acc := srcs[c%n][i]
		for d := 1; d < n; d++ {
			acc += srcs[(c+d)%n][i]
		}
		own[i] = acc
	}
}

// releaseSrcs returns the first `upto`-1 received scatter payloads (indexed
// by ring distance from rank) to the transport pool.
func releaseSrcs(srcs [][]float64, rank, n, upto int) {
	for d := 1; d < upto; d++ {
		from := mod(rank-d, n)
		if srcs[from] != nil {
			transport.PutPayload(srcs[from])
			srcs[from] = nil
		}
	}
}

// reduceScatter executes the one-hop scatter + ring-order fold + owner-side
// scale. offs must be a valid n+1 table; srcs is scratch of at least n slots.
func reduceScatter(m transport.Mesh, iter int64, v tensor.Vector, op ReduceOp, offs []int, srcs [][]float64) error {
	n := m.Size()
	rank := m.Rank()
	if err := checkSegTagSpace(n, 2); err != nil {
		return err
	}
	if err := checkShardOffsets(n, len(v), offs); err != nil {
		return err
	}

	// Sends: each peer's chunk goes straight to its owner. All sends
	// complete before any receive — the TCP mesh's drain-assist protocol
	// makes an overrunning send round drain inbound frames instead of
	// deadlocking.
	for d := 1; d < n; d++ {
		to := (rank + d) % n
		if offs[to+1] == offs[to] {
			continue
		}
		if err := m.Send(to, transport.Message{
			Type:    transport.MsgChunk,
			Iter:    iter,
			Chunk:   scatterTag(to),
			Payload: v[offs[to]:offs[to+1]],
		}); err != nil {
			return fmt.Errorf("reduce-scatter send: %w", err)
		}
	}

	own := v[offs[rank]:offs[rank+1]]
	if len(own) == 0 {
		return nil
	}
	for d := 1; d < n; d++ {
		from := mod(rank-d, n)
		srcs[from] = nil
		msg, err := m.Recv(from)
		if err != nil {
			releaseSrcs(srcs, rank, n, d)
			return fmt.Errorf("reduce-scatter recv: %w", err)
		}
		if cerr := checkMsg("reduce-scatter", msg, transport.MsgChunk, iter, scatterTag(rank)); cerr != nil {
			transport.PutPayload(msg.Payload)
			releaseSrcs(srcs, rank, n, d)
			return cerr
		}
		if len(msg.Payload) != len(own) {
			transport.PutPayload(msg.Payload)
			releaseSrcs(srcs, rank, n, d)
			return fmt.Errorf("%w: reduce-scatter chunk %d elems, want %d", ErrProtocol, len(msg.Payload), len(own))
		}
		srcs[from] = msg.Payload
	}
	srcs[rank] = own
	foldOwnSpan(own, offs[rank], n, len(v), srcs)
	srcs[rank] = nil
	releaseSrcs(srcs, rank, n, n)
	if op == OpAverage {
		// Owner-side scale, identical to the ring's fused average.
		own.Scale(1 / float64(n))
	}
	return nil
}

// allGather executes the owner-side quantize + one-hop gather. offs must be
// a valid n+1 table; residual, when non-nil, must span the full vector (the
// owner's slice is used).
func allGather(m transport.Mesh, iter int64, v tensor.Vector, offs []int, wire tensor.Dtype, residual tensor.Vector) error {
	n := m.Size()
	rank := m.Rank()
	if err := checkSegTagSpace(n, 2); err != nil {
		return err
	}
	if err := checkShardOffsets(n, len(v), offs); err != nil {
		return err
	}
	own := v[offs[rank]:offs[rank+1]]
	if len(own) > 0 {
		quantizeOwned(wire, own, residual, offs[rank])
		for d := 1; d < n; d++ {
			to := (rank + d) % n
			if err := m.Send(to, transport.Message{
				Type:    transport.MsgChunk,
				Iter:    iter,
				Chunk:   gatherTag(n, rank),
				Dtype:   wire,
				Payload: own,
			}); err != nil {
				return fmt.Errorf("allgather send: %w", err)
			}
		}
	}
	for d := 1; d < n; d++ {
		from := mod(rank-d, n)
		if offs[from+1] == offs[from] {
			continue
		}
		msg, err := m.Recv(from)
		if err != nil {
			return fmt.Errorf("allgather recv: %w", err)
		}
		if cerr := checkMsg("allgather", msg, transport.MsgChunk, iter, gatherTag(n, from)); cerr != nil {
			transport.PutPayload(msg.Payload)
			return cerr
		}
		dst := v[offs[from]:offs[from+1]]
		if len(msg.Payload) != len(dst) {
			transport.PutPayload(msg.Payload)
			return fmt.Errorf("%w: allgather %d elems, want %d", ErrProtocol, len(msg.Payload), len(dst))
		}
		err = dst.CopyFrom(msg.Payload)
		transport.PutPayload(msg.Payload)
		if err != nil {
			return fmt.Errorf("allgather copy: %w", err)
		}
	}
	return nil
}

// partialReduceScatter is reduceScatter with the contributor flag riding
// every scatter message as one trailing element. Every rank sends to every
// peer — even owners of empty spans get a flag-only message — so all n ranks
// learn the identical count without an extra exchange.
func partialReduceScatter(m transport.Mesh, iter int64, v tensor.Vector, contributes bool, offs []int, srcs [][]float64) (int, error) {
	n := m.Size()
	rank := m.Rank()
	if err := checkSegTagSpace(n, 2); err != nil {
		return 0, err
	}
	if err := checkShardOffsets(n, len(v), offs); err != nil {
		return 0, err
	}
	flag := 0.0
	if contributes {
		flag = 1
	}

	// Sends: chunk + flag, ownership of the pooled buffer transfers to the
	// transport (SendOwned), so no reuse hazard with coalesced writers.
	for d := 1; d < n; d++ {
		to := (rank + d) % n
		cl := offs[to+1] - offs[to]
		buf := transport.GetPayload(cl + 1)
		if contributes {
			copy(buf, v[offs[to]:offs[to+1]])
		} else {
			tensor.Vector(buf[:cl]).Zero()
		}
		buf[cl] = flag
		if err := transport.SendOwned(m, to, transport.Message{
			Type:    transport.MsgChunk,
			Iter:    iter,
			Chunk:   scatterTag(to),
			Payload: buf,
		}); err != nil {
			return 0, fmt.Errorf("partial reduce-scatter send: %w", err)
		}
	}

	own := v[offs[rank]:offs[rank+1]]
	flagSum := flag
	for d := 1; d < n; d++ {
		from := mod(rank-d, n)
		srcs[from] = nil
		msg, err := m.Recv(from)
		if err != nil {
			releaseSrcs(srcs, rank, n, d)
			return 0, fmt.Errorf("partial reduce-scatter recv: %w", err)
		}
		if cerr := checkMsg("partial-reduce-scatter", msg, transport.MsgChunk, iter, scatterTag(rank)); cerr != nil {
			transport.PutPayload(msg.Payload)
			releaseSrcs(srcs, rank, n, d)
			return 0, cerr
		}
		if len(msg.Payload) != len(own)+1 {
			transport.PutPayload(msg.Payload)
			releaseSrcs(srcs, rank, n, d)
			return 0, fmt.Errorf("%w: partial reduce-scatter chunk %d elems, want %d", ErrProtocol, len(msg.Payload), len(own)+1)
		}
		// Flag sums are exact in fp64 for any rank count (small integers),
		// so every owner decodes the identical total in any fold order.
		flagSum += msg.Payload[len(own)]
		srcs[from] = msg.Payload
	}
	if len(own) > 0 {
		var zeros []float64
		if contributes {
			srcs[rank] = own
		} else {
			// A null contributor folds an explicit zero span so the
			// accumulation order stays exactly the replicated ring's.
			zeros = transport.GetPayload(len(own))
			tensor.Vector(zeros).Zero()
			srcs[rank] = zeros
		}
		// foldTotal is len(v)+1: the replicated partial collective rings over
		// the flag-extended vector, and matching its uniform chunk boundaries
		// keeps every data element's fold start identical.
		foldOwnSpan(own, offs[rank], n, len(v)+1, srcs)
		srcs[rank] = nil
		if zeros != nil {
			transport.PutPayload(zeros)
		}
	}
	releaseSrcs(srcs, rank, n, n)
	return decodeCount(flagSum, n), nil
}
