package collective

import (
	"fmt"

	"repro/internal/tensor"
	"repro/internal/transport"
)

// Binomial-tree AllReduce: reduce-to-root up a binomial tree rooted at rank
// 0, then the existing binomial-tree Broadcast back down. Both phases take
// ⌈log2 N⌉ steps but move the FULL vector at every step, so the schedule is
// only competitive for tiny tensors where per-message latency dominates and
// the 2·⌈log2 N⌉·S byte volume is irrelevant; its virtue there is having
// the fewest total messages (2(N−1)) of any dense schedule. The auto
// selector (costmodel.go) picks it in exactly that regime.
//
// Determinism: the root accumulates children in ascending span order —
// a fixed order — and every rank receives the root's finished bytes via the
// broadcast, so all ranks end bit-identical.

// TreePath is the binomial tree's critical path across n ranks for a
// payload of the given bytes: ⌈log₂N⌉ reduce-to-root hops, then ⌈log₂N⌉
// broadcast hops, each ship the whole vector. Like RingPath, it is the one
// description both pricers evaluate.
func TreePath(n int, bytes int64) [2]Hop {
	steps := ceilLog2(n)
	return [2]Hop{{Msgs: steps, Bytes: bytes}, {Msgs: steps, Bytes: bytes}}
}

// TreeAllReduce reduces v in place across all ranks of m via binomial-tree
// reduce + broadcast. All ranks must pass vectors of equal length and the
// same iter; results are identical on every rank.
func TreeAllReduce(m transport.Mesh, iter int64, v tensor.Vector, op ReduceOp) error {
	n := m.Size()
	if n == 1 {
		return nil
	}
	rank := m.Rank()

	// Reduce phase: the mirror of Broadcast's doubling schedule. At span s
	// a rank whose bit s is its lowest set bit sends its partial sum to
	// rank−s and goes quiet; ranks with bit s clear absorb rank+s (when it
	// exists). Rank 0 ends holding the full reduction.
	for span := 1; span < n; span <<= 1 {
		if rank&span != 0 {
			if err := m.Send(rank-span, transport.Message{
				Type: transport.MsgReduce, Iter: iter, Chunk: int32(span), Payload: v,
			}); err != nil {
				return fmt.Errorf("tree reduce send: %w", err)
			}
			break
		}
		child := rank + span
		if child >= n {
			continue
		}
		if _, err := land(m, child, "tree-reduce", transport.Landing{
			Type: transport.MsgReduce, Iter: iter, Chunk: int32(span), Dst: v, Add: true,
		}); err != nil {
			return err
		}
	}

	// Scale at the root so the broadcast distributes the finished bytes.
	if rank == 0 && op == OpAverage {
		v.Scale(1 / float64(n))
	}
	return Broadcast(m, iter, v, 0)
}
