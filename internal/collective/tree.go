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
// The two phases are callable as halves, like the ring's: TreeReduce leaves
// the finished vector at rank 0, its one owner, and Broadcast from rank 0
// distributes whatever the root made of it — a training stack steps the
// parameters between them.
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
// reduce + broadcast: TreeReduce, then Broadcast from rank 0. All ranks must
// pass vectors of equal length and the same iter; results are identical on
// every rank.
func TreeAllReduce(m transport.Mesh, iter int64, v tensor.Vector, op ReduceOp) error {
	if err := TreeReduce(m, iter, v, op); err != nil {
		return err
	}
	return Broadcast(m, iter, v, 0)
}

// TreeReduce reduces v across all ranks of m up the binomial tree and leaves
// the finished (for OpAverage, scaled) vector at rank 0; every other rank's v
// holds the partial sum it sent. All ranks pass equal lengths and iter.
func TreeReduce(m transport.Mesh, iter int64, v tensor.Vector, op ReduceOp) error {
	if op != OpSum && op != OpAverage {
		return fmt.Errorf("collective: unknown reduce op %d", op)
	}
	n := m.Size()
	if n == 1 {
		return nil
	}
	rank := m.Rank()

	// The mirror of Broadcast's doubling schedule. At span s a rank whose bit
	// s is its lowest set bit sends its partial sum to rank−s and goes quiet;
	// ranks with bit s clear absorb rank+s (when it exists). Rank 0 ends
	// holding the full reduction.
	for span := 1; span < n; span <<= 1 {
		if rank&span != 0 {
			if err := m.Send(rank-span, transport.Message{
				Type: transport.MsgReduce, Iter: iter, Chunk: int32(span), Payload: v,
			}); err != nil {
				return fmt.Errorf("tree reduce send: %w", err)
			}
			return nil
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
	if op == OpAverage {
		v.Scale(1 / float64(n))
	}
	return nil
}

// PartialTreeReduce is TreeReduce with RNA's partial participation on the
// flag-extended work, whose flag slot carries weight (setFlag). Rank 0 ends
// holding the UNSCALED sum over contributors in work[:dim] and the sum of the
// weights in the flag slot, and returns that sum; every other rank returns 0
// and learns it from PartialBroadcast.
func PartialTreeReduce(m transport.Mesh, iter int64, work tensor.Vector, weight int) (int, error) {
	if err := setFlag(work, weight, "partial tree reduce"); err != nil {
		return 0, err
	}
	if err := TreeReduce(m, iter, work, OpSum); err != nil || m.Rank() != 0 {
		return 0, err
	}
	return decodeCount(work[len(work)-1]), nil
}

// PartialBroadcast is the tree's distribute half after PartialTreeReduce:
// Broadcast from rank 0 of work, whose data part the root may have rewritten
// since (a training stack steps the parameters into it) and whose flag slot
// still holds the sum of the weights. It returns that sum on every rank.
func PartialBroadcast(m transport.Mesh, iter int64, work tensor.Vector) (int, error) {
	if len(work) == 0 {
		return 0, fmt.Errorf("collective: partial broadcast needs a flag slot, got an empty vector")
	}
	if err := Broadcast(m, iter, work, 0); err != nil {
		return 0, err
	}
	return decodeCount(work[len(work)-1]), nil
}
