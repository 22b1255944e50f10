package collective

import (
	"math"
	"math/bits"
	"runtime"

	"repro/internal/tensor"
)

// α–β cost model behind the algorithm auto-selector.
//
// Each schedule describes its own critical path, next to its implementation
// (RingPath in shard_ring.go, TreePath in tree.go), as a short list of hops: runs
// of sequential messages of one size. A path prices as msgs·α + bytes·β:
// the messages' latencies plus the per-byte transfer/reduce cost of what
// they carry. The (α, β) constants are PER ALGORITHM — the implementations
// have different per-step machinery (the ring lands 1/N chunks in place at
// every hop, the tree sends whole vectors through one root), so a single
// shared pair systematically mispredicts. The constants are fixed, measured on the
// in-memory mesh (DefaultCostModel). Every rank uses the same model, and
// selection depends only on (rank count, message size), so the SPMD ranks'
// choices agree.
//
// The simulator's workload.CommModel prices the same paths in virtual time,
// one truncated transfer per message; TestCostModelsAgree in that package
// holds the two evaluators together.

// Hop is a run of critical-path messages sent one after another, all of one
// size.
type Hop struct {
	Msgs  int   // sequential messages
	Bytes int64 // size of each
}

// AlgoCost holds one algorithm's fitted α–β constants.
type AlgoCost struct {
	// AlphaNs is the fixed cost per critical-path message in nanoseconds.
	AlphaNs float64
	// BetaNsPerByte is the cost per critical-path byte in ns/byte.
	BetaNsPerByte float64
}

// ns prices a critical path of msgs messages carrying vol bytes in total.
func (k AlgoCost) ns(msgs, vol float64) float64 {
	return msgs*k.AlphaNs + vol*k.BetaNsPerByte
}

// CostModel predicts AllReduce latency per algorithm.
type CostModel struct {
	Ring AlgoCost
	Tree AlgoCost
}

// DefaultCostModel returns the constants the auto selector uses. They were
// last fitted when the multi-algorithm engine landed (commit ebc0209, August
// 2026): a two-point α–β fit per schedule, a latency-bound and a
// bandwidth-bound probe size, on the in-memory mesh of a commodity x86 host.
// They have not been re-fitted since. The ring's pair was fitted on a
// pipelined, segmented ring engine that has since been deleted (its pooled
// sender goroutine's per-step gate showed up in α); RingAllReduce is now the
// reduce-scatter/allgather pair, and the constants are kept so that no
// crossover moves. The tree does one contiguous add per hop (lowest α and β,
// but log-factor byte volume).
func DefaultCostModel() CostModel {
	return CostModel{
		Ring: AlgoCost{AlphaNs: 6343, BetaNsPerByte: 0.94},
		Tree: AlgoCost{AlphaNs: 3617, BetaNsPerByte: 0.43},
	}
}

// pathShape sums a critical path into its message count and byte volume.
func pathShape(path [2]Hop) (msgs, vol float64) {
	for _, h := range path {
		msgs += float64(h.Msgs)
		vol += float64(h.Msgs) * float64(h.Bytes)
	}
	return msgs, vol
}

// PredictNs returns the modeled latency in nanoseconds of one AllReduce of
// elems fp64 elements across n ranks. AlgoAuto predicts the cheaper of the
// two schedules; an algorithm the engine does not have never finishes.
func (c CostModel) PredictNs(a Algorithm, n, elems int) float64 {
	if !a.Valid() {
		return math.Inf(1)
	}
	if n <= 1 {
		return 0
	}
	switch a {
	case AlgoRing:
		return c.Ring.ns(pathShape(RingPath(n, 8*int64(elems))))
	case AlgoTree:
		return c.Tree.ns(pathShape(TreePath(n, 8*int64(elems))))
	default: // AlgoAuto
		return math.Min(c.PredictNs(AlgoRing, n, elems), c.PredictNs(AlgoTree, n, elems))
	}
}

// PredictWireNs is PredictNs for a caller that names the payload's wire
// dtype, which is always tensor.F64; benchmark/probes.go calls it.
func (c CostModel) PredictWireNs(a Algorithm, n, elems int, _ tensor.Dtype) float64 {
	return c.PredictNs(a, n, elems)
}

// Select returns the cheaper schedule for an AllReduce of elems elements
// across n ranks. A tie goes to the tree, the latency-optimal schedule. The
// choice is a pure function of (n, elems) and the model, so SPMD ranks
// sharing a model always agree.
func (c CostModel) Select(n, elems int) Algorithm {
	if n > 1 && c.PredictNs(AlgoTree, n, elems) <= c.PredictNs(AlgoRing, n, elems) {
		return AlgoTree
	}
	return AlgoRing
}

// ceilLog2 returns ⌈log2 n⌉ for n ≥ 1 (0 below).
func ceilLog2(n int) int { return bits.Len(uint(max(n, 1) - 1)) }

// ActiveCostModel returns DefaultCostModel, the model the auto selector
// uses; benchmark/probes.go prices its predictions with it.
func ActiveCostModel() CostModel { return DefaultCostModel() }

// SelectAlgorithm picks the schedule DefaultCostModel predicts faster for an
// AllReduce of elems elements across n ranks.
func SelectAlgorithm(n, elems int) Algorithm {
	return DefaultCostModel().Select(n, elems)
}

// SelectAlgorithmWire is SelectAlgorithm for a caller that names the
// payload's wire dtype, which is always tensor.F64; benchmark/probes.go
// calls it.
func SelectAlgorithmWire(n, elems int, _ tensor.Dtype) Algorithm {
	return SelectAlgorithm(n, elems)
}

// AutoRunsRingPair reports whether AlgoAuto reduces elems elements across n
// ranks as the ring pair, RingReduceScatter + RingAllGather, with a training
// stack's optimizer step between the halves:
//
//   - wherever the model selects the ring, which is the pair run back to
//     back;
//   - at 2 ranks, at every size. There the pair has the tree's two-hop
//     critical path with half the bytes per hop, its fold gives the tree's
//     bits (a + b = b + a, and halving is exact), and each rank steps half
//     the vector. The tree-versus-ring constants were fitted on the deleted
//     ring engine and hand 2-rank vectors to the tree, which the pair beat
//     at every size of the owner-computes sweep over loopback TCP.
//
// Like the selection it is a pure function of SPMD-agreed inputs and the
// shared model.
func AutoRunsRingPair(n, elems int) bool {
	return n == 2 || n > 1 && SelectAlgorithm(n, elems) == AlgoRing
}

// HostFingerprint returns this process's GOMAXPROCS and NumCPU, the host
// shape benchmark reports record next to their figures.
func HostFingerprint() (gomaxprocs, numCPU int) {
	return runtime.GOMAXPROCS(0), runtime.NumCPU()
}
