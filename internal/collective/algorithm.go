package collective

import (
	"fmt"

	"repro/internal/tensor"
	"repro/internal/transport"
)

// Algorithm selects an AllReduce schedule.
type Algorithm int

// Supported schedules. AlgoAuto (the zero value) defers to the α–β cost
// model selector; the rest pin a concrete schedule. The numeric values are
// reported by benchmark/ as collective.algo_id, so AlgoRing stays 1 and
// AlgoTree stays 3; 2 and 4 named schedules that were removed (DESIGN.md,
// "Schedules removed") and are rejected by Valid.
const (
	// AlgoAuto lets the calibrated cost model choose per (ranks, size).
	AlgoAuto Algorithm = 0
	// AlgoRing is the ring, RingAllReduce: bandwidth-optimal, O(N)
	// latency.
	AlgoRing Algorithm = 1
	// AlgoTree is binomial-tree reduce + broadcast: fewest messages, full
	// vector per hop — for tiny tensors only.
	AlgoTree Algorithm = 3
)

// Valid reports whether a names a schedule the engine has.
func (a Algorithm) Valid() bool { return a == AlgoAuto || a == AlgoRing || a == AlgoTree }

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case AlgoAuto:
		return "auto"
	case AlgoRing:
		return "ring"
	case AlgoTree:
		return "tree"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// Options bundles the tunables of one AllReduceOpts or PartialAllReduceOpts
// call beyond (op, iter). The zero value runs the schedule the cost model
// selects.
type Options struct {
	// Algorithm pins a schedule; AlgoAuto defers to the cost-model
	// selector.
	Algorithm Algorithm
}

// AllReduceOpts reduces v in place across all ranks of m under opts: the
// pinned schedule, or with AlgoAuto the one the calibrated cost model
// predicts fastest for (m.Size(), len(v)). Selection is a pure function of
// those two values and the shared model, so all SPMD ranks take the same
// branch. All ranks must pass the same algorithm, iter, op and vector length.
func AllReduceOpts(m transport.Mesh, iter int64, v tensor.Vector, op ReduceOp, opts Options) error {
	if !opts.Algorithm.Valid() {
		return fmt.Errorf("collective: unknown algorithm %d", opts.Algorithm)
	}
	algo := opts.Algorithm
	if algo == AlgoAuto {
		algo = SelectAlgorithm(m.Size(), len(v))
	}
	if algo == AlgoTree {
		return TreeAllReduce(m, iter, v, op)
	}
	return RingAllReduce(m, iter, v, op)
}

// PartialAllReduceOpts performs the paper's partial AllReduce under opts:
// ranks with contributes=false take part in the communication graph with a
// null (zero) gradient, exactly as Section 2.3.2 describes, so the schedule
// is unchanged. The reduction also counts contributors, giving every rank the
// weight W = 1/Σw needed for the weighted average of Algorithm 2. The partial
// semantics ride on any sum AllReduce, so the selector applies unchanged.
//
// v is not modified; the summed gradient is returned in PartialResult.Sum,
// which lives in a pooled scratch buffer — call Release when done with it.
func PartialAllReduceOpts(m transport.Mesh, iter int64, v tensor.Vector, contributes bool, opts Options) (PartialResult, error) {
	return partialAllReduce(m, iter, v, contributes, opts)
}

// partialAllReduce is the copying form of the partial collective: it stages
// v in a pooled flag-extended buffer and runs PartialAllReduceInPlace on it,
// a contributing rank counting as one.
func partialAllReduce(m transport.Mesh, iter int64, v tensor.Vector, contributes bool, opts Options) (PartialResult, error) {
	work := tensor.Vector(transport.GetPayload(len(v) + 1))
	weight := 0
	if contributes {
		copy(work, v)
		weight = 1
	}
	contributors, err := PartialAllReduceInPlace(m, iter, work, weight, opts)
	if err != nil {
		transport.PutPayload(work)
		return PartialResult{}, err
	}
	return PartialResult{Sum: work[:len(v)], Contributors: contributors}, nil
}

// PartialAllReduceInPlace is the partial collective on the caller's own
// buffer, on top of any schedule. work is the flag-extended vector: dim data
// elements followed by one slot for the rank's weight, which rides the
// reduction so the weights are summed by the same pass as the data. The call
// sets the flag slot itself to weight, the number of mini-batches the rank's
// gradient sums (RNA's Weigh count); with weight 0 it zeroes the whole of
// work (whatever it held) so the rank joins with a null gradient. On return
// work[:dim] holds the element-wise sum over contributing ranks and the sum
// of the weights is returned, identical on every rank (zero means nobody had
// data).
//
// core's accumulator leases gradient buffers with the flag slot as spare
// capacity, so a taken gradient is reduced where it lies.
func PartialAllReduceInPlace(m transport.Mesh, iter int64, work tensor.Vector, weight int, opts Options) (batches int, err error) {
	dim := len(work) - 1
	if dim < 0 {
		return 0, fmt.Errorf("collective: partial allreduce needs a flag slot, got an empty vector")
	}
	if weight > 0 {
		work[dim] = float64(weight)
	} else {
		work.Zero()
	}
	if err := AllReduceOpts(m, iter, work, OpSum, opts); err != nil {
		return 0, err
	}
	return decodeCount(work[dim]), nil
}
