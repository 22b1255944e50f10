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
	// AlgoRing is the pipelined ring: bandwidth-optimal, O(N) latency.
	AlgoRing Algorithm = 1
	// AlgoTree is binomial-tree reduce + broadcast: fewest messages, full
	// vector per hop — for tiny tensors only.
	AlgoTree Algorithm = 3
)

// Valid reports whether a names a schedule the engine has.
func (a Algorithm) Valid() bool { return a == AlgoAuto || a == AlgoRing || a == AlgoTree }

// String implements fmt.Stringer; the names match the BENCH_collective.json
// rows and the rnabench output.
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

// AllReduce reduces v in place across all ranks of m with the schedule the
// calibrated cost model predicts fastest for (m.Size(), len(v)). Selection
// is a pure function of those two values and the shared model, so all SPMD
// ranks take the same branch. This is the entry point the training stack
// uses; pin a schedule with AllReduceWith when benchmarking.
func AllReduce(m transport.Mesh, iter int64, v tensor.Vector, op ReduceOp) error {
	return AllReduceWith(m, iter, v, op, AlgoAuto)
}

// AllReduceWith reduces v in place across all ranks of m with the given
// schedule (AlgoAuto defers to the cost-model selector). All ranks must
// pass the same algorithm, iter, op and vector length.
func AllReduceWith(m transport.Mesh, iter int64, v tensor.Vector, op ReduceOp, algo Algorithm) error {
	return AllReduceOpts(m, iter, v, op, Options{Algorithm: algo})
}

// Options bundles the tunables of one AllReduce call beyond (op, iter).
// The zero value reproduces AllReduce exactly: auto-selected schedule,
// uncompressed fp64 wire, no error feedback.
type Options struct {
	// Algorithm pins a schedule; AlgoAuto defers to the cost-model
	// selector (which prices the Compression dtype's wire volume).
	Algorithm Algorithm
	// Compression is the wire dtype of the distribution phase — the ring
	// allgather, the tree broadcast. The reduction itself always runs in
	// fp64, and every rank still finishes with bit-identical bytes:
	// elements are quantized exactly once, by the rank that owns them, and
	// re-encoding forwarded grid values is exact (see tensor.RoundTrip).
	// tensor.F64 disables compression.
	Compression tensor.Dtype
	// Residual, when non-nil (it must then have v's length), accumulates
	// the quantization error (pre − post) of the regions THIS rank
	// compressed from exact fp64 — its owned chunks, or the whole vector
	// at the tree root. Adding the residual into the next iteration's
	// local gradient implements error-feedback compression; the residual is
	// distributed across ranks by ownership, matching how the error
	// physically arises.
	Residual tensor.Vector
}

// AllReduceOpts reduces v in place across all ranks of m under opts. All
// ranks must pass the same algorithm, compression dtype, iter, op and
// vector length (residuals are rank-local and may differ).
func AllReduceOpts(m transport.Mesh, iter int64, v tensor.Vector, op ReduceOp, opts Options) error {
	if !opts.Algorithm.Valid() {
		return fmt.Errorf("collective: unknown algorithm %d", opts.Algorithm)
	}
	if !opts.Compression.Valid() {
		return fmt.Errorf("collective: unknown compression dtype %d", opts.Compression)
	}
	if opts.Residual != nil && len(opts.Residual) != len(v) {
		return fmt.Errorf("collective: residual length %d != vector length %d", len(opts.Residual), len(v))
	}
	algo := opts.Algorithm
	if algo == AlgoAuto {
		algo = SelectAlgorithmWire(m.Size(), len(v), opts.Compression)
	}
	if algo == AlgoTree {
		return treeAllReduce(m, iter, v, op, opts.Compression, opts.Residual)
	}
	return ringAllReduce(m, iter, v, op, 0, opts.Compression, opts.Residual)
}

// PartialAllReduce is PartialRingAllReduce with cost-model algorithm
// selection: the partial semantics (null contributions, contributor count)
// ride on any sum AllReduce, so the selector applies unchanged. The
// returned Sum lives in a pooled buffer — call Release when done.
func PartialAllReduce(m transport.Mesh, iter int64, v tensor.Vector, contributes bool) (PartialResult, error) {
	return partialAllReduce(m, iter, v, contributes, Options{})
}

// PartialAllReduceOpts is the partial collective under Options — the entry
// point for compressed RNA training. Compression keeps the partial
// semantics: the contributor count rides the reduction as one extra
// element, decoded with round-and-clamp so block quantization noise (the
// count shares its block's scale under I8) cannot corrupt it for any
// realistic count; counts are exact whenever the flag block's scale is ≤ 1.
func PartialAllReduceOpts(m transport.Mesh, iter int64, v tensor.Vector, contributes bool, opts Options) (PartialResult, error) {
	return partialAllReduce(m, iter, v, contributes, opts)
}

// partialAllReduce is the copying form of the partial collective: it stages
// v in a pooled flag-extended buffer and runs PartialAllReduceInPlace on it.
func partialAllReduce(m transport.Mesh, iter int64, v tensor.Vector, contributes bool, opts Options) (PartialResult, error) {
	work := tensor.Vector(transport.GetPayload(len(v) + 1))
	if contributes {
		copy(work, v)
	}
	contributors, err := PartialAllReduceInPlace(m, iter, work, contributes, opts)
	if err != nil {
		transport.PutPayload(work)
		return PartialResult{}, err
	}
	return PartialResult{Sum: work[:len(v)], Contributors: contributors}, nil
}

// PartialAllReduceInPlace is the partial collective on the caller's own
// buffer, on top of any schedule. work is the flag-extended vector: dim data
// elements followed by one slot for the contribution flag, which rides the
// reduction so the count is summed by the same pass as the data. The call
// sets the flag slot itself; with contributes=false it zeroes the whole of
// work (whatever it held) so the rank joins with a null gradient. On return
// work[:dim] holds the element-wise sum over contributing ranks and the
// contributor count Σ w_{k,i} is returned (zero means nobody had data).
// opts.Residual, when set, has dim elements.
//
// core's accumulator leases gradient buffers with the flag slot as spare
// capacity, so a taken gradient is reduced where it lies.
func PartialAllReduceInPlace(m transport.Mesh, iter int64, work tensor.Vector, contributes bool, opts Options) (contributors int, err error) {
	dim := len(work) - 1
	if dim < 0 {
		return 0, fmt.Errorf("collective: partial allreduce needs a flag slot, got an empty vector")
	}
	if contributes {
		work[dim] = 1
	} else {
		work.Zero()
	}
	// The caller's residual covers the data, but the reduced vector carries
	// the extra flag element; collect error feedback into an extended
	// scratch residual and fold the data part back. The flag element's
	// quantization error is deliberately dropped — feeding it back would
	// distort future counts.
	innerOpts := opts
	var extRes tensor.Vector
	if opts.Residual != nil && opts.Compression != tensor.F64 {
		if len(opts.Residual) != dim {
			return 0, fmt.Errorf("collective: residual length %d != vector length %d", len(opts.Residual), dim)
		}
		extRes = tensor.Vector(transport.GetPayload(dim + 1))
		defer transport.PutPayload(extRes)
		extRes.Zero()
		innerOpts.Residual = extRes
	} else {
		innerOpts.Residual = nil
	}
	if err := AllReduceOpts(m, iter, work, OpSum, innerOpts); err != nil {
		return 0, err
	}
	if extRes != nil {
		_ = opts.Residual.Add(extRes[:dim]) // lengths checked above
	}
	return decodeCount(work[dim], m.Size()), nil
}
