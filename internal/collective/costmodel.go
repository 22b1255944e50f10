package collective

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/tensor"
	"repro/internal/transport"
)

// α–β cost model behind the algorithm auto-selector.
//
// Each schedule describes its own critical path, next to its implementation
// (RingPath in ring.go, TreePath in tree.go), as a short list of hops: runs
// of sequential messages of one size. A path prices as msgs·α + bytes·β:
// the messages' latencies plus the per-byte transfer/reduce cost of what
// they carry. The (α, β) constants are PER ALGORITHM — the implementations
// have different per-step machinery (the ring pipelines and rotates buffers,
// the tree sends whole vectors through one root), so a single shared pair
// systematically mispredicts. The constants ship with defaults measured on
// the in-memory mesh and are re-fit for a deployment by Calibrate (exposed
// as `rnabench -calibrate`), whose output persists as JSON and reloads via
// LoadCalibration. All ranks must share one model: selection depends only
// on (rank count, message size, wire dtype), so a shared model keeps the
// SPMD ranks' choices consistent.
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

// Payload is the fp64 data one AllReduce reduces, counted in the unit its
// pricer knows it in. A schedule cuts a payload into shares of whole units,
// so the unit sets the granularity of a chunk: the compressed prices and
// the sharded halves count whole elements, while the uncompressed prices
// have always cut to the byte — the simulator's model zoo has 4-byte
// parameters, so its payloads need not be a whole number of fp64 elements.
type Payload struct{ units, unitBytes int64 }

// Elems is a payload of n fp64 elements.
func Elems(n int) Payload { return Payload{int64(n), 8} }

// Bytes is a payload of n bytes of fp64 data.
func Bytes(n int64) Payload { return Payload{n, 1} }

// share returns the size in bytes of one of `parts` equal shares of p, as
// raw fp64 and as encoded in wire.
func (p Payload) share(parts int, wire tensor.Dtype) (fp64, enc int64) {
	fp64 = p.units / int64(parts) * p.unitBytes
	if wire == tensor.F64 {
		return fp64, fp64
	}
	return fp64, int64(wire.WireBytes(int(fp64 / 8)))
}

// AlgoCost holds one algorithm's fitted α–β constants.
type AlgoCost struct {
	// AlphaNs is the fixed cost per critical-path message in nanoseconds.
	AlphaNs float64 `json:"alpha_ns"`
	// BetaNsPerByte is the cost per critical-path byte in ns/byte.
	BetaNsPerByte float64 `json:"beta_ns_per_byte"`
}

// ns prices a critical path of msgs messages carrying vol bytes in total.
func (k AlgoCost) ns(msgs, vol float64) float64 {
	return msgs*k.AlphaNs + vol*k.BetaNsPerByte
}

// CostModel predicts AllReduce latency per algorithm. A calibration file
// written when there were more schedules still loads: unknown JSON keys are
// ignored.
type CostModel struct {
	Ring AlgoCost `json:"ring"`
	Tree AlgoCost `json:"tree"`
}

// DefaultCostModel returns constants fitted by `rnabench -calibrate` on the
// in-memory mesh of a commodity x86 host (the make collective-bench
// hardware). They are meant as a sane starting point; run
// `rnabench -calibrate` to fit your own fabric. Note the per-algorithm
// spread the shared-constant model would miss: the pipelined ring forwards
// pooled buffers without copying (low β, but α carries its per-step gate
// synchronization), and the tree does one contiguous add per hop (lowest α
// and β, but log-factor byte volume).
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

// PredictWireNs returns the modeled latency in nanoseconds of one AllReduce
// of elems elements whose distribution phase ships the given wire dtype
// (compression applies to that phase only; the reduction ships fp64).
// AlgoAuto predicts the cheaper of the two schedules; an algorithm the
// engine does not have never finishes.
func (c CostModel) PredictWireNs(a Algorithm, n, elems int, wire tensor.Dtype) float64 {
	if !a.Valid() {
		return math.Inf(1)
	}
	if n <= 1 {
		return 0
	}
	p := Elems(elems)
	if wire == tensor.F64 {
		p = Bytes(8 * int64(elems)) // uncompressed chunks are cut to the byte
	}
	switch a {
	case AlgoRing:
		return c.Ring.ns(pathShape(RingPath(n, p, wire)))
	case AlgoTree:
		return c.Tree.ns(pathShape(TreePath(n, p, wire)))
	default: // AlgoAuto
		return math.Min(c.PredictWireNs(AlgoRing, n, elems, wire), c.PredictWireNs(AlgoTree, n, elems, wire))
	}
}

// SelectWire returns the cheaper schedule for an AllReduce of elems elements
// across n ranks under the given distribution-phase wire dtype — compression
// shifts the ring↔tree crossover (a narrower wire shrinks the ring's
// bandwidth advantage), so the selector must see it. A tie goes to the tree,
// the latency-optimal schedule. The choice is a pure function of (n, elems,
// wire) and the model, so SPMD ranks sharing a model always agree.
func (c CostModel) SelectWire(n, elems int, wire tensor.Dtype) Algorithm {
	if n > 1 && c.PredictWireNs(AlgoTree, n, elems, wire) <= c.PredictWireNs(AlgoRing, n, elems, wire) {
		return AlgoTree
	}
	return AlgoRing
}

// ceilLog2 returns ⌈log2 n⌉ for n ≥ 1 (0 below).
func ceilLog2(n int) int { return bits.Len(uint(max(n, 1) - 1)) }

// The active model drives AllReduce's auto selection. It is process-global:
// one training job runs one fabric.
var (
	costModelMu sync.RWMutex
	activeModel = DefaultCostModel()
)

// ActiveCostModel returns the model the auto selector currently uses.
func ActiveCostModel() CostModel {
	costModelMu.RLock()
	defer costModelMu.RUnlock()
	return activeModel
}

// SetCostModel installs m as the auto selector's model (e.g. after loading
// a calibration file). All ranks of a job must install the same model.
func SetCostModel(m CostModel) {
	costModelMu.Lock()
	activeModel = m
	costModelMu.Unlock()
}

// SelectAlgorithmWire picks the schedule the active model predicts faster
// for an AllReduce of elems elements across n ranks under the given
// distribution-phase wire dtype.
func SelectAlgorithmWire(n, elems int, wire tensor.Dtype) Algorithm {
	return ActiveCostModel().SelectWire(n, elems, wire)
}

// AutoRunsRingPair reports whether AlgoAuto reduces elems elements across n
// ranks under the given wire as the ring pair, RingReduceScatter +
// RingAllGather, with a training stack's optimizer step between the halves:
//
//   - wherever the model selects the pipelined ring, whose bytes on the wire
//     the pair ships and whose bits it reproduces;
//   - at 2 ranks on an fp64 wire, at every size. There the pair has the
//     tree's two-hop critical path with half the bytes per hop, its fold
//     gives the tree's bits (a + b = b + a, and halving is exact), and each
//     rank steps half the vector. The tree-versus-ring constants were fitted
//     for the replicated ring and hand 2-rank vectors to the tree, which the
//     pair beats at every size measured (BENCH_collective.json, "sharded").
//
// Like the selection it is a pure function of SPMD-agreed inputs and the
// shared model.
func AutoRunsRingPair(n, elems int, wire tensor.Dtype) bool {
	if n == 2 && wire == tensor.F64 {
		return true
	}
	return n > 1 && SelectAlgorithmWire(n, elems, wire) == AlgoRing
}

// Calibration is the persisted form of a fitted cost model.
type Calibration struct {
	// Model holds the fitted constants.
	Model CostModel `json:"model"`
	// Ranks and the probe dims record the calibration conditions.
	Ranks    int `json:"ranks"`
	SmallDim int `json:"small_dim"`
	LargeDim int `json:"large_dim"`
	// Rounds is the number of timed collectives averaged per probe.
	Rounds int `json:"rounds"`
	// GoMaxProcs and NumCPU fingerprint the host the constants were fitted
	// on. The α–β fit is dominated by scheduler and memory behavior, so a
	// calibration file copied to (or left behind on) a differently shaped
	// host is silently wrong — consumers compare the fingerprint against
	// HostFingerprint() and fall back to the built-in defaults on mismatch.
	// Zero values mark legacy files written before fingerprinting.
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
	NumCPU     int `json:"num_cpu,omitempty"`
}

// HostFingerprint returns this process's calibration fingerprint.
func HostFingerprint() (gomaxprocs, numCPU int) {
	return runtime.GOMAXPROCS(0), runtime.NumCPU()
}

// FingerprintMatches reports whether the calibration was fitted on a host
// shaped like this one. Legacy calibrations without a fingerprint (zero
// fields) are accepted.
func (c Calibration) FingerprintMatches() bool {
	if c.GoMaxProcs == 0 && c.NumCPU == 0 {
		return true
	}
	gmp, ncpu := HostFingerprint()
	return c.GoMaxProcs == gmp && c.NumCPU == ncpu
}

// SaveCalibration writes c as indented JSON to path.
func (c Calibration) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// LoadCalibration reads a calibration file and returns it. It does NOT
// install the model; call SetCostModel(cal.Model) to activate it.
func LoadCalibration(path string) (Calibration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Calibration{}, err
	}
	var c Calibration
	if err := json.Unmarshal(data, &c); err != nil {
		return Calibration{}, fmt.Errorf("collective: parse calibration %s: %w", path, err)
	}
	return c, nil
}

// Calibrate fits per-algorithm α–β constants on an in-memory mesh of
// `ranks` endpoints by timing each algorithm at a latency-dominated probe
// size (smallDim) and a bandwidth-dominated one (largeDim), then solving
// the two-point linear system of the critical-path shape. rounds timed
// collectives are averaged per probe (after a warmup round). Zero
// arguments select defaults (16 ranks, 1024/65536 dims, 30 rounds): the
// probe dims bracket the ring↔tree crossover region, where the fit
// matters — a two-point fit is exact at its probe sizes and interpolates
// between them, so probing far outside the decision region (e.g. at 1M
// elements) would spend the model's two degrees of freedom where no
// selection decision ever changes.
func Calibrate(ranks, smallDim, largeDim, rounds int) (Calibration, error) {
	if ranks < 2 {
		ranks = 16
	}
	if smallDim <= 0 {
		smallDim = 1 << 10
	}
	if largeDim <= smallDim {
		largeDim = 1 << 16
	}
	if rounds < 1 {
		rounds = 30
	}
	net, err := transport.NewLocalNetwork(ranks)
	if err != nil {
		return Calibration{}, err
	}
	defer func() { _ = net.Close() }()
	eps := net.Endpoints()

	probe := func(algo Algorithm, dim int) (float64, error) {
		vecs := make([]tensor.Vector, ranks)
		for i := range vecs {
			vecs[i] = tensor.New(dim)
			vecs[i].Fill(float64(i + 1))
		}
		run := func(iter int64) error {
			done := make(chan error, ranks)
			for _, m := range eps {
				m := m
				go func() { done <- AllReduceWith(m, iter, vecs[m.Rank()], OpSum, algo) }()
			}
			var first error
			for range eps {
				if err := <-done; err != nil && first == nil {
					first = err
				}
			}
			return first
		}
		if err := run(0); err != nil { // warmup
			return 0, err
		}
		start := time.Now()
		for it := 1; it <= rounds; it++ {
			if err := run(int64(it)); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(rounds), nil
	}

	fit := func(algo Algorithm, path func(int, Payload, tensor.Dtype) [2]Hop) (AlgoCost, error) {
		tSmall, err := probe(algo, smallDim)
		if err != nil {
			return AlgoCost{}, fmt.Errorf("calibrate %s small: %w", algo, err)
		}
		tLarge, err := probe(algo, largeDim)
		if err != nil {
			return AlgoCost{}, fmt.Errorf("calibrate %s large: %w", algo, err)
		}
		msgsS, volS := pathShape(path(ranks, Bytes(8*int64(smallDim)), tensor.F64))
		_, volL := pathShape(path(ranks, Bytes(8*int64(largeDim)), tensor.F64))
		// Two-point fit: t = msgs·α + vol·β. A schedule's msgs term depends
		// on n alone, so β falls out of the difference and α from the small
		// probe.
		beta := (tLarge - tSmall) / (volL - volS)
		if beta < 0 {
			beta = 0
		}
		alpha := (tSmall - volS*beta) / msgsS
		if alpha < 1 {
			alpha = 1 // keep predictions ordered even on noisy probes
		}
		return AlgoCost{AlphaNs: alpha, BetaNsPerByte: beta}, nil
	}

	var cal Calibration
	cal.Ranks, cal.SmallDim, cal.LargeDim, cal.Rounds = ranks, smallDim, largeDim, rounds
	cal.GoMaxProcs, cal.NumCPU = HostFingerprint()
	if cal.Model.Ring, err = fit(AlgoRing, RingPath); err != nil {
		return Calibration{}, err
	}
	if cal.Model.Tree, err = fit(AlgoTree, TreePath); err != nil {
		return Calibration{}, err
	}
	return cal, nil
}
