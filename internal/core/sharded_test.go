package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// shardedBlobConfig is blobConfig plus knobs for the sharded matrix:
// StalenessBound 1 makes RNA under AllReady deterministic, so every run can be
// held to the serial reference.
func shardedBlobConfig(t *testing.T, iters int, adam bool) (TrainConfig, *data.Dataset) {
	t.Helper()
	cfg, ds := blobConfig(t, iters)
	cfg.Adam = adam
	cfg.StalenessBound = 1 // deterministic RNA snapshots under AllReady
	return cfg, ds
}

// assertBitIdentical fails unless every rank's params match ref bit for bit.
func assertBitIdentical(t *testing.T, name string, ref tensor.Vector, results []*Result) {
	t.Helper()
	for r, res := range results {
		if len(res.Params) != len(ref) {
			t.Fatalf("%s: rank %d param length %d != %d", name, r, len(res.Params), len(ref))
		}
		for j := range ref {
			if math.Float64bits(res.Params[j]) != math.Float64bits(ref[j]) {
				t.Fatalf("%s: rank %d param %d: %x != %x", name, r, j,
					math.Float64bits(res.Params[j]), math.Float64bits(ref[j]))
			}
		}
	}
}

// pinSchedule makes every stage built until restore runs take the ring pair
// (ring) or the tree, whatever the vector's size. A test that calls it must
// not run in parallel.
func pinSchedule(ring bool) (restore func()) {
	saved := ringPair
	ringPair = func(int, int) bool { return ring }
	return func() { ringPair = saved }
}

// serialReference replays a deterministic run of n ranks — BSP, or RNA under
// AllReady with StalenessBound 1, whose synchronization k takes exactly every
// rank's step k — in one goroutine. Each step computes every rank's gradient
// from the shared parameters with the rank's batch stream (newRank), sums the
// gradients in the schedule's fold order (ringFold over the reduced vector,
// or treeFold), scales the sum as the run does and steps the whole vector
// with one optimizer. It returns the final parameters and each rank's losses.
func serialReference(t *testing.T, cfg TrainConfig, n int, rna, ring bool) (tensor.Vector, [][]float64) {
	t.Helper()
	dim := cfg.Model.Dim()
	reduced := dim
	if rna {
		reduced = dim + 1 // the flag slot moves the ring's chunk bounds
	}
	params, _ := cfg.newRank(0)
	streams := make([]*rng.Source, n)
	grads := make([]tensor.Vector, n)
	for r := range streams {
		_, streams[r] = cfg.newRank(r)
		grads[r] = tensor.New(dim)
	}
	optim, err := cfg.newOptimizer(dim)
	if err != nil {
		t.Fatal(err)
	}
	losses := make([][]float64, n)
	sum := tensor.New(dim)
	for k := 0; k < cfg.Iterations; k++ {
		for r, g := range grads {
			loss, err := cfg.Model.Gradient(params, g, cfg.Batch(streams[r]))
			if err != nil {
				t.Fatal(err)
			}
			losses[r] = append(losses[r], loss)
		}
		if ring {
			ringFold(sum, grads, reduced)
		} else {
			treeFold(sum, grads)
		}
		mean, scale := 1.0, 1.0
		if rna {
			// Every rank carries one mini-batch: the partial sum, unscaled.
			if mean, scale, err = controller.Step(n, n); err != nil {
				t.Fatal(err)
			}
		} else {
			sum.Scale(1 / float64(n)) // the owner's OpAverage
		}
		if _, err := optim.StepTo(params, params, sum, mean, scale); err != nil {
			t.Fatal(err)
		}
	}
	return params, losses
}

// ringFold sums in into sum in the ring's order: each element from the rank
// of its uniform chunk of a reduced-element vector, left to right around the
// ring (collective's referenceAllReduce).
func ringFold(sum tensor.Vector, in []tensor.Vector, reduced int) {
	n := len(in)
	for c := 0; c < n; c++ {
		lo, hi, _ := tensor.ChunkBounds(reduced, n, c)
		for i := lo; i < min(hi, len(sum)); i++ {
			acc := in[c][i]
			for j := 1; j < n; j++ {
				acc += in[(c+j)%n][i]
			}
			sum[i] = acc
		}
	}
}

// treeFold sums in into sum in the tree's order: at span 1, 2, 4, … every
// rank that is a multiple of twice the span absorbs the partial sum of rank
// +span, and rank 0 ends with the total.
func treeFold(sum tensor.Vector, in []tensor.Vector) {
	acc := make([]tensor.Vector, len(in))
	for r := range in {
		acc[r] = in[r].Clone()
	}
	for span := 1; span < len(in); span <<= 1 {
		for r := 0; r+span < len(in); r += 2 * span {
			for i := range acc[r] {
				acc[r][i] += acc[r+span][i]
			}
		}
	}
	copy(sum, acc[0])
}

// assertSerial fails unless every rank of results holds the serial
// reference's parameters and its own losses, bit for bit.
func assertSerial(t *testing.T, name string, cfg TrainConfig, rna, ring bool, results []*Result) {
	t.Helper()
	params, losses := serialReference(t, cfg, len(results), rna, ring)
	assertBitIdentical(t, name, params, results)
	for r, res := range results {
		if len(res.Losses) != len(losses[r]) {
			t.Fatalf("%s: rank %d has %d losses, the reference %d", name, r, len(res.Losses), len(losses[r]))
		}
		for i, l := range losses[r] {
			if math.Float64bits(res.Losses[i]) != math.Float64bits(l) {
				t.Fatalf("%s: rank %d loss %d: %v, the reference %v", name, r, i, res.Losses[i], l)
			}
		}
	}
}

// fullState is the optimizer-state footprint of one full-vector optimizer.
func fullState(t *testing.T, cfg TrainConfig) int64 {
	t.Helper()
	optim, err := cfg.newOptimizer(cfg.Model.Dim())
	if err != nil {
		t.Fatal(err)
	}
	return optim.StateBytes()
}

// assertStateSplit fails unless the ranks' optimizer state sums to one
// full-vector state and, on the ring pair, rank 0 holds less than that.
func assertStateSplit(t *testing.T, name string, cfg TrainConfig, ring bool, results []*Result) {
	t.Helper()
	var total int64
	for _, res := range results {
		total += res.OptStateBytes
	}
	full := fullState(t, cfg)
	if total != full || ring && results[0].OptStateBytes >= full {
		t.Errorf("%s: state sums to %d (rank 0: %d), one full state is %d", name, total, results[0].OptStateBytes, full)
	}
}

// schedules are the two pairs of halves a test pins.
var schedules = []struct {
	name string
	ring bool
}{{"ring", true}, {"tree", false}}

// TestShardedBSPBitIdenticalToReplicated is the tentpole contract: BSP on
// each schedule, pinned at a size the selector gives to the tree, reproduces
// the serial reference bit for bit — parameters and every loss — for SGD and
// Adam, on the in-memory mesh, and each rank holds only its span's
// optimizer state.
func TestShardedBSPBitIdenticalToReplicated(t *testing.T) {
	const n, iters = 4, 25
	for _, sched := range schedules {
		for _, adam := range []bool{false, true} {
			cfg, _ := shardedBlobConfig(t, iters, adam)
			ctrl, err := controller.New(controller.AllReady, n, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			restore := pinSchedule(sched.ring)
			got := trainCluster(t, n, func(m transport.Mesh) (*Result, error) {
				return RunBSPWorker(m, ctrl, cfg)
			})
			restore()
			name := fmt.Sprintf("bsp/%s/adam=%v", sched.name, adam)
			assertSerial(t, name, cfg, false, sched.ring, got)
			assertStateSplit(t, name, cfg, sched.ring, got)
		}
	}
}

// TestShardedRNABitIdenticalToReplicated: same contract for the RNA path.
// AllReady + StalenessBound 1 makes the RNA trajectory deterministic (every
// snapshot is taken exactly one sync behind), so it replays serially.
func TestShardedRNABitIdenticalToReplicated(t *testing.T) {
	const n, iters = 4, 25
	for _, sched := range schedules {
		for _, adam := range []bool{false, true} {
			cfg, _ := shardedBlobConfig(t, iters, adam)
			ctrl, err := controller.New(controller.AllReady, n, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			restore := pinSchedule(sched.ring)
			got := trainCluster(t, n, func(m transport.Mesh) (*Result, error) {
				return RunRNAWorker(m, ctrl, cfg)
			})
			restore()
			name := fmt.Sprintf("rna/%s/adam=%v", sched.name, adam)
			assertSerial(t, name, cfg, true, sched.ring, got)
			assertStateSplit(t, name, cfg, sched.ring, got)
		}
	}
}

// tcpTrainCluster is trainCluster over a real TCP fabric.
func tcpTrainCluster(t *testing.T, n int, run func(m transport.Mesh) (*Result, error)) []*Result {
	t.Helper()
	meshes, err := transport.NewTCPCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, m := range meshes {
			_ = m.Close()
		}
	}()
	results := make([]*Result, n)
	errs := make([]error, n)
	done := make(chan int, n)
	for i := range meshes {
		i := i
		go func() {
			results[i], errs[i] = run(meshes[i])
			done <- i
		}()
	}
	for range meshes {
		<-done
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	return results
}

// TestShardedBSPOverTCP: Adam on the pinned ring pair over a real TCP
// fabric produces the same bits as in memory and as the serial reference.
func TestShardedBSPOverTCP(t *testing.T) {
	const n, iters = 4, 12
	cfg, _ := shardedBlobConfig(t, iters, true)
	defer pinSchedule(true)()
	run := func(cluster func(*testing.T, int, func(transport.Mesh) (*Result, error)) []*Result) []*Result {
		ctrl, err := controller.New(controller.AllReady, n, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		return cluster(t, n, func(m transport.Mesh) (*Result, error) { return RunBSPWorker(m, ctrl, cfg) })
	}
	tcp := run(tcpTrainCluster)
	assertBitIdentical(t, "tcp vs in memory", run(trainCluster)[0].Params, tcp)
	assertSerial(t, "tcp vs the serial reference", cfg, false, true, tcp)
}

// TestShardedRNAWithStragglerTrains exercises genuine partial participation
// (PowerOfChoices + a straggler) on the pinned ring pair: the run is not
// bit-comparable across runs, but all ranks must agree bitwise within the
// run and the model must still learn.
func TestShardedRNAWithStragglerTrains(t *testing.T) {
	const n = 4
	cfg, ds := blobConfig(t, 60)
	cfg.Adam = true
	cfg.StalenessBound = 2
	cfg.SlowDown = func(rank, iter int) time.Duration {
		if rank == n-1 {
			return 2 * time.Millisecond
		}
		return 0
	}
	ctrl, err := controller.New(controller.PowerOfChoices, n, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	restore := pinSchedule(true)
	results := trainCluster(t, n, func(m transport.Mesh) (*Result, error) {
		return RunRNAWorker(m, ctrl, cfg)
	})
	restore()
	assertBitIdentical(t, "rna-straggler", results[0].Params, results)
	cls := cfg.Model.(model.Classifier)
	top1, _, err := cls.Accuracy(results[0].Params, model.All(ds), 1)
	if err != nil {
		t.Fatal(err)
	}
	if top1 < 0.8 {
		t.Errorf("sharded RNA top-1 after training = %v", top1)
	}
}
