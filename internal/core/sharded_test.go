package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/controller"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// shardedBlobConfig is blobConfig plus knobs for the sharded matrix. The
// replicated baseline pins AlgoRing so the comparison is fold-order-exact at
// any dimension.
func shardedBlobConfig(t *testing.T, iters int, adam bool) (TrainConfig, *data.Dataset) {
	t.Helper()
	cfg, ds := blobConfig(t, iters)
	cfg.Algorithm = collective.AlgoRing
	cfg.Adam = adam
	cfg.StalenessBound = 1 // deterministic RNA snapshots under AllReady
	return cfg, ds
}

// assertBitIdentical fails unless every rank's params match rank 0 of ref
// bit for bit.
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

// TestShardedBSPBitIdenticalToReplicated is the tentpole contract: the
// owner-computes BSP path reproduces the replicated baseline bit for bit —
// for SGD and Adam, on the in-memory mesh.
func TestShardedBSPBitIdenticalToReplicated(t *testing.T) {
	const n, iters = 4, 25
	for _, adam := range []bool{false, true} {
		cfg, _ := shardedBlobConfig(t, iters, adam)
		ctrl, err := controller.New(controller.AllReady, n, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		repl := trainCluster(t, n, func(m transport.Mesh) (*Result, error) {
			return RunBSPWorker(m, ctrl, cfg)
		})
		scfg := cfg
		scfg.ShardedUpdate = true
		sctrl, err := controller.New(controller.AllReady, n, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		shard := trainCluster(t, n, func(m transport.Mesh) (*Result, error) {
			return RunBSPWorker(m, sctrl, scfg)
		})
		name := "sgd"
		if adam {
			name = "adam"
		}
		assertBitIdentical(t, "bsp/"+name, repl[0].Params, shard)
		// State memory: each rank holds only its span's optimizer state.
		var total int64
		for _, res := range shard {
			total += res.OptStateBytes
		}
		if total != repl[0].OptStateBytes {
			t.Errorf("bsp/%s: sharded state sums to %d, replicated per-rank is %d", name, total, repl[0].OptStateBytes)
		}
		if shard[0].OptStateBytes >= repl[0].OptStateBytes {
			t.Errorf("bsp/%s: rank 0 state %d not reduced from %d", name, shard[0].OptStateBytes, repl[0].OptStateBytes)
		}
	}
}

// TestShardedRNABitIdenticalToReplicated: same contract for the RNA path.
// AllReady + StalenessBound 1 makes the replicated RNA trajectory
// deterministic (every snapshot is taken exactly one sync behind), so the
// two runs are bit-comparable.
func TestShardedRNABitIdenticalToReplicated(t *testing.T) {
	const n, iters = 4, 25
	for _, adam := range []bool{false, true} {
		cfg, _ := shardedBlobConfig(t, iters, adam)
		ctrl, err := controller.New(controller.AllReady, n, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		repl := trainCluster(t, n, func(m transport.Mesh) (*Result, error) {
			return RunRNAWorker(m, ctrl, cfg)
		})
		scfg := cfg
		scfg.ShardedUpdate = true
		sctrl, err := controller.New(controller.AllReady, n, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		shard := trainCluster(t, n, func(m transport.Mesh) (*Result, error) {
			return RunRNAWorker(m, sctrl, scfg)
		})
		assertBitIdentical(t, "rna", repl[0].Params, shard)
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

// TestShardedBSPOverTCP: the sharded path produces the same bits over a real
// TCP fabric as in memory, for the exact fp64 wire and the f16 parameter
// allgather (grid values survive the wire exactly).
func TestShardedBSPOverTCP(t *testing.T) {
	const n, iters = 4, 12
	for _, wire := range []tensor.Dtype{tensor.F64, tensor.F16} {
		cfg, _ := shardedBlobConfig(t, iters, true)
		cfg.ShardedUpdate = true
		cfg.Compression = wire
		ctrl, err := controller.New(controller.AllReady, n, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		mem := trainCluster(t, n, func(m transport.Mesh) (*Result, error) {
			return RunBSPWorker(m, ctrl, cfg)
		})
		tctrl, err := controller.New(controller.AllReady, n, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		tcp := tcpTrainCluster(t, n, func(m transport.Mesh) (*Result, error) {
			return RunBSPWorker(m, tctrl, cfg)
		})
		assertBitIdentical(t, "tcp/"+wire.String(), mem[0].Params, tcp)
	}
}

// ringFoldAverage computes the collective's exact per-element average: each
// uniform chunk c folds contributions left-associatively in ring order
// c, c+1, …, c−1, then scales by 1/n at the owner — the serial reference
// the master-weights test compares against.
func ringFoldAverage(t *testing.T, grads []tensor.Vector, out tensor.Vector) {
	t.Helper()
	n := len(grads)
	dim := len(out)
	for c := 0; c < n; c++ {
		s, e, err := tensor.ChunkBounds(dim, n, c)
		if err != nil {
			t.Fatal(err)
		}
		for j := s; j < e; j++ {
			acc := grads[c%n][j]
			for d := 1; d < n; d++ {
				acc += grads[(c+d)%n][j]
			}
			out[j] = acc / float64(n)
		}
	}
}

// TestShardedBSPF16MasterWeights verifies the lossy-wire contract end to
// end: with an f16 parameter allgather the owners keep master weights
// (quantized params + EF residual = exact fp64 trajectory), gradients are
// evaluated at the quantized parameters on every rank, and all ranks stay
// bit-identical to a serial mixed-precision reference.
func TestShardedBSPF16MasterWeights(t *testing.T) {
	const n, iters = 4, 20
	cfg, _ := shardedBlobConfig(t, iters, true)
	cfg.ShardedUpdate = true
	cfg.Compression = tensor.F16
	ctrl, err := controller.New(controller.AllReady, n, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	results := trainCluster(t, n, func(m transport.Mesh) (*Result, error) {
		return RunBSPWorker(m, ctrl, cfg)
	})

	// Serial reference: one process, full-vector optimizer (elementwise ≡
	// the concatenated span optimizers), per-rank batch streams identical to
	// the workers', ring-fold average, master-weight restore before the
	// step, full-vector f16 round trip with error feedback after it (F16
	// quantizes per element, so per-span ≡ full-vector).
	dim := cfg.Model.Dim()
	params := tensor.New(dim)
	cfg.Model.Init(rng.New(cfg.Seed+7777), params)
	residual := tensor.New(dim)
	optim, err := cfg.newOptimizer(dim)
	if err != nil {
		t.Fatal(err)
	}
	batchSrcs := make([]*rng.Source, n)
	for r := 0; r < n; r++ {
		batchSrcs[r] = rng.New(cfg.Seed).Split(r + 1)
	}
	grads := make([]tensor.Vector, n)
	for r := range grads {
		grads[r] = tensor.New(dim)
	}
	avg := tensor.New(dim)
	for k := 0; k < iters; k++ {
		for r := 0; r < n; r++ {
			if _, err := cfg.Model.Gradient(params, grads[r], cfg.Batch(batchSrcs[r])); err != nil {
				t.Fatal(err)
			}
		}
		ringFoldAverage(t, grads, avg)
		_ = params.Add(residual) // restore exact master weights
		residual.Zero()
		if _, err := optim.Step(params, avg, 1); err != nil {
			t.Fatal(err)
		}
		tensor.RoundTripEF(tensor.F16, params, residual)
	}
	assertBitIdentical(t, "f16-master-weights", params, results)
}

// TestShardedRNAWithStragglerTrains exercises genuine partial participation
// (PowerOfChoices + a straggler) on the sharded path: the run is not
// bit-comparable across runs, but all ranks must agree bitwise within the
// run and the model must still learn.
func TestShardedRNAWithStragglerTrains(t *testing.T) {
	const n = 4
	cfg, ds := blobConfig(t, 60)
	cfg.Adam = true
	cfg.ShardedUpdate = true
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
	results := trainCluster(t, n, func(m transport.Mesh) (*Result, error) {
		return RunRNAWorker(m, ctrl, cfg)
	})
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
