package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/controller"
	"repro/internal/data"
	"repro/internal/model"
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

// TestShardedBSPOverTCP: sharded Adam over a real TCP fabric produces the
// same bits as in memory and as the replicated update on the pinned ring.
func TestShardedBSPOverTCP(t *testing.T) {
	const n, iters = 4, 12
	repl, _ := shardedBlobConfig(t, iters, true)
	cfg := repl
	cfg.ShardedUpdate = true
	run := func(cluster func(*testing.T, int, func(transport.Mesh) (*Result, error)) []*Result, cfg TrainConfig) []*Result {
		ctrl, err := controller.New(controller.AllReady, n, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		return cluster(t, n, func(m transport.Mesh) (*Result, error) { return RunBSPWorker(m, ctrl, cfg) })
	}
	tcp := run(tcpTrainCluster, cfg)
	assertBitIdentical(t, "tcp vs in memory", run(trainCluster, cfg)[0].Params, tcp)
	assertBitIdentical(t, "tcp vs replicated", run(trainCluster, repl)[0].Params, tcp)
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
