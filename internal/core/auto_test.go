package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/collective"
	"repro/internal/controller"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// ringEverywhere installs, for the length of the test, a cost model under
// which AlgoAuto takes the ring at every size, so the auto path can be
// exercised at sizes and at 2 ranks where the shipped constants give the
// vector to the tree. The model is process-global: callers must not run in
// parallel with other tests.
func ringEverywhere(t *testing.T) {
	t.Helper()
	shipped := collective.ActiveCostModel()
	t.Cleanup(func() { collective.SetCostModel(shipped) })
	m := shipped
	m.Tree.AlphaNs = 1e12
	collective.SetCostModel(m)
}

// autoConfig is a logistic model of 1043 = 7·149 parameters: neither it nor
// the flag-extended 1044 = 4·9·29 splits evenly over every rank count the test
// uses, so owned chunks are ragged on both the BSP and the RNA partition.
func autoConfig(t *testing.T, iters int, adam bool) TrainConfig {
	t.Helper()
	ds, err := data.Blobs(rng.New(21), 7, 148, 6, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewLogistic(ds)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dim() != 1043 {
		t.Fatalf("model dim %d, want 1043", m.Dim())
	}
	return TrainConfig{
		Model:          m,
		Batch:          func(s *rng.Source) []int { return ds.Batch(s, 8) },
		LR:             0.05,
		Momentum:       0.9,
		Adam:           adam,
		Iterations:     iters,
		StalenessBound: 1, // with AllReady: the deterministic RNA schedule
		Seed:           42,
	}
}

// TestAutoOwnerComputesMatchesPinnedRing: with nothing set, AlgoAuto on the
// pipelined ring runs the owner-computes update, and the run is bit-identical
// — parameters and every loss — to the replicated update on the pinned ring,
// which is what it replaces: BSP and RNA, in memory and over TCP, 2 to 5
// ranks, SGD and Adam. The optimizer state is carved up, not copied: over the
// ranks it sums to what one replicated rank holds.
func TestAutoOwnerComputesMatchesPinnedRing(t *testing.T) {
	ringEverywhere(t)
	const iters = 8
	clusters := map[string]func(*testing.T, int, func(transport.Mesh) (*Result, error)) []*Result{
		"mem": trainCluster,
		"tcp": tcpTrainCluster,
	}
	workers := map[string]func(transport.Mesh, *controller.Controller, TrainConfig) (*Result, error){
		"bsp": RunBSPWorker,
		"rna": RunRNAWorker,
	}
	for kind, cluster := range clusters {
		if kind == "tcp" && testing.Short() {
			continue
		}
		for protocol, worker := range workers {
			for n := 2; n <= 5; n++ {
				for _, adam := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/n=%d/adam=%v", kind, protocol, n, adam)
					run := func(cfg TrainConfig) []*Result {
						ctrl, err := controller.New(controller.AllReady, n, 0, 1)
						if err != nil {
							t.Fatal(err)
						}
						return cluster(t, n, func(m transport.Mesh) (*Result, error) { return worker(m, ctrl, cfg) })
					}
					auto := autoConfig(t, iters, adam)
					pinned := auto
					pinned.Algorithm = collective.AlgoRing
					got, want := run(auto), run(pinned)
					assertBitsEqual(t, name, got, want)
					if digestResults(got) != digestResults(want) {
						t.Errorf("%s: same parameters, different losses", name)
					}
					var state int64
					for _, res := range got {
						state += res.OptStateBytes
					}
					if state != want[0].OptStateBytes || got[0].OptStateBytes >= want[0].OptStateBytes {
						t.Errorf("%s: owner-computes state sums to %d (rank 0: %d), one replicated rank holds %d",
							name, state, got[0].OptStateBytes, want[0].OptStateBytes)
					}
				}
			}
		}
	}
}

// TestTwoRankAutoMatchesPinnedTree: at 2 ranks AlgoAuto runs the
// owner-computes update on the ring pair at every size, and the run is
// bit-identical — parameters and every loss — to the replicated update on the
// pinned tree, which the shipped constants picked before: BSP and
// deterministic RNA, in memory and over TCP, SGD and Adam, under the shipped
// cost model. Each rank holds half the optimizer state.
func TestTwoRankAutoMatchesPinnedTree(t *testing.T) {
	const n, iters = 2, 8
	clusters := map[string]func(*testing.T, int, func(transport.Mesh) (*Result, error)) []*Result{
		"mem": trainCluster,
		"tcp": tcpTrainCluster,
	}
	workers := map[string]func(transport.Mesh, *controller.Controller, TrainConfig) (*Result, error){
		"bsp": RunBSPWorker,
		"rna": RunRNAWorker,
	}
	for kind, cluster := range clusters {
		if kind == "tcp" && testing.Short() {
			continue
		}
		for protocol, worker := range workers {
			for _, adam := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/adam=%v", kind, protocol, adam)
				run := func(cfg TrainConfig) []*Result {
					ctrl, err := controller.New(controller.AllReady, n, 0, 1)
					if err != nil {
						t.Fatal(err)
					}
					return cluster(t, n, func(m transport.Mesh) (*Result, error) { return worker(m, ctrl, cfg) })
				}
				auto := autoConfig(t, iters, adam)
				pinned := auto
				pinned.Algorithm = collective.AlgoTree
				got, want := run(auto), run(pinned)
				assertBitsEqual(t, name, got, want)
				if digestResults(got) != digestResults(want) {
					t.Errorf("%s: same parameters, different losses", name)
				}
				if got[0].OptStateBytes+got[1].OptStateBytes != want[0].OptStateBytes || got[0].OptStateBytes >= want[0].OptStateBytes {
					t.Errorf("%s: owner-computes state %d + %d, one replicated rank holds %d",
						name, got[0].OptStateBytes, got[1].OptStateBytes, want[0].OptStateBytes)
				}
			}
		}
	}
}

// benchGeometryConfig is a model of the benchmark's dense geometry: an MLP of
// 256 features, 512 hidden units and 16 classes, 139 792 parameters.
func benchGeometryConfig(t *testing.T) TrainConfig {
	t.Helper()
	ds, err := data.Blobs(rng.New(4), 16, 256, 2, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewMLP(ds, 512)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dim() != 139792 {
		t.Fatalf("model dim %d, want 139792", m.Dim())
	}
	return TrainConfig{Model: m, Batch: func(s *rng.Source) []int { return ds.Batch(s, 4) }, LR: 0.008, Momentum: 0.9, Iterations: 1}
}

// TestOwnerComputesSelection: what newStage picks. The owner-computes update
// is the default exactly where AlgoAuto would run the ring pair — where it
// picks the pipelined ring, and at 2 ranks at every size;
// everything else keeps the stage its configuration names.
func TestOwnerComputesSelection(t *testing.T) {
	base := autoConfig(t, 1, false)
	small, _ := blobConfig(t, 1) // 28 parameters: the shipped constants pick the tree
	bench := benchGeometryConfig(t)
	meshes := map[int]transport.Mesh{}
	for _, n := range []int{2, 4} {
		net, err := transport.NewLocalNetwork(n)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = net.Close() }()
		meshes[n] = net.Endpoints()[0]
	}
	rows := []struct {
		name  string
		cfg   TrainConfig
		apply func(*TrainConfig)
		ring  bool // the ring everywhere, or the shipped constants
		want  bool
		n     int // ranks; 0 means 4
	}{
		{"auto on the pipelined ring", base, func(*TrainConfig) {}, true, true, 0},
		{"shipped constants give this size to the tree", base, func(*TrainConfig) {}, false, false, 0},
		{"pinned ring", base, func(c *TrainConfig) { c.Algorithm = collective.AlgoRing }, true, false, 0},
		{"pinned tree", base, func(c *TrainConfig) { c.Algorithm = collective.AlgoTree }, true, false, 0},
		{"asked for, below the envelope", small, func(c *TrainConfig) { c.ShardedUpdate = true }, false, true, 0},
		{"asked for, pinned ring", base, func(c *TrainConfig) {
			c.ShardedUpdate, c.Algorithm = true, collective.AlgoRing
		}, false, true, 0},
		{"2 ranks, the benchmark geometry", bench, func(*TrainConfig) {}, false, true, 2},
		{"2 ranks, 28 parameters", small, func(*TrainConfig) {}, false, true, 2},
		{"2 ranks, pinned tree", base, func(c *TrainConfig) { c.Algorithm = collective.AlgoTree }, false, false, 2},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.ring {
				ringEverywhere(t)
			}
			cfg := row.cfg
			row.apply(&cfg)
			n := row.n
			if n == 0 {
				n = 4
			}
			for _, reduced := range []int{cfg.Model.Dim(), cfg.Model.Dim() + 1} {
				st, err := newStage(meshes[n], &cfg, reduced, nil)
				if err != nil {
					t.Fatal(err)
				}
				if _, got := st.red.(*shardedReducer); got != row.want {
					t.Errorf("reducing %d elements: owner-computes = %v, want %v", reduced, got, row.want)
				}
			}
		})
	}
}

// TestOneContributorNeedsNoScale: the update multiplies the reduced sum by
// 1/count inside its one pass, and with one contributor that changes no bit,
// because x·1 is x — signed zeros, subnormals, infinities and the largest
// finite values included — on both the assembly and the Go kernels (the
// vector is long enough for the former).
func TestOneContributorNeedsNoScale(t *testing.T) {
	special := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1030, -0x1p-1030, math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
		1, -1, math.Pi, 1e-300, -1e300,
	}
	v := make(tensor.Vector, 0, 64*len(special))
	for len(v) < cap(v) {
		v = append(v, special...)
	}
	scaled := append(tensor.Vector(nil), v...)
	scaled.Scale(1 / float64(1))
	for i := range v {
		if math.Float64bits(scaled[i]) != math.Float64bits(v[i]) {
			t.Fatalf("elem %d: %x·1 = %x", i, math.Float64bits(v[i]), math.Float64bits(scaled[i]))
		}
	}
}
