package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/controller"
	"repro/internal/ps"
	"repro/internal/topology"
	"repro/internal/transport"
)

// hierPSGroups is the 2-groups-of-2 layout the end-to-end PS tests run:
// worker ranks 0..3, leaving rank 4 free for a PS server on a 5-rank mesh.
var hierPSGroups = []topology.Group{
	{Members: []int{0, 1}},
	{Members: []int{2, 3}},
}

// hierPSConfig builds a deterministic hierarchical config: AllReady
// controllers and StalenessBound 1 pin the RNA trajectory, OrderedPS pins
// the global exchange order, so two runs differ only in how the leaders
// reach the parameter server.
func hierPSConfig(t *testing.T) (HierarchicalConfig, []*controller.Controller) {
	t.Helper()
	train, _ := blobConfig(t, 8)
	train.StalenessBound = 1
	cfg := HierarchicalConfig{Train: train, Groups: hierPSGroups, PSEvery: 2, OrderedPS: true}
	return cfg, allReadyControllers(t, cfg.Groups)
}

// allReadyControllers builds one AllReady controller per group.
func allReadyControllers(t *testing.T, groups []topology.Group) []*controller.Controller {
	t.Helper()
	ctrls := make([]*controller.Controller, len(groups))
	for gi, g := range groups {
		var err error
		ctrls[gi], err = controller.New(controller.AllReady, len(g.Members), 0, 1)
		if err != nil {
			t.Fatal(err)
		}
	}
	return ctrls
}

func runHierWorkers(t *testing.T, meshes []transport.Mesh, ctrls []*controller.Controller, cfg HierarchicalConfig) []*Result {
	t.Helper()
	results := make([]*Result, len(meshes))
	errs := make([]error, len(meshes))
	var wg sync.WaitGroup
	for i, m := range meshes {
		i, m := i, m
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = RunHierarchicalWorker(m, ctrls, cfg)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	return results
}

// TestHierarchicalTCPBitwiseMatchesLoopback is the tentpole end-to-end
// gate: a hierarchical run whose leaders reach a dedicated PS rank over TCP
// at an f64 wire finishes with final parameters and losses bitwise equal to
// the same run against the in-process loopback Store.
func TestHierarchicalTCPBitwiseMatchesLoopback(t *testing.T) {
	// Run A: in-process loopback store.
	cfgA, ctrlsA := hierPSConfig(t)
	store := ps.NewStore(4)
	if err := SeedStore(store, cfgA.Train); err != nil {
		t.Fatal(err)
	}
	cfgA.Store = store
	netA, err := transport.NewLocalNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	resA := runHierWorkers(t, netA.Endpoints(), ctrlsA, cfgA)
	_ = netA.Close()

	// Run B: 4 workers + 1 PS rank over real TCP, f64 wire.
	cfgB, ctrlsB := hierPSConfig(t)
	cfgB.PS = &ps.ClientConfig{Servers: []int{4}}
	meshes, err := transport.NewTCPCluster(5)
	if err != nil {
		t.Fatal(err)
	}
	init, err := InitialParams(cfgB.Train)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ps.NewServer(meshes[4], ps.ServerConfig{
		Key: HierarchicalPSKey, Dim: len(init), Init: init,
	})
	if err != nil {
		t.Fatal(err)
	}
	workers := make([]transport.Mesh, 4)
	for i := range workers {
		workers[i] = meshes[i]
	}
	resB := runHierWorkers(t, workers, ctrlsB, cfgB)
	for _, m := range meshes {
		_ = m.Close()
	}
	if err := srv.Wait(); err != nil {
		t.Fatalf("ps server: %v", err)
	}

	for r := range resA {
		a, b := resA[r], resB[r]
		for i := range a.Params {
			if math.Float64bits(a.Params[i]) != math.Float64bits(b.Params[i]) {
				t.Fatalf("rank %d param %d: loopback %v vs tcp %v", r, i, a.Params[i], b.Params[i])
			}
		}
		if len(a.Losses) != len(b.Losses) {
			t.Fatalf("rank %d: %d vs %d loss samples", r, len(a.Losses), len(b.Losses))
		}
		for i := range a.Losses {
			if math.Float64bits(a.Losses[i]) != math.Float64bits(b.Losses[i]) {
				t.Fatalf("rank %d loss %d: loopback %v vs tcp %v", r, i, a.Losses[i], b.Losses[i])
			}
		}
	}
	// The exchanges really went through the networked store: every chunk
	// advanced past its seed version.
	for _, key := range srv.Store().Keys() {
		if v := srv.Store().Version(key); v < 2 {
			t.Errorf("chunk %q version = %d, want ≥ 2", key, v)
		}
	}
}

// TestHierarchicalOrderedLoopbackDeterministic: two ordered loopback runs
// are bitwise identical — the determinism baseline the TCP gate builds on.
func TestHierarchicalOrderedLoopbackDeterministic(t *testing.T) {
	run := func() []*Result {
		cfg, ctrls := hierPSConfig(t)
		store := ps.NewStore(1)
		if err := SeedStore(store, cfg.Train); err != nil {
			t.Fatal(err)
		}
		cfg.Store = store
		net, err := transport.NewLocalNetwork(4)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = net.Close() }()
		return runHierWorkers(t, net.Endpoints(), ctrls, cfg)
	}
	a, b := run(), run()
	for r := range a {
		for i := range a[r].Params {
			if math.Float64bits(a[r].Params[i]) != math.Float64bits(b[r].Params[i]) {
				t.Fatalf("rank %d param %d differs across identical runs", r, i)
			}
		}
	}
}
