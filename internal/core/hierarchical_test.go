package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/model"
	"repro/internal/ps"
	"repro/internal/topology"
	"repro/internal/transport"
)

func TestHierarchicalWorkerTrains(t *testing.T) {
	const n = 6
	train, ds := blobConfig(t, 60)
	groups := []topology.Group{
		{Members: []int{0, 1, 2}},
		{Members: []int{3, 4, 5}},
	}
	ctrls := make([]*controller.Controller, len(groups))
	for gi, g := range groups {
		var err error
		ctrls[gi], err = controller.New(controller.PowerOfChoices, len(g.Members), 2, int64(gi+5))
		if err != nil {
			t.Fatal(err)
		}
	}
	cfg := HierarchicalConfig{Train: train, Groups: groups, PSEvery: 4}
	meshes := memMeshes(t, n+1)
	srv := startPS(t, &cfg, meshes, 0)
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, m := range meshes[:n] {
		i, m := i, m
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := cfg
			if i >= 3 {
				// The second group is deterministically slower.
				c.Train.SlowDown = func(int, int) time.Duration { return 2 * time.Millisecond }
			}
			results[i], errs[i] = RunHierarchicalWorker(m, ctrls, c)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}

	// Within each group, ranks end identical.
	for _, g := range groups {
		base := results[g.Members[0]].Params
		for _, m := range g.Members[1:] {
			if !results[m].Params.Equal(base, 1e-9) {
				t.Fatalf("rank %d diverged within its group", m)
			}
		}
	}
	// The PS coupled the groups: their models must be close (they share
	// the last pulled global plus at most PSEvery local rounds).
	if !results[0].Params.Equal(results[3].Params, 5.0) {
		t.Error("groups wildly diverged despite PS coupling")
	}
	// And the training worked.
	cls := train.Model.(model.Classifier)
	top1, _, err := cls.Accuracy(results[0].Params, model.All(ds), 1)
	if err != nil {
		t.Fatal(err)
	}
	if top1 < 0.75 {
		t.Errorf("hierarchical top-1 = %v", top1)
	}
	// The PS saw exchanges from both groups, on every chunk.
	keys := srv.Store().Keys()
	if len(keys) < 2 {
		t.Fatalf("PS keys %v, want the model's chunks", keys)
	}
	for _, key := range keys {
		if v := psVersion(t, srv, key); v < 3 {
			t.Errorf("PS version of %q = %d, want several pushes", key, v)
		}
	}
}

func TestHierarchicalValidation(t *testing.T) {
	train, _ := blobConfig(t, 5)
	net, err := transport.NewLocalNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	mesh, err := net.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	groups := []topology.Group{{Members: []int{0, 1}}}
	if _, err := RunHierarchicalWorker(mesh, nil, HierarchicalConfig{Train: train, Groups: groups}); !errors.Is(err, errNoPS) {
		t.Errorf("no PS: %v, want errNoPS", err)
	}
	psCfg := &ps.ClientConfig{Servers: []int{1}}
	if _, err := RunHierarchicalWorker(mesh, nil, HierarchicalConfig{
		Train: train, Groups: []topology.Group{{Members: []int{1}}}, PS: psCfg,
	}); err == nil {
		t.Error("rank not in any group should error")
	}
	if _, err := RunHierarchicalWorker(mesh, nil, HierarchicalConfig{
		Train: train, Groups: groups, PS: psCfg,
	}); err == nil {
		t.Error("missing controller should error")
	}
	if _, err := InitialParams(TrainConfig{}); err == nil {
		t.Error("the initial model of a nil model should error")
	}
}

func TestGroupOf(t *testing.T) {
	groups := []topology.Group{{Members: []int{0, 2}}, {Members: []int{1}}}
	gi, g, err := groupOf(groups, 2)
	if err != nil || gi != 0 || g.Size() != 2 {
		t.Errorf("groupOf(2) = (%d,%v,%v)", gi, g, err)
	}
	if _, _, err := groupOf(groups, 9); err == nil {
		t.Error("unknown rank should error")
	}
}
