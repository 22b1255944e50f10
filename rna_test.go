package rna

import (
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/rng"
)

func facadeConfig(t *testing.T) (TrainConfig, *data.Dataset) {
	t.Helper()
	src := rng.New(5)
	ds, err := data.Blobs(src, 4, 5, 50, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewLogistic(ds)
	if err != nil {
		t.Fatal(err)
	}
	return TrainConfig{
		Model:      m,
		Batch:      func(s *rng.Source) []int { return ds.Batch(s, 16) },
		LR:         0.25,
		Momentum:   0.9,
		Iterations: 40,
		Seed:       11,
	}, ds
}

func TestTrainClusterRNA(t *testing.T) {
	cfg, ds := facadeConfig(t)
	results, err := TrainCluster(4, 2, PolicyPowerOfChoices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	for r := 1; r < 4; r++ {
		if !results[r].Params.Equal(results[0].Params, 1e-9) {
			t.Fatalf("rank %d params diverged", r)
		}
	}
	cls := cfg.Model.(model.Classifier)
	top1, _, err := cls.Accuracy(results[0].Params, model.All(ds), 1)
	if err != nil {
		t.Fatal(err)
	}
	if top1 < 0.8 {
		t.Errorf("top-1 = %v after facade RNA training", top1)
	}
}

func TestTrainClusterBSP(t *testing.T) {
	cfg, _ := facadeConfig(t)
	results, err := TrainCluster(3, 0, PolicyAllReady, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Contributed != cfg.Iterations {
		t.Errorf("BSP contributed = %d, want %d", results[0].Contributed, cfg.Iterations)
	}
}

func TestTrainClusterTCP(t *testing.T) {
	cfg, _ := facadeConfig(t)
	cfg.Iterations = 15
	results, err := TrainClusterTCP(3, 2, PolicyPowerOfChoices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < 3; r++ {
		if !results[r].Params.Equal(results[0].Params, 1e-9) {
			t.Fatalf("rank %d params diverged over TCP", r)
		}
	}
}

func TestTrainClusterInvalid(t *testing.T) {
	cfg, _ := facadeConfig(t)
	if _, err := TrainCluster(0, 2, PolicyPowerOfChoices, cfg); err == nil {
		t.Error("0 workers should error")
	}
	if _, err := TrainClusterTCP(0, 2, PolicyPowerOfChoices, cfg); err == nil {
		t.Error("0 TCP workers should error")
	}
	if _, err := TrainCluster(2, 0, PolicyPowerOfChoices, cfg); err == nil {
		t.Error("power-of-choices with q=0 should error")
	}
}

func TestExperimentFacade(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) == 0 {
		t.Fatal("no experiments registered")
	}
	title, err := ExperimentTitle(ids[0])
	if err != nil || title == "" {
		t.Fatalf("title = (%q, %v)", title, err)
	}
	rep, err := RunExperiment("fig10", ExperimentOptions{Seed: 3, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Body == "" {
		t.Error("empty report")
	}
}

func TestSimulateFacade(t *testing.T) {
	cfg, ds := facadeConfig(t)
	_ = cfg
	m, err := model.NewLogistic(ds)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(SimulationConfig{
		Strategy:      RNA,
		Workers:       4,
		Model:         m,
		Dataset:       ds,
		BatchSize:     16,
		LR:            0.25,
		Momentum:      0.9,
		Step:          simStep{},
		Spec:          simSpec(),
		MaxIterations: 50,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 50 {
		t.Errorf("iterations = %d", res.Iterations)
	}
	if res.TrainAcc < 0.7 {
		t.Errorf("train accuracy = %v", res.TrainAcc)
	}
}

func TestTrainClusterADPSGD(t *testing.T) {
	cfg, ds := facadeConfig(t)
	cfg.Iterations = 60
	results, err := TrainClusterADPSGD(4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	consensus, err := ConsensusModel(results)
	if err != nil {
		t.Fatal(err)
	}
	cls := cfg.Model.(model.Classifier)
	top1, _, err := cls.Accuracy(consensus, model.All(ds), 1)
	if err != nil {
		t.Fatal(err)
	}
	if top1 < 0.75 {
		t.Errorf("AD-PSGD consensus top-1 = %v", top1)
	}
	if _, err := TrainClusterADPSGD(1, cfg); err == nil {
		t.Error("single-worker AD-PSGD should error")
	}
}

func TestTrainClusterHierarchical(t *testing.T) {
	cfg, ds := facadeConfig(t)
	cfg.Iterations = 60
	groups := []Group{{Members: []int{0, 1}}, {Members: []int{2, 3}}}
	results, err := TrainClusterHierarchical(groups, 2, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	// Within-group equality.
	if !results[0].Params.Equal(results[1].Params, 1e-9) {
		t.Error("group 0 ranks diverged")
	}
	if !results[2].Params.Equal(results[3].Params, 1e-9) {
		t.Error("group 1 ranks diverged")
	}
	cls := cfg.Model.(model.Classifier)
	top1, _, err := cls.Accuracy(results[0].Params, model.All(ds), 1)
	if err != nil {
		t.Fatal(err)
	}
	if top1 < 0.75 {
		t.Errorf("hierarchical facade top-1 = %v", top1)
	}
	// Groups that do not partition 0..n−1 are refused before anything
	// starts: with the parameter server on rank n, a group naming rank n
	// would wait on it forever.
	for name, groups := range map[string][]Group{
		"empty":     nil,
		"gap":       {{Members: []int{0, 1}}, {Members: []int{2, 4}}},
		"duplicate": {{Members: []int{0, 1}}, {Members: []int{1, 2}}},
		"negative":  {{Members: []int{0, 1}}, {Members: []int{2, -1}}},
	} {
		done := make(chan error, 1)
		go func() {
			_, err := TrainClusterHierarchical(groups, 2, 0, cfg)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s groups %v: accepted", name, groups)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s groups %v: no answer within 10 s", name, groups)
		}
	}
}

func TestPartitionWorkersFacade(t *testing.T) {
	obs := [][]time.Duration{
		{100 * time.Millisecond, 100 * time.Millisecond},
		{100 * time.Millisecond, 100 * time.Millisecond},
		{500 * time.Millisecond, 500 * time.Millisecond},
		{500 * time.Millisecond, 500 * time.Millisecond},
	}
	groups, err := PartitionWorkers(obs)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("groups = %+v", groups)
	}
}
