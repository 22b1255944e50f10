package core

import (
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/model"
	"repro/internal/tensor"
	"repro/internal/transport"
)

func TestEagerMailbox(t *testing.T) {
	bufs, err := NewAccumulator(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := &eagerMailbox{bufs: bufs}
	put := func(v float64) {
		g := b.Lease()
		g[0] = v
		if _, err := b.Commit(0, 0, g); err != nil {
			t.Fatal(err)
		}
	}
	take := func() tensor.Vector {
		g, n, _ := b.TakeN(0)
		if n != 1 {
			t.Fatalf("a contribution carries %d mini-batches, want 1", n)
		}
		return g
	}
	if got, n, _ := b.TakeN(0); n != 0 {
		t.Fatalf("empty take = %v, %d mini-batches", got, n)
	}
	put(1)
	put(2) // overwrites unconsumed
	if got := take(); got[0] != 2 {
		t.Fatalf("take = %v, want newest (2)", got)
	}
	// Stale duplicate re-contribution.
	if got := take(); got[0] != 2 {
		t.Fatalf("stale take = %v, want 2", got)
	}
	put(3)
	if got := take(); got[0] != 3 {
		t.Fatalf("take = %v, want 3", got)
	}
	// Returned vectors are copies, with the flag slot every source promises.
	got := take()
	if cap(got) < len(got)+1 {
		t.Fatalf("take returned cap %d for len %d, want a spare flag slot", cap(got), len(got))
	}
	got[0] = 99
	b.Recycle(got)
	if again := take(); again[0] != 3 {
		t.Fatalf("take exposed internal state: %v", again)
	}
}

func TestEagerWorkerTrains(t *testing.T) {
	const n = 4
	cfg, ds := blobConfig(t, 80)
	ctrl, err := controller.New(controller.Majority, n, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	results := trainCluster(t, n, func(m transport.Mesh) (*Result, error) {
		return RunEagerWorker(m, ctrl, cfg)
	})
	for r := 1; r < n; r++ {
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
		t.Errorf("eager top-1 = %v", top1)
	}
	// Momentum-SGD keeps one velocity per parameter; eager reports it like
	// every other path.
	if want := int64(8 * cfg.Model.Dim()); results[0].OptStateBytes != want {
		t.Errorf("eager OptStateBytes = %d (want %d)", results[0].OptStateBytes, want)
	}
}

func TestEagerWorkerStaleDuplicatesUnderStraggler(t *testing.T) {
	const n = 4
	cfg, _ := blobConfig(t, 40)
	// Everyone takes ~1 ms per step so rounds pace at ~1 ms; the
	// straggler takes 3 ms and must fall back on stale re-sends.
	cfg.SlowDown = func(r, _ int) time.Duration {
		if r == 3 {
			return 3 * time.Millisecond
		}
		return time.Millisecond
	}
	ctrl, err := controller.New(controller.Majority, n, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	results := trainCluster(t, n, func(m transport.Mesh) (*Result, error) {
		return RunEagerWorker(m, ctrl, cfg)
	})
	// The straggler still contributes most rounds (stale duplicates
	// stand in for missing fresh gradients after its first contribution).
	slow := results[3]
	if slow.Contributed < cfg.Iterations/2 {
		t.Errorf("straggler contributed only %d/%d (stale re-sends should fill in)",
			slow.Contributed, cfg.Iterations)
	}
	for r := 1; r < n; r++ {
		if !results[r].Params.Equal(results[0].Params, 1e-9) {
			t.Fatalf("rank %d params diverged", r)
		}
	}
}

func TestEagerWorkerValidation(t *testing.T) {
	net, err := transport.NewLocalNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	mesh, err := net.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := controller.New(controller.Solo, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunEagerWorker(mesh, ctrl, TrainConfig{}); err == nil {
		t.Error("empty config should error")
	}
}
