package trainsim

import (
	"testing"

	"repro/internal/tensor"
	"repro/internal/workload"
)

// shardedSpec keeps the payload an exact multiple of the worker counts the
// tests use, so the ring's bytes/n chunk and the half-collectives' elems/n
// chunk coincide and the composition invariant holds to the nanosecond.
func shardedSpec() workload.ModelSpec {
	return workload.ModelSpec{Params: 1 << 18, BytesPerParam: 8, Layers: 16}
}

func TestShardedUpdateValidation(t *testing.T) {
	cfg := testConfig(t, Horovod, 4, 5)
	cfg.ShardedUpdate = true
	cfg.Strategy = ADPSGD
	if _, err := Run(cfg); err == nil {
		t.Error("sharded AD-PSGD accepted")
	}
	cfg = testConfig(t, Horovod, 4, 5)
	cfg.OptNsPerElem = -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative optimizer cost accepted")
	}
}

// TestShardedFreeUpdateCostsLikeRing: with the optimizer priced free (the
// historical default) the sharded round costs exactly the replicated ring
// round — RS + AG compose to the ring — so flipping ShardedUpdate does not
// silently change existing virtual-time results.
func TestShardedFreeUpdateCostsLikeRing(t *testing.T) {
	for _, strategy := range []Strategy{Horovod, RNA} {
		cfg := testConfig(t, strategy, 4, 20)
		cfg.Spec = shardedSpec()
		repl, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.ShardedUpdate = true
		shard, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if strategy == Horovod {
			if shard.VirtualTime != repl.VirtualTime {
				t.Errorf("%v: sharded %v != replicated %v with free updates",
					strategy, shard.VirtualTime, repl.VirtualTime)
			}
		} else if shard.VirtualTime > repl.VirtualTime {
			// RNA's flag element perturbs the chunking by one element; the
			// sharded price must never exceed the fused ring's.
			t.Errorf("%v: sharded %v > replicated %v", strategy, shard.VirtualTime, repl.VirtualTime)
		}
	}
}

// TestShardedUpdateCheaperWhenOptimizerPriced: once the optimizer step has a
// cost, owner-computes wins — each rank steps dim/n elements instead of dim.
func TestShardedUpdateCheaperWhenOptimizerPriced(t *testing.T) {
	cfg := testConfig(t, Horovod, 8, 20)
	cfg.Spec = shardedSpec()
	cfg.OptNsPerElem = 50 // expensive enough to dominate the round
	repl, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ShardedUpdate = true
	shard, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if shard.VirtualTime >= repl.VirtualTime {
		t.Fatalf("sharded %v not cheaper than replicated %v", shard.VirtualTime, repl.VirtualTime)
	}
}

// TestShardedCompressedGather: a narrow parameter allgather shrinks the
// sharded round against the exact-fp64 one.
func TestShardedCompressedGather(t *testing.T) {
	cfg := testConfig(t, Horovod, 8, 1)
	cfg.Spec = shardedSpec()
	cfg.ShardedUpdate = true
	exact := cfg.updateTail(8, cfg.Spec.GradientBytes(), 0)
	cfg.Compression = tensor.F16
	narrow := cfg.updateTail(8, cfg.Spec.GradientBytes(), 0)
	if narrow >= exact {
		t.Errorf("f16 gather %v not cheaper than fp64 %v", narrow, exact)
	}
}
