package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

// trajectoryDigests pins the training trajectory of every deterministic
// worker path to the bits the code produced when the constants were recorded
// (PR 13's parent commit, dc15839). The bit-identity tests elsewhere in this
// package compare two paths of the SAME commit, so a change that moves both
// sides alike passes them; this table is the cross-commit guard. A change
// that legitimately alters the arithmetic re-records the rows it moves (the
// failure message prints them in table syntax) and says why. Every row runs
// an f64 wire, the only one there is; the name keeps the wire so the rows
// read as they were recorded.
var trajectoryDigests = map[string]uint64{
	"bsp/replicated/f64/adam/n=3": 0xfe6ddff2f869507f,
	"bsp/replicated/f64/adam/n=4": 0xa3d9b603eacaf378,
	"bsp/replicated/f64/sgd/n=3":  0xfbca6ab6bd130ab9,
	"bsp/replicated/f64/sgd/n=4":  0x1f7b48fbe7e58a03,
	"bsp/sharded/f64/adam/n=3":    0xf6146c2d6179b009,
	"bsp/sharded/f64/adam/n=4":    0x8947781760c9cbc1,
	"bsp/sharded/f64/sgd/n=3":     0xbef9d64b6e17f2aa,
	"bsp/sharded/f64/sgd/n=4":     0x93d66a33cf90c323,
	"rna/replicated/f64/adam/n=3": 0xfe6ddff2f869507f,
	"rna/replicated/f64/adam/n=4": 0xa3d9b603eacaf378,
	"rna/replicated/f64/sgd/n=3":  0xfbca6ab6bd130ab9,
	"rna/replicated/f64/sgd/n=4":  0x1f7b48fbe7e58a03,
	"rna/sharded/f64/adam/n=3":    0xf6146c2d6179b009,
	"rna/sharded/f64/adam/n=4":    0xbc6d622766299af5,
	"rna/sharded/f64/sgd/n=3":     0xbef9d64b6e17f2aa,
	"rna/sharded/f64/sgd/n=4":     0x93d66a33cf90c323,
}

// digestResults hashes every rank's final parameters and per-step losses.
func digestResults(results []*Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(vs []float64) {
		for _, v := range vs {
			bits := math.Float64bits(v)
			for i := range b {
				b[i] = byte(bits >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	for _, res := range results {
		put(res.Params)
		put(res.Losses)
	}
	return h.Sum64()
}

// TestTrajectoryDigests runs BSP and RNA (StalenessBound 1 + AllReady, the
// deterministic RNA schedule) over the replicated and sharded paths, SGD and
// Adam, 3 and 4 in-memory ranks, and compares each run against its recorded
// digest.
func TestTrajectoryDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are recorded on amd64; other targets may fuse multiply-adds")
	}
	paths := []struct {
		name  string
		apply func(c *TrainConfig, n int)
	}{
		{"replicated", func(*TrainConfig, int) {}},
		{"sharded", func(c *TrainConfig, _ int) { c.ShardedUpdate = true }},
	}
	for _, protocol := range []string{"bsp", "rna"} {
		for _, path := range paths {
			for _, adam := range []bool{false, true} {
				for _, n := range []int{3, 4} {
					optName := "sgd"
					if adam {
						optName = "adam"
					}
					name := fmt.Sprintf("%s/%s/f64/%s/n=%d", protocol, path.name, optName, n)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						cfg := mlpConfig(t, 12, 24, 10)
						cfg.Adam = adam
						path.apply(&cfg, n)
						got := digestResults(runCluster(t, n, protocol, cfg))
						if want, ok := trajectoryDigests[name]; !ok || got != want {
							t.Errorf("trajectory moved (recorded %#016x):\n\t%q: %#016x,", want, name, got)
						}
					})
				}
			}
		}
	}
}
