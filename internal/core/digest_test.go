package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// trajectoryDigests pins the training trajectory of every deterministic
// worker path to the bits the code produced when the constants were recorded
// (PR 13's parent commit, dc15839). The bit-identity tests elsewhere in this
// package compare two paths of the SAME commit, so a change that moves both
// sides alike passes them; this table is the cross-commit guard. A change
// that legitimately alters the arithmetic re-records the rows it moves (the
// failure message prints them in table syntax) and says why.
var trajectoryDigests = map[string]uint64{
	"bsp/replicated/f16/adam/n=3": 0x5cec6e1904e2bf5d,
	"bsp/replicated/f16/adam/n=4": 0xe2ebba1cd12f1fc9,
	"bsp/replicated/f16/sgd/n=3":  0x15005e1d68b10104,
	"bsp/replicated/f16/sgd/n=4":  0x559dac3b29ff45a1,
	"bsp/replicated/f64/adam/n=3": 0xfe6ddff2f869507f,
	"bsp/replicated/f64/adam/n=4": 0xa3d9b603eacaf378,
	"bsp/replicated/f64/sgd/n=3":  0xfbca6ab6bd130ab9,
	"bsp/replicated/f64/sgd/n=4":  0x1f7b48fbe7e58a03,
	"bsp/sharded/f16/adam/n=3":    0x2c0449521af2e33f,
	"bsp/sharded/f16/adam/n=4":    0xa5d247e557350ca4,
	"bsp/sharded/f16/sgd/n=3":     0xd50b1b1016616a96,
	"bsp/sharded/f16/sgd/n=4":     0x9fd30038aef0af8e,
	"bsp/sharded/f64/adam/n=3":    0xf6146c2d6179b009,
	"bsp/sharded/f64/adam/n=4":    0x8947781760c9cbc1,
	"bsp/sharded/f64/sgd/n=3":     0xbef9d64b6e17f2aa,
	"bsp/sharded/f64/sgd/n=4":     0x93d66a33cf90c323,
	"rna/replicated/f16/adam/n=3": 0x8375bd89d321642a,
	"rna/replicated/f16/adam/n=4": 0xf6a10cf9eef5831f,
	"rna/replicated/f16/sgd/n=3":  0xe48c4d61ed6c0b52,
	"rna/replicated/f16/sgd/n=4":  0x44a36c95711d7c8e,
	"rna/replicated/f64/adam/n=3": 0xfe6ddff2f869507f,
	"rna/replicated/f64/adam/n=4": 0xa3d9b603eacaf378,
	"rna/replicated/f64/sgd/n=3":  0xfbca6ab6bd130ab9,
	"rna/replicated/f64/sgd/n=4":  0x1f7b48fbe7e58a03,
	"rna/sharded/f16/adam/n=3":    0x2c0449521af2e33f,
	"rna/sharded/f16/adam/n=4":    0xa5d247e557350ca4,
	"rna/sharded/f16/sgd/n=3":     0xd50b1b1016616a96,
	"rna/sharded/f16/sgd/n=4":     0x9fd30038aef0af8e,
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
// deterministic RNA schedule) over the replicated and sharded paths, f64 and f16 wires, SGD and Adam, 3 and 4 in-memory
// ranks, and compares each run against its recorded digest.
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
			for _, wire := range []tensor.Dtype{tensor.F64, tensor.F16} {
				for _, adam := range []bool{false, true} {
					for _, n := range []int{3, 4} {
						optName := "sgd"
						if adam {
							optName = "adam"
						}
						name := fmt.Sprintf("%s/%s/%v/%s/n=%d", protocol, path.name, wire, optName, n)
						t.Run(name, func(t *testing.T) {
							t.Parallel()
							cfg := mlpConfig(t, 12, 24, 10)
							cfg.Compression, cfg.Adam = wire, adam
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
}
