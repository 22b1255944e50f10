package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/collective"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Collective micro-benchmark mode: rnabench -collective re-measures the ring
// AllReduce hot path with testing.Benchmark and writes a machine-readable
// BENCH_collective.json next to the repo's recorded numbers, so perf
// regressions show up as a diff instead of an anecdote.

// collectiveBenchCase is one measured configuration.
type collectiveBenchCase struct {
	Name        string  `json:"name"`
	Ranks       int     `json:"ranks"`
	Dim         int     `json:"dim"`
	NsPerOp     int64   `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_sec"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// algoBenchCase is one (algorithm, ranks, dim) point of the multi-algorithm
// sweep.
type algoBenchCase struct {
	Algorithm string  `json:"algorithm"`
	Ranks     int     `json:"ranks"`
	Dim       int     `json:"dim"`
	NsPerOp   int64   `json:"ns_per_op"`
	MBPerSec  float64 `json:"mb_per_sec"`
}

// crossoverRow summarizes one (ranks, dim) point: the measured cost of each
// schedule, which fixed schedule won, what the auto-selector picked, and the
// selection regret — the picked schedule's fixed-run timing vs the best
// fixed run.
type crossoverRow struct {
	Ranks         int     `json:"ranks"`
	Dim           int     `json:"dim"`
	RingNs        int64   `json:"ring_ns"`
	TreeNs        int64   `json:"tree_ns"`
	AutoNs        int64   `json:"auto_ns"`
	Best          string  `json:"best"`
	AutoPick      string  `json:"auto_pick"`
	AutoWithinPct float64 `json:"auto_within_pct"`
}

// collectiveBenchReport is the BENCH_collective.json schema.
type collectiveBenchReport struct {
	// Seed are the checked-in numbers for the pre-optimization serial ring
	// (measured on the same benchmark definitions at the seed commit).
	Seed []collectiveBenchCase `json:"seed_baseline"`
	// Current are the numbers measured by this run.
	Current []collectiveBenchCase `json:"current"`
	// GateSpeedup/GateAllocRatio compare the n8/dim262144 acceptance case
	// (current vs seed): throughput ratio and allocs-per-op ratio.
	GateSpeedup    float64 `json:"gate_speedup_throughput"`
	GateAllocRatio float64 `json:"gate_alloc_reduction"`
	// CalibrationSource records which cost model drove the auto rows:
	// "default" or the calibration file path.
	CalibrationSource string `json:"calibration_source"`
	// Algorithms is the per-algorithm sweep over (ranks, dim).
	Algorithms []algoBenchCase `json:"algorithms"`
	// Crossover condenses the sweep into one row per (ranks, dim).
	Crossover []crossoverRow `json:"crossover"`
	// GateAutoWithinPct is max over all points of the selection regret —
	// how far the schedule the auto-selector picks lands above the best
	// fixed run, in percent; the bar is <= 10.
	GateAutoWithinPct float64 `json:"gate_auto_within_pct"`
	// Framing is the v1 wire-protocol sweep (see framing.go): codec cost,
	// header overhead and sustained TCP message rate across 64 B – 8 MiB
	// payloads. GateFramingAllocsPerOp is the worst codec allocation count
	// (bar == 0); GateFramingHeaderPct is the header overhead at a 256 KiB
	// payload (bar <= 1).
	Framing                []framingRow `json:"framing"`
	GateFramingAllocsPerOp int64        `json:"gate_framing_allocs_per_op"`
	GateFramingHeaderPct   float64      `json:"gate_framing_header_pct"`
	// Sharded is the owner-computes update sweep over loopback TCP (see
	// shardbench.go): reduction plus optimizer step, replicated on the fused
	// ring against the ring pair with the owned step between its halves.
	// GateShardedComposedRatio is the largest owner/replicated ratio over
	// the rows where AlgoAuto selects the owner-computes update; the bar is
	// <= 1.1 — inside the sweep's spread, the default costs nothing where it
	// is the default.
	Sharded                  []shardSweepRow `json:"sharded"`
	GateShardedComposedRatio float64         `json:"gate_sharded_composed_ratio"`
	// PS is the parameter-server sweep (see psbench.go): aggregate
	// concurrent push-pull throughput by group count for the in-process
	// snapshot store (with the seed single-lock store as the baseline
	// column) and for the networked TCP PS service.
	// GatePSSpeedup is the 8-group in-memory throughput over the seed
	// store's (bar >= 2.0); GatePSBitwise records that an ordered chunked
	// f64 exchange sequence over TCP bitwise-matched the loopback store.
	PS            []psRow `json:"ps"`
	GatePSSpeedup float64 `json:"gate_ps_speedup_8group"`
	GatePSBitwise bool    `json:"gate_ps_tcp_bitwise"`
}

// seedBaseline is the seed implementation measured with the identical
// benchmark bodies (BenchmarkRingAllReduce / BenchmarkPartialRingAllReduce)
// before the pipelined ring landed.
var seedBaseline = []collectiveBenchCase{
	{Name: "RingAllReduce", Ranks: 4, Dim: 1 << 10, NsPerOp: 28989, MBPerSec: 282.56, BytesPerOp: 147556, AllocsPerOp: 54},
	{Name: "RingAllReduce", Ranks: 8, Dim: 1 << 18, NsPerOp: 7414451, MBPerSec: 282.85, BytesPerOp: 29375459, AllocsPerOp: 188},
	{Name: "RingAllReduce", Ranks: 16, Dim: 1 << 20, NsPerOp: 119230024, MBPerSec: 70.36, BytesPerOp: 246674329, AllocsPerOp: 637},
	{Name: "PartialRingAllReduce", Ranks: 8, Dim: 1 << 18, NsPerOp: 8880643, MBPerSec: 236.15, BytesPerOp: 31477612, AllocsPerOp: 196},
}

func benchRing(name string, n, dim int, body func(m transport.Mesh, iter int64, v tensor.Vector) error) (collectiveBenchCase, error) {
	net, err := transport.NewLocalNetwork(n)
	if err != nil {
		return collectiveBenchCase{}, err
	}
	defer func() { _ = net.Close() }()
	vecs := make([]tensor.Vector, n)
	for i := range vecs {
		vecs[i] = tensor.New(dim)
		for j := range vecs[i] {
			vecs[i][j] = float64(i + j)
		}
	}
	eps := net.Endpoints()
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.SetBytes(int64(dim * 8))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			done := make(chan error, n)
			for _, m := range eps {
				m := m
				go func() { done <- body(m, int64(i), vecs[m.Rank()]) }()
			}
			for range eps {
				if err := <-done; err != nil && benchErr == nil {
					benchErr = err
				}
			}
		}
	})
	if benchErr != nil {
		return collectiveBenchCase{}, fmt.Errorf("%s n%d dim%d: %w", name, n, dim, benchErr)
	}
	mbps := 0.0
	if s := res.T.Seconds(); s > 0 {
		mbps = float64(res.Bytes) * float64(res.N) / 1e6 / s
	}
	return collectiveBenchCase{
		Name:        name,
		Ranks:       n,
		Dim:         dim,
		NsPerOp:     res.NsPerOp(),
		MBPerSec:    mbps,
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
	}, nil
}

// smokeRingRegression is the benchmark-regression guard: re-measure the
// in-memory ring at the recorded n8/dim262144 acceptance point and fail if it
// lands more than 10% above the ns/op recorded in BENCH_collective.json.
// Min-of-reps damps scheduler noise; a missing or unreadable JSON (fresh
// checkout mid-rework) skips the guard rather than failing CI on
// infrastructure.
func smokeRingRegression(benchPath string) error {
	recorded, err := recordedRingNs(benchPath, 8, 1<<18)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench-smoke: ring regression guard skipped (%v)\n", err)
		return nil
	}
	var best int64
	for r := 0; r < 5; r++ {
		res, err := benchRing("RingAllReduce", 8, 1<<18, func(m transport.Mesh, iter int64, v tensor.Vector) error {
			return collective.RingAllReduce(m, iter, v, collective.OpAverage)
		})
		if err != nil {
			return err
		}
		if best == 0 || res.NsPerOp < best {
			best = res.NsPerOp
		}
	}
	if float64(best) > 1.10*float64(recorded) {
		return fmt.Errorf("ring regressed: %d ns/op vs recorded %d ns/op (>10%%)", best, recorded)
	}
	fmt.Fprintf(os.Stderr, "bench-smoke: ring regression guard ok (%d ns/op vs recorded %d)\n", best, recorded)
	return nil
}

// recordedRingNs pulls the current RingAllReduce ns/op at (ranks, dim) from
// the recorded benchmark JSON.
func recordedRingNs(path string, ranks, dim int) (int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var rep collectiveBenchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return 0, err
	}
	for _, c := range rep.Current {
		if c.Name == "RingAllReduce" && c.Ranks == ranks && c.Dim == dim {
			return c.NsPerOp, nil
		}
	}
	return 0, fmt.Errorf("no recorded RingAllReduce n%d dim%d row in %s", ranks, dim, path)
}

// algoSweepRanks / algoSweepDims define the (ranks, dim) grid of the
// multi-algorithm sweep; every algorithm is measured at every point. The
// dims cover the tiny/small regime where the log-depth tree wins, the
// crossover region (16K), and the bandwidth-bound regime where the
// pipelined ring wins.
var (
	algoSweepRanks = []int{8, 16}
	algoSweepDims  = []int{1 << 8, 1 << 10, 1 << 14, 1 << 16, 1 << 18}
	algoSweepAlgos = []collective.Algorithm{collective.AlgoRing, collective.AlgoTree, collective.AlgoAuto}
	// algoSweepReps repeats each measurement and keeps the fastest run
	// (benchstat-style min), damping scheduler noise: the collectives are
	// sub-millisecond multi-goroutine ops, where a single testing.Benchmark
	// run can swing tens of percent on a busy host. Five reps keep the
	// near-tie points (where two schedules are within noise of each other)
	// from flipping the regret gate on an unlucky run.
	algoSweepReps = 5
)

// runAlgoSweep measures every algorithm at every (ranks, dim) grid point and
// condenses the result into crossover rows plus the selection-regret gate.
func runAlgoSweep(rep *collectiveBenchReport) error {
	ns := make(map[[2]int]map[string]int64)
	for _, n := range algoSweepRanks {
		for _, dim := range algoSweepDims {
			point := map[string]int64{}
			for _, algo := range algoSweepAlgos {
				algo := algo
				fmt.Fprintf(os.Stderr, "collective bench: %s n%d dim%d...\n", algo, n, dim)
				var best collectiveBenchCase
				for r := 0; r < algoSweepReps; r++ {
					res, err := benchRing(algo.String(), n, dim, func(m transport.Mesh, iter int64, v tensor.Vector) error {
						return collective.AllReduceWith(m, iter, v, collective.OpAverage, algo)
					})
					if err != nil {
						return err
					}
					if r == 0 || res.NsPerOp < best.NsPerOp {
						best = res
					}
				}
				rep.Algorithms = append(rep.Algorithms, algoBenchCase{
					Algorithm: algo.String(), Ranks: n, Dim: dim,
					NsPerOp: best.NsPerOp, MBPerSec: best.MBPerSec,
				})
				point[algo.String()] = best.NsPerOp
			}
			ns[[2]int{n, dim}] = point
		}
	}

	rep.GateAutoWithinPct = 0
	for _, n := range algoSweepRanks {
		for _, dim := range algoSweepDims {
			point := ns[[2]int{n, dim}]
			row := crossoverRow{
				Ranks: n, Dim: dim,
				RingNs:   point[collective.AlgoRing.String()],
				TreeNs:   point[collective.AlgoTree.String()],
				AutoNs:   point[collective.AlgoAuto.String()],
				AutoPick: collective.SelectAlgorithm(n, dim).String(),
			}
			best := row.RingNs
			row.Best = collective.AlgoRing.String()
			if row.TreeNs < best {
				best, row.Best = row.TreeNs, collective.AlgoTree.String()
			}
			// Selection regret: the auto path IS the picked algorithm plus a
			// branch-free Select call, so comparing the picked algorithm's
			// fixed-run timing against the best fixed run isolates what the
			// selector costs from run-to-run benchmark noise. AutoNs (the
			// independently measured auto run) stays in the row for
			// transparency.
			row.AutoWithinPct = (float64(point[row.AutoPick])/float64(best) - 1) * 100
			if row.AutoWithinPct < 0 {
				row.AutoWithinPct = 0
			}
			rep.Crossover = append(rep.Crossover, row)
			if row.AutoWithinPct > rep.GateAutoWithinPct {
				rep.GateAutoWithinPct = row.AutoWithinPct
			}
		}
	}
	return nil
}

// runCollectiveBench measures the recorded configurations and writes the
// JSON report to outPath. calibrationPath optionally points at a persisted
// `rnabench -calibrate` model for the auto rows.
func runCollectiveBench(outPath, calibrationPath string) error {
	ring := func(m transport.Mesh, iter int64, v tensor.Vector) error {
		return collective.RingAllReduce(m, iter, v, collective.OpAverage)
	}
	partial := func(m transport.Mesh, iter int64, v tensor.Vector) error {
		pr, err := collective.PartialRingAllReduce(m, iter, v, m.Rank()%2 == 0)
		if err == nil {
			pr.Release()
		}
		return err
	}
	configs := []struct {
		name   string
		n, dim int
		body   func(m transport.Mesh, iter int64, v tensor.Vector) error
	}{
		{"RingAllReduce", 4, 1 << 10, ring},
		{"RingAllReduce", 8, 1 << 18, ring},
		{"RingAllReduce", 16, 1 << 20, ring},
		{"PartialRingAllReduce", 8, 1 << 18, partial},
	}
	rep := collectiveBenchReport{Seed: seedBaseline}
	source, err := loadCalibrationIfPresent(calibrationPath)
	if err != nil {
		return err
	}
	rep.CalibrationSource = source
	fmt.Fprintf(os.Stderr, "collective bench: cost model from %s\n", source)
	for _, c := range configs {
		fmt.Fprintf(os.Stderr, "collective bench: %s n%d dim%d...\n", c.name, c.n, c.dim)
		res, err := benchRing(c.name, c.n, c.dim, c.body)
		if err != nil {
			return err
		}
		rep.Current = append(rep.Current, res)
	}
	if err := runAlgoSweep(&rep); err != nil {
		return err
	}
	if err := runFramingSweep(&rep); err != nil {
		return err
	}
	if err := runShardSweep(&rep); err != nil {
		return err
	}
	if err := runPSSweep(&rep); err != nil {
		return err
	}
	for _, cur := range rep.Current {
		for _, seed := range rep.Seed {
			if cur.Name == "RingAllReduce" && cur.Name == seed.Name && cur.Ranks == 8 && seed.Ranks == 8 && cur.Dim == seed.Dim {
				rep.GateSpeedup = cur.MBPerSec / seed.MBPerSec
				if cur.AllocsPerOp > 0 {
					rep.GateAllocRatio = float64(seed.AllocsPerOp) / float64(cur.AllocsPerOp)
				}
			}
		}
	}
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "collective bench: wrote %s (gate speedup %.2fx, alloc reduction %.1fx)\n",
		outPath, rep.GateSpeedup, rep.GateAllocRatio)
	fmt.Fprintf(os.Stderr, "collective bench: auto within %.1f%% of best (gate <= 10)\n",
		rep.GateAutoWithinPct)
	fmt.Fprintf(os.Stderr, "collective bench: framing codec allocs/op %d (gate == 0), header %.3f%% at 256KiB (gate <= 1)\n",
		rep.GateFramingAllocsPerOp, rep.GateFramingHeaderPct)
	fmt.Fprintf(os.Stderr, "collective bench: owner-computes update / replicated ring update %.2fx at worst where auto selects it (gate <= 1.1)\n",
		rep.GateShardedComposedRatio)
	return nil
}
