package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"repro/internal/collective"
	"repro/internal/ps"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// psModelElems is the PS sweep's model size: 32768 f64 elements = 256 KiB,
// the acceptance point of the parameter-server rework.
const psModelElems = 1 << 15

// psOpsPerGroup is how many push-pull exchanges every group performs per
// timed row.
const psOpsPerGroup = 64

// psSweepGroups are the concurrent group counts of the sweep.
var psSweepGroups = []int{1, 2, 4, 8}

// psRow is one parameter-server throughput measurement: `groups`
// concurrent leaders each driving push-pull exchanges of a 256 KiB model,
// reported as aggregate payload throughput (push + pull bytes per wall
// second across all groups).
type psRow struct {
	Groups     int     `json:"groups"`
	Transport  string  `json:"transport"` // "mem" (in-process) or "tcp"
	ModelBytes int64   `json:"model_bytes"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	MBPerSec   float64 `json:"mb_per_sec"`
	// SeedMBPerSec is the seed ps.Store (single RWMutex entry, scalar
	// average, clone under lock) driven by the identical op schedule —
	// the baseline column of the mem rows (0 elsewhere).
	SeedMBPerSec float64 `json:"seed_mb_per_sec,omitempty"`
}

// seedPSStore reimplements the seed commit's ps.Store push-pull path: one
// entry guarded by a mutex, the update applied in place and the result
// cloned while the lock is held. It is the baseline the rework's gate
// measures against.
type seedPSStore struct {
	mu    sync.Mutex
	value tensor.Vector
}

func (s *seedPSStore) pushPull(value tensor.Vector) (tensor.Vector, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.value == nil {
		s.value = value.Clone()
		return s.value.Clone(), nil
	}
	if err := s.value.Add(value); err != nil {
		return nil, err
	}
	return s.value.Clone(), nil
}

// psAggMBPerSec converts `groups`×`ops` push-pull exchanges of `elems`
// f64 elements in `dur` into aggregate MB/s (push + pull payload).
func psAggMBPerSec(groups, ops, elems int, dur time.Duration) float64 {
	if dur <= 0 {
		return 0
	}
	bytes := float64(groups) * float64(ops) * 2 * float64(elems) * 8
	return bytes / 1e6 / dur.Seconds()
}

// benchSeedStore drives the seed baseline with the same concurrency and op
// count as the mem row.
func benchSeedStore(groups int) (float64, error) {
	store := &seedPSStore{}
	init := tensor.New(psModelElems)
	if _, err := store.pushPull(init); err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	errs := make([]error, groups)
	start := time.Now()
	for g := 0; g < groups; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			delta := tensor.New(psModelElems)
			delta.Fill(float64(g + 1))
			for i := 0; i < psOpsPerGroup; i++ {
				if _, err := store.pushPull(delta); err != nil {
					errs[g] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	dur := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return psAggMBPerSec(groups, psOpsPerGroup, psModelElems, dur), nil
}

// benchMemStore drives the reworked chunk-sharded store in process: each
// group leader exchanges chunk-by-chunk against the shared snapshot store,
// exactly the decomposition the networked server applies, so concurrent
// groups interleave on disjoint chunk entries instead of serializing on
// one lock. Results come back through the zero-copy lease path — the seed
// baseline cannot offer one, because its buffer mutates in place and must
// be cloned while the lock is held.
func benchMemStore(groups int) (float64, error) {
	chunks := ps.DefaultChunks
	offsets, err := collective.ShardOffsets(psModelElems, chunks)
	if err != nil {
		return 0, err
	}
	store := ps.NewStore(chunks)
	keys := make([]string, chunks)
	init := tensor.New(psModelElems)
	for c := 0; c < chunks; c++ {
		keys[c] = fmt.Sprintf("%s#%d", "bench-model", c)
		if _, err := store.Push(keys[c], init[offsets[c]:offsets[c+1]], ps.Overwrite); err != nil {
			return 0, err
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, groups)
	start := time.Now()
	for g := 0; g < groups; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			delta := tensor.New(psModelElems)
			delta.Fill(float64(g + 1))
			for i := 0; i < psOpsPerGroup; i++ {
				for c := 0; c < chunks; c++ {
					lo, hi := offsets[c], offsets[c+1]
					lease, err := store.PushPullLease(keys[c], delta[lo:hi], ps.Add, 0)
					if err != nil {
						errs[g] = err
						return
					}
					lease.Release()
				}
			}
		}()
	}
	wg.Wait()
	dur := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return psAggMBPerSec(groups, psOpsPerGroup, psModelElems, dur), nil
}

// benchTCPPS runs `groups` networked clients against one dedicated PS rank
// over real TCP.
func benchTCPPS(groups int) (float64, error) {
	meshes, err := transport.NewTCPCluster(groups + 1)
	if err != nil {
		return 0, err
	}
	defer func() {
		for _, m := range meshes {
			_ = m.Close()
		}
	}()
	serverRank := groups
	init := tensor.New(psModelElems)
	srv, err := ps.NewServer(meshes[serverRank], ps.ServerConfig{
		Key: "bench-model", Dim: psModelElems, Init: init,
	})
	if err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	errs := make([]error, groups)
	start := time.Now()
	for g := 0; g < groups; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli, err := ps.NewClient(meshes[g], ps.ClientConfig{
				Servers: []int{serverRank}, Key: "bench-model", Dim: psModelElems,
			})
			if err != nil {
				errs[g] = err
				return
			}
			delta := tensor.New(psModelElems)
			delta.Fill(float64(g + 1))
			for i := 0; i < psOpsPerGroup; i++ {
				if _, _, err := cli.PushPull(delta, ps.Add, 0); err != nil {
					errs[g] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	dur := time.Since(start)
	for _, m := range meshes {
		_ = m.Close()
	}
	if err := srv.Wait(); err != nil {
		return 0, err
	}
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return psAggMBPerSec(groups, psOpsPerGroup, psModelElems, dur), nil
}

// psBitwiseTCPCheck verifies the protocol-level bit-identity gate: an
// ordered sequence of chunked f64 push-pulls through a TCP client must
// leave bitwise-identical results to the same whole-vector sequence
// against the in-process store (the loopback fast path).
func psBitwiseTCPCheck() (bool, error) {
	const dim = 4096
	const rounds = 6
	init := tensor.New(dim)
	for i := range init {
		init[i] = math.Sqrt(float64(i + 1))
	}
	// Loopback reference.
	store := ps.NewStore(1)
	if _, err := store.Push("m", init, ps.Overwrite); err != nil {
		return false, err
	}
	ref := make([]tensor.Vector, rounds)
	for r := 0; r < rounds; r++ {
		delta := tensor.New(dim)
		for i := range delta {
			delta[i] = math.Sin(float64(r*dim + i))
		}
		out, _, err := store.PushPull("m", delta, ps.Add)
		if err != nil {
			return false, err
		}
		ref[r] = out
	}
	// Same sequence over TCP.
	meshes, err := transport.NewTCPCluster(2)
	if err != nil {
		return false, err
	}
	defer func() {
		for _, m := range meshes {
			_ = m.Close()
		}
	}()
	srv, err := ps.NewServer(meshes[1], ps.ServerConfig{Key: "m", Dim: dim, Init: init})
	if err != nil {
		return false, err
	}
	cli, err := ps.NewClient(meshes[0], ps.ClientConfig{Servers: []int{1}, Key: "m", Dim: dim})
	if err != nil {
		return false, err
	}
	ok := true
	for r := 0; r < rounds; r++ {
		delta := tensor.New(dim)
		for i := range delta {
			delta[i] = math.Sin(float64(r*dim + i))
		}
		out, _, err := cli.PushPull(delta, ps.Add, 0)
		if err != nil {
			return false, err
		}
		for i := range out {
			if math.Float64bits(out[i]) != math.Float64bits(ref[r][i]) {
				ok = false
			}
		}
	}
	for _, m := range meshes {
		_ = m.Close()
	}
	if err := srv.Wait(); err != nil {
		return false, err
	}
	return ok, nil
}

// runPSSweep fills the report's parameter-server rows and gates: aggregate
// push-pull throughput by concurrent group count for the in-process
// snapshot store (vs the seed store's single-lock baseline) and for the
// networked TCP service.
func runPSSweep(rep *collectiveBenchReport) error {
	const modelBytes = psModelElems * 8
	for _, groups := range psSweepGroups {
		fmt.Fprintf(os.Stderr, "ps bench: mem groups=%d...\n", groups)
		seedMBps, err := benchSeedStore(groups)
		if err != nil {
			return err
		}
		memMBps, err := benchMemStore(groups)
		if err != nil {
			return err
		}
		rep.PS = append(rep.PS, psRow{
			Groups: groups, Transport: "mem", ModelBytes: modelBytes,
			OpsPerSec: memMBps * 1e6 / (2 * modelBytes), MBPerSec: memMBps,
			SeedMBPerSec: seedMBps,
		})
		if groups == 8 && seedMBps > 0 {
			rep.GatePSSpeedup = memMBps / seedMBps
		}
		fmt.Fprintf(os.Stderr, "ps bench: tcp groups=%d...\n", groups)
		mbps, err := benchTCPPS(groups)
		if err != nil {
			return err
		}
		rep.PS = append(rep.PS, psRow{
			Groups: groups, Transport: "tcp", ModelBytes: modelBytes,
			OpsPerSec: mbps * 1e6 / (2 * modelBytes), MBPerSec: mbps,
		})
	}
	fmt.Fprintf(os.Stderr, "ps bench: tcp bitwise check...\n")
	ok, err := psBitwiseTCPCheck()
	if err != nil {
		return err
	}
	rep.GatePSBitwise = ok
	return nil
}

// runPSBench is the standalone -ps entry point: it runs only the PS sweep
// and merges the ps rows and gates into an existing BENCH_collective.json
// (or creates a report holding just them), leaving every other section
// untouched.
func runPSBench(outPath string) error {
	var rep collectiveBenchReport
	if raw, err := os.ReadFile(outPath); err == nil {
		if err := json.Unmarshal(raw, &rep); err != nil {
			return fmt.Errorf("parsing existing %s: %w", outPath, err)
		}
		fmt.Fprintf(os.Stderr, "ps bench: merging into existing %s\n", outPath)
	} else if !os.IsNotExist(err) {
		return err
	}
	rep.PS = nil
	if err := runPSSweep(&rep); err != nil {
		return err
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
	fmt.Fprintf(os.Stderr, "ps bench: gate 8-group speedup %.2fx (bar >= 2.0), tcp bitwise %v\n",
		rep.GatePSSpeedup, rep.GatePSBitwise)
	fmt.Fprintf(os.Stderr, "wrote %s\n", outPath)
	return nil
}
