package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/ps"
	"repro/internal/topology"
	"repro/internal/transport"
)

// repResult is one repetition's report: the line a child process prints.
// A repetition is the benchmark's unit of operation; Failed names why it
// counts as a failed one.
type repResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Rep      int    `json:"rep"`
	Traced   bool   `json:"traced"`
	Failed   string `json:"failed,omitempty"`

	// TimeToTargetS is the wall-clock time from the first worker launch to
	// the target, SamplesToTarget the samples consumed until then, and
	// SamplesPerS the throughput of the whole repetition. Windows holds the
	// throughput of every window of spec.window compute steps; the run's
	// reported metrics are built from these (see runUntraced).
	TimeToTargetS   float64   `json:"time_to_target_s"`
	SamplesToTarget float64   `json:"samples_to_target"`
	SamplesPerS     float64   `json:"samples_per_s"`
	Windows         []float64 `json:"windows,omitempty"`
	PeakRSSMB       float64   `json:"peak_rss_mb"`
	// SetupS is the set-up the repetition trained on; Setups holds it and
	// the extraSetups that were built and torn down after the training.
	SetupS float64   `json:"setup_s"`
	Setups []float64 `json:"setups,omitempty"`

	FinalLoss float64 `json:"final_loss"`
	// CrossShare is where the target was crossed, as a share of all batch
	// losses of the repetition: the budgets aim at 0.3 to 0.8.
	CrossShare float64 `json:"cross_share"`
	// Digest hashes rank 0's loss sequence on BSP workloads. With one seed
	// it is bitwise stable, so a later change can state whether it left the
	// arithmetic alone.
	Digest string `json:"digest,omitempty"`
	// InSitu holds what a traced repetition read from its wrappers.
	InSitu *insitu `json:"in_situ,omitempty"`
}

// repData is what a repetition leaves behind in memory for the trace
// analysis and the tests.
type repData struct {
	spec    *spec
	in      *inputs
	recs    []*rankRec
	results []*core.Result
	mem0    runtime.MemStats // allocator at the end of warm-up (traced)
	mem1    runtime.MemStats // allocator when the last worker returned
}

// runRep runs one repetition of s in this process. start is when the
// process (or the caller) began working on it: set-up time runs from there
// to the first worker launch.
func runRep(s *spec, seed int64, rep int, traced bool, start time.Time) (*repResult, *repData) {
	out := &repResult{Workload: s.name, Seed: seed, Rep: rep, Traced: traced}
	d, setup, err := execute(s, seed, rep, traced, start)
	out.SetupS = setup.Seconds()
	if err != nil {
		out.Failed = err.Error()
		return out, d
	}
	if err := evaluate(d, out); err != nil {
		out.Failed = err.Error()
	}
	out.PeakRSSMB = peakRSSMB()
	out.Setups = []float64{out.SetupS}
	for i := 0; i < extraSetups && !traced && out.Failed == ""; i++ {
		t0 := time.Now()
		c, err := buildCluster(s, seed, rep)
		took := time.Since(t0)
		if err == nil {
			err = c.close()
		}
		if err != nil {
			out.Failed = fmt.Sprintf("extra set-up %d: %v", i, err)
			break
		}
		out.Setups = append(out.Setups, took.Seconds())
	}
	return out, d
}

// extraSetups is how many more times an untraced repetition sets up after
// it has trained. One set-up per repetition gives a run too few samples of a
// time that is 1.5 to 5 ms long. Spread over the repetitions they sample the
// whole run: forty set-ups in a row in a process of their own take 0.1 s and
// land wholly inside one of the host's fast or slow stretches (their p10 read
// 1.2 or 1.8 ms from one run to the next).
const extraSetups = 8

// peakRSSMB is this process's peak resident set. VmHWM belongs to the
// address space, which exec replaces; ru_maxrss instead starts from the
// parent's resident set at fork time, so for a small repetition it reports
// the driver's memory and not the repetition's. It is the fallback where
// /proc is missing.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cluster is everything set-up builds: the inputs, the dialled TCP mesh, one
// controller per group, and the PS server where the workload has one.
type cluster struct {
	in     *inputs
	meshes []*transport.TCPMesh
	ctrls  []*controller.Controller
	groups []topology.Group
	base   core.TrainConfig
	srv    *ps.Server
}

// buildCluster is the set-up that setup_s times: dataset and model build,
// mesh dial and hello negotiation, controller and PS-server start.
func buildCluster(s *spec, seed int64, rep int) (*cluster, error) {
	in, err := makeInputs(s, seed, rep)
	if err != nil {
		return nil, err
	}
	c := &cluster{in: in}
	if c.meshes, err = transport.NewTCPCluster(s.meshSize()); err != nil {
		return nil, err
	}
	fail := func(err error) (*cluster, error) {
		_ = c.close() // the set-up error is the one to report
		return nil, err
	}
	for gi, g := range s.groups {
		c.groups = append(c.groups, topology.Group{Members: g.members})
		ctrl, err := controller.New(s.policy, len(g.members), s.probes, in.ctrlSeed+int64(gi))
		if err != nil {
			return fail(err)
		}
		c.ctrls = append(c.ctrls, ctrl)
	}
	c.base = core.TrainConfig{
		Model: in.model, LR: s.lr, Momentum: s.momentum,
		StalenessBound: s.staleness, Seed: in.trainSeed,
	}
	if s.psRank >= 0 {
		init, err := core.InitialParams(c.base)
		if err == nil {
			c.srv, err = ps.NewServer(c.meshes[s.psRank], ps.ServerConfig{Key: core.HierarchicalPSKey, Dim: len(init), Init: init})
		}
		if err != nil {
			return fail(err)
		}
	}
	return c, nil
}

// close tears the cluster down and reports what the PS server saw.
func (c *cluster) close() error {
	for _, m := range c.meshes {
		_ = m.Close() // teardown; the run's errors are already collected
	}
	if c.srv != nil {
		if err := c.srv.Wait(); err != nil {
			return fmt.Errorf("ps server: %w", err)
		}
	}
	return nil
}

// execute builds the cluster, trains, and tears it down.
func execute(s *spec, seed int64, rep int, traced bool, start time.Time) (*repData, time.Duration, error) {
	c, err := buildCluster(s, seed, rep)
	if err != nil {
		return nil, 0, err
	}
	setup := time.Since(start)
	in, meshes, ctrls, groups, base := c.in, c.meshes, c.ctrls, c.groups, c.base
	d := &repData{spec: s, in: in, recs: make([]*rankRec, ranks), results: make([]*core.Result, ranks)}

	// One TrainConfig copy per worker: the closures and the wrappers are
	// bound to the worker's global rank.
	var warm warmup
	run := make([]func() (*core.Result, error), ranks)
	for gi, g := range s.groups {
		for _, r := range g.members {
			rec := &rankRec{rank: r, traced: traced, stamps: make([]int64, 0, g.syncs+1)}
			if traced {
				// Sized so steady-state appends never allocate: the
				// allocation metrics must not count the harness.
				rec.compute = make([]span, 0, 2*g.syncs+8)
				rec.comm = make([]span, 0, 48*g.syncs+64)
			}
			d.recs[r] = rec
			cfg := base
			cfg.Iterations = g.syncs
			cfg.Batch = rec.batchFunc(in, s.batch, &warm)
			cfg.SlowDown = rec.slowDownFunc(s, in)
			var mesh transport.Mesh = meshes[r]
			if traced {
				cfg.Model = traceModel(in.model, rec)
				mesh = traceMesh(meshes[r], rec)
			}
			ctrl := ctrls[gi]
			switch {
			case s.psRank >= 0:
				hcfg := core.HierarchicalConfig{
					Train: cfg, Groups: groups, PSEvery: 1,
					PS: &ps.ClientConfig{Servers: []int{s.psRank}},
				}
				run[r] = func() (*core.Result, error) { return core.RunHierarchicalWorker(mesh, ctrls, hcfg) }
			case s.bsp():
				run[r] = func() (*core.Result, error) { return core.RunBSPWorker(mesh, ctrl, cfg) }
			default:
				run[r] = func() (*core.Result, error) { return core.RunRNAWorker(mesh, ctrl, cfg) }
			}
		}
	}

	launch := time.Now()
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := range run {
		d.recs[r].epoch = launch
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.results[r], errs[r] = run[r]()
			d.recs[r].end = d.recs[r].now()
		}()
	}
	wg.Wait()
	if traced {
		d.mem0 = warm.mem
		runtime.ReadMemStats(&d.mem1)
		// Two goroutines of a rank append mesh spans; every reader wants
		// them in start order.
		for _, rec := range d.recs {
			sort.Slice(rec.comm, func(i, j int) bool { return rec.comm[i].Start < rec.comm[j].Start })
		}
	}
	if err := c.close(); err != nil {
		return d, setup, err
	}
	for r, err := range errs {
		if err != nil {
			return d, setup, fmt.Errorf("worker %d: %w", r, err)
		}
	}
	return d, setup, nil
}

// errNotConverged marks a repetition that ran correctly but missed its
// frozen loss target or sanity bound. It is a failed operation like any
// other; the smoke tests, which run a fiftieth of the budget, tell it apart.
var errNotConverged = errors.New("not converged")

// evaluate checks the repetition's outputs and derives its end-to-end
// metrics. Any error makes the repetition a failed operation.
func evaluate(d *repData, out *repResult) error {
	s := d.spec
	type obs struct {
		at   int64
		loss float64
	}
	var all []obs
	for r, res := range d.results {
		if len(res.Losses) != len(d.recs[r].stamps) {
			return fmt.Errorf("rank %d: %d losses for %d steps", r, len(res.Losses), len(d.recs[r].stamps))
		}
		for k, l := range res.Losses {
			if math.IsNaN(l) || math.IsInf(l, 0) {
				return fmt.Errorf("rank %d step %d: non-finite loss", r, k)
			}
			all = append(all, obs{d.recs[r].stamps[k], l})
		}
	}
	for _, g := range s.groups {
		lead := d.results[g.members[0]].Params
		for _, r := range g.members[1:] {
			if !bitEqual(lead, d.results[r].Params) {
				return fmt.Errorf("rank %d params diverge from rank %d", r, g.members[0])
			}
		}
		loss, err := d.in.model.Loss(lead, model.All(d.in.ds))
		if err != nil {
			return err
		}
		out.FinalLoss = math.Max(out.FinalLoss, loss)
	}
	if s.bsp() {
		out.Digest = lossDigest(d.results[0].Losses)
	}

	// Throughput: steps started after the last rank passed its warm-up
	// step, over the wall time from that moment to the last rank returning.
	sort.Slice(all, func(i, j int) bool { return all[i].at < all[j].at })
	var warm, end int64
	for _, rec := range d.recs {
		warm = max(warm, rec.stamps[1])
		end = max(end, rec.end)
	}
	first := sort.Search(len(all), func(i int) bool { return all[i].at >= warm })
	rate := func(steps int, ns int64) float64 { return float64(steps*s.batch) / (float64(ns) / 1e9) }
	out.SamplesPerS = rate(len(all)-first, end-warm)
	// The same, window by window: every s.window consecutive step starts of
	// all ranks, in time order. A repetition too short for one whole window
	// (the smoke tests) is one window itself, as is one with s.window == 0.
	out.Windows = out.Windows[:0]
	for i := first; s.window > 0 && i+s.window < len(all); i += s.window {
		out.Windows = append(out.Windows, rate(s.window, all[i+s.window].at-all[i].at))
	}
	if len(out.Windows) == 0 {
		out.Windows = append(out.Windows, out.SamplesPerS)
	}

	if !(out.FinalLoss <= s.sanity) {
		return fmt.Errorf("%w: final full-dataset loss %.4f above sanity bound %.4f", errNotConverged, out.FinalLoss, s.sanity)
	}
	// The target: trailing mean over the last lossWindow batch losses of all
	// ranks, in the order their Batch closures stamped them.
	sum := 0.0
	for i, o := range all {
		sum += o.loss
		if i >= lossWindow {
			sum -= all[i-lossWindow].loss
		}
		if i >= lossWindow-1 && sum/lossWindow <= s.target {
			out.TimeToTargetS = float64(o.at) / 1e9
			out.SamplesToTarget = float64((i + 1) * s.batch)
			out.CrossShare = float64(i+1) / float64(len(all))
			return nil
		}
	}
	return fmt.Errorf("%w: target loss %.3f never reached (last trailing mean %.4f)", errNotConverged, s.target, sum/lossWindow)
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func lossDigest(losses []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, l := range losses {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(l))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
