package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/stats"
)

// Every repetition runs in a fresh child process: the driver re-executes
// itself with -child. Clusters built one after another in one process drift
// (pools, heap and socket state carry over: three hier_ps clusters in one
// process measured 8.4 → 9.8 → 11.0 s, in fresh processes 8.79–9.08 s), and
// a child can be killed when it hangs, which matters because Mesh.Recv has
// no deadline.

// stat summarises one metric over a run's samples. Value is what the run
// reports (the metric's own percentile); the rest is printed beside it.
type stat struct {
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarise(vs []float64, m metric) stat {
	if len(vs) == 0 {
		return stat{}
	}
	return stat{Value: percentile(vs, m.pct), Median: percentile(vs, 50), Min: percentile(vs, 0), Max: percentile(vs, 100), N: len(vs)}
}

// percentile is stats.Sample.Percentile (linear interpolation between
// closest ranks) with an empty sample reading 0.
func percentile(vs []float64, p float64) float64 {
	var s stats.Sample
	s.AddAll(vs)
	v, _ := s.Percentile(p) // the only error left is the empty sample
	return v
}

// runResult is one timed run of one workload with one seed: what the
// driver's contract calls a run, and one row of a -out file.
type runResult struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Traced    bool     `json:"traced"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// EndToEnd is filled by the untraced pass, Layers by the traced one.
	// Reps keeps what every repetition measured, in rep order: its wall-clock
	// time and samples to the target, whole-repetition throughput, memory,
	// set-ups (1+extraSetups each), final loss and where in its budget it
	// crossed the target.
	EndToEnd map[string]stat      `json:"end_to_end,omitempty"`
	Reps     map[string][]float64 `json:"reps,omitempty"`
	Layers   map[string]float64   `json:"layers,omitempty"`
	// Counts holds the sample count behind each percentile in Layers.
	Counts map[string]int `json:"counts,omitempty"`
	Stress []stressCheck  `json:"stress,omitempty"`
	// Digest is repetition 0's loss digest (BSP workloads).
	Digest string `json:"digest,omitempty"`
}

func (r *runResult) fail(what string, err error) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf("%s: %v", what, err))
}

// launcher starts one child and returns its stdout. Tests substitute it to
// exercise the failure accounting without real clusters.
type launcher func(ctx context.Context, args []string) ([]byte, error)

func selfLauncher(ctx context.Context, args []string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	return cmd.Output()
}

// errWatchdog marks a child killed for exceeding its time limit.
var errWatchdog = errors.New("watchdog: child exceeded its time limit and was killed")

// child runs one child under a watchdog and decodes the JSON object on the
// last line of its output into out.
func child(launch launcher, limit time.Duration, out any, args ...string) error {
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	stdout, err := launch(ctx, args)
	if ctx.Err() != nil {
		return fmt.Errorf("%w (limit %v)", errWatchdog, limit)
	}
	if err != nil {
		return fmt.Errorf("child exited: %w", err)
	}
	stdout = bytes.TrimSpace(stdout)
	if i := bytes.LastIndexByte(stdout, '\n'); i >= 0 {
		stdout = stdout[i+1:]
	}
	if err := json.Unmarshal(stdout, out); err != nil {
		return fmt.Errorf("child output: %w", err)
	}
	return nil
}

// watchdog is three times the repetition's expected time, and at least 20 s:
// the reference host stalls for seconds at a time (two hier_ps repetitions
// expected to take 1.7 s were killed at 5.1 s while the machine ran at a
// third of its speed), and a stall is not a hang.
func (s *spec) watchdog() time.Duration {
	return max(20*time.Second, time.Duration(3*s.repSeconds*float64(time.Second)))
}

// repChild runs one repetition in a fresh child. A repetition that ran but
// failed its checks comes back as an error carrying the reason.
func repChild(launch launcher, s *spec, seed int64, rep int, traced bool) (repResult, error) {
	args := []string{"-child", "-workload", s.name, "-seed", strconv.FormatInt(seed, 10), "-rep", strconv.Itoa(rep)}
	limit := s.watchdog()
	if traced {
		args = append(args, "-trace", "1")
		limit *= 2 // the traced child also analyses and writes its spans
	}
	var r repResult
	err := child(launch, limit, &r, args...)
	if err == nil && r.Failed != "" {
		err = errors.New(r.Failed)
	}
	return r, err
}

// runUntraced is the end-to-end pass. It is time-boxed: fresh-process
// repetitions, each on its own sub-seed, are launched for as long as one
// more is expected to end within `seconds`, so a slow host shortens the
// sample instead of lengthening the run. Workloads that mostly sleep run
// spec.lanes repetitions side by side, their starts staggered, which is the
// only way to see enough of them in one run.
//
// What the run reports, over the repetitions that succeeded:
//   - samples_per_s: the fast-side decile over the throughput windows of all
//     repetitions. A window is short enough to fall between the host's
//     disturbances, and a run holds hundreds of them.
//   - time_to_target_s: each repetition's samples consumed up to the target
//     over that samples_per_s, and of these the median. It is the time to the
//     target at the run's undisturbed speed: the wall-clock time, which a
//     busy host stretches by up to 2×, is kept in Reps and printed.
//   - peak_rss_mb: the median over repetitions.
//   - setup_s: the fast side (p5) of every set-up of every repetition.
func runUntraced(launch launcher, s *spec, seed int64, seconds float64) *runResult {
	type outcome struct {
		rep int
		r   repResult
		err error
	}
	var (
		mu   sync.Mutex
		done []outcome
		wg   sync.WaitGroup
	)
	lanes := max(1, s.lanes)
	start := time.Now()
	box := time.Duration((seconds - s.repSeconds) * float64(time.Second))
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Spread the lanes' starts over one repetition, so their set-up
			// phases do not coincide.
			time.Sleep(time.Duration(float64(lane) / float64(lanes) * min(s.repSeconds, seconds) * float64(time.Second)))
			// Lane l runs repetitions l, l+lanes, ...: which sub-seeds a run
			// draws does not depend on how the lanes interleave.
			for rep := lane; rep == lane || time.Since(start) < box; rep += lanes {
				r, err := repChild(launch, s, seed, rep, false)
				mu.Lock()
				done = append(done, outcome{rep, r, err})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(done, func(i, j int) bool { return done[i].rep < done[j].rep })

	res := &runResult{Workload: s.name, Seed: seed, EndToEnd: map[string]stat{}, Reps: map[string][]float64{}}
	var windows []float64
	for _, o := range done {
		res.Attempted++
		if o.err != nil {
			res.fail(fmt.Sprintf("rep %d", o.rep), o.err)
			continue
		}
		if o.rep == 0 {
			res.Digest = o.r.Digest
		}
		for name, v := range map[string]float64{
			"wall_time_to_target_s": o.r.TimeToTargetS, "samples_to_target": o.r.SamplesToTarget,
			"rep_samples_per_s": o.r.SamplesPerS, "peak_rss_mb": o.r.PeakRSSMB,
			"final_loss": o.r.FinalLoss, "cross_share": o.r.CrossShare,
		} {
			res.Reps[name] = append(res.Reps[name], v)
		}
		windows = append(windows, o.r.Windows...)
		res.Reps[setupS.name] = append(res.Reps[setupS.name], o.r.Setups...)
	}
	sps := summarise(windows, samplesPerS)
	var times []float64
	for _, n := range res.Reps["samples_to_target"] {
		if sps.Value > 0 {
			times = append(times, n/sps.Value)
		}
	}
	res.EndToEnd[timeToTarget.name] = summarise(times, timeToTarget)
	res.EndToEnd[samplesPerS.name] = sps
	res.EndToEnd[peakRSS.name] = summarise(res.Reps[peakRSS.name], peakRSS)
	res.EndToEnd[setupS.name] = summarise(res.Reps[setupS.name], setupS)
	return res
}

// tracePairs is how many untraced/traced repetition pairs the per-layer pass
// alternates. One pair cannot resolve a 5 % overhead: repetitions of one
// workload differ by more than that. Each side is summarised as
// samples_per_s is, over the throughput windows of its repetitions.
const tracePairs = 3

// runTraced is the per-layer pass: alternating untraced and traced
// repetitions on the same inputs (the ratio of their throughputs is the
// tracing overhead), then the stand-alone probes. The in-situ metrics
// and the trace file come from the last traced repetition. End-to-end
// numbers never come from here.
func runTraced(launch launcher, s *spec, seed int64) *runResult {
	res := &runResult{Workload: s.name, Seed: seed, Traced: true, Layers: map[string]float64{}, Counts: map[string]int{}}
	rep := func(what string, traced bool) repResult {
		res.Attempted++
		r, err := repChild(launch, s, seed, 0, traced)
		if err != nil {
			res.fail(what, err)
		}
		return r
	}
	var plain, traced repResult
	var plainSPS, tracedSPS []float64
	for i := 0; i < tracePairs; i++ {
		plain = rep("untraced rep", false)
		plainSPS = append(plainSPS, plain.Windows...)
		traced = rep("traced rep", true)
		tracedSPS = append(tracedSPS, traced.Windows...)
	}
	var probed probeResult
	res.Attempted++
	if err := child(launch, 2*time.Minute, &probed, "-child", "-probe", "-workload", s.name, "-seed", strconv.FormatInt(seed, 10)); err != nil {
		res.fail("probes", err)
	}
	if res.Failed > 0 {
		return res
	}
	if plain.Digest != traced.Digest {
		res.fail("traced rep", fmt.Errorf("loss digest %s differs from the untraced %s: the wrappers changed the arithmetic", traced.Digest, plain.Digest))
	}
	for k, v := range traced.InSitu.Metrics {
		res.Layers[k] = v
	}
	for k, v := range probed.Metrics {
		res.Layers[k] = v
	}
	for _, counts := range []map[string]int{traced.InSitu.Counts, probed.Counts} {
		for k, v := range counts {
			res.Counts[k] = v
		}
	}
	res.Layers["model.contention_ratio"] = res.Layers["model.gradient_ms_p50"] / res.Layers["model.gradient_solo_ms_p50"]
	overhead := 1 - summarise(tracedSPS, samplesPerS).Value/summarise(plainSPS, samplesPerS).Value
	res.Layers["trace_overhead_share"] = overhead
	res.Stress = traced.InSitu.Stress
	if s.name == "dense_bsp" {
		res.Stress = append(res.Stress, stressCheck{Met: overhead <= 0.05, Text: fmt.Sprintf("tracing costs %.1f%% of samples_per_s (<= 5%%)", 100*overhead)})
	}
	for _, m := range perLayer {
		if _, ok := res.Layers[m.name]; !ok {
			res.fail("layers", fmt.Errorf("metric %s was not measured", m.name))
		}
	}
	return res
}

// report prints one run for a reader: every metric by name and unit, the
// failures, and for the traced pass the stress checks.
func report(w io.Writer, r *runResult) {
	fmt.Fprintf(w, "%s  seed %d  operations %d  failed %d\n", r.Workload, r.Seed, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	if !r.Traced {
		for _, m := range endToEnd {
			st := r.EndToEnd[m.name]
			fmt.Fprintf(w, "  %-20s %14.6g %-4s (p%.0f of n=%d; median %.6g, min %.6g, max %.6g; %s is better, bound %.0f%%)\n",
				m.name, st.Value, m.unit, m.pct, st.N, st.Median, st.Min, st.Max, m.better, 100*m.bound)
		}
		// What a busy host does to the run: the same two quantities on the
		// wall clock of whole repetitions.
		fmt.Fprintf(w, "  %-20s %14.6g s    (median over repetitions, from the first worker launch)\n", "wall_time_to_target", percentile(r.Reps["wall_time_to_target_s"], 50))
		fmt.Fprintf(w, "  %-20s %14.6g 1/s  (median over whole repetitions)\n", "rep_samples_per_s", percentile(r.Reps["rep_samples_per_s"], 50))
		if r.Digest != "" {
			fmt.Fprintf(w, "  %-20s %14s      (rank 0 loss sequence of rep 0)\n", "loss_digest", r.Digest)
		}
		return
	}
	for _, m := range perLayer {
		v, ok := r.Layers[m.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-40s %14.6g %s", m.name, v, m.unit)
		if n, ok := r.Counts[m.name]; ok {
			fmt.Fprintf(w, " (n=%d)", n)
		}
		fmt.Fprintln(w)
	}
	for _, c := range r.Stress {
		fmt.Fprintf(w, "  %s\n", c)
	}
}
