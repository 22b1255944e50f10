package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/transport"
)

// smokeScale shrinks every workload to about a fiftieth of its budget, so
// the whole harness runs in-process within a few seconds.
const smokeScale = 1.0 / 50

// smokeRep runs one in-process repetition of a scaled workload. At these
// budgets the loss target is out of reach, so errNotConverged is expected;
// anything else is a failure.
func smokeRep(t *testing.T, s *spec, traced bool) (*repResult, *repData) {
	t.Helper()
	d, _, err := execute(s, 1, 0, traced, time.Now())
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	out := &repResult{}
	if err := evaluate(d, out); err != nil && !errors.Is(err, errNotConverged) {
		t.Fatalf("%s: %v", s.name, err)
	}
	return out, d
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload traced at a fiftieth of its budget plus its
// probes, and requires every per-layer metric the tables name to come out.
func TestSmoke(t *testing.T) {
	for _, full := range workloads {
		s := full.scaled(smokeScale)
		res, d := smokeRep(t, s, true)
		if res.SamplesPerS <= 0 || len(res.Windows) == 0 || percentile(res.Windows, 0) <= 0 {
			t.Errorf("%s: samples_per_s = %v, windows %v", s.name, res.SamplesPerS, res.Windows)
		}
		insitu, err := layerStats(d)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		probed, _, err := runProbes(s, 1, smokeScale)
		if err != nil {
			t.Fatalf("%s probes: %v", s.name, err)
		}
		path, err := writeTrace(t.TempDir(), d, 1, insitu.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if b, err := os.ReadFile(path); err != nil || json.Unmarshal(b, &tf) != nil || len(tf.Spans) == 0 {
			t.Errorf("%s: trace file unreadable or empty (%v)", s.name, err)
		}
		derived := map[string]bool{"model.contention_ratio": true, "trace_overhead_share": true}
		for _, m := range perLayer {
			_, a := insitu.Metrics[m.name]
			_, b := probed[m.name]
			if !a && !b && !derived[m.name] {
				t.Errorf("%s: metric %s not produced", s.name, m.name)
			}
		}
	}
}

func TestMetricTables(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(m.name) {
			t.Errorf("metric name %q", m.name)
		}
		if m.unit == "" || (m.better != "lower" && m.better != "higher") {
			t.Errorf("metric %s: unit %q better %q", m.name, m.unit, m.better)
		}
		if seen[m.name] {
			t.Errorf("metric %s listed twice", m.name)
		}
		seen[m.name] = true
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step with
// the tables in this package.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              float64
	}
	var f struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []jm `json:"end_to_end"`
		PerLayer  []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", f.Paths)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q / %q differs from the spec %q", i, w.Name, w.Why, workloads[i].name)
		}
	}
	same := func(kind string, got []jm, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics listed, %d defined", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || g.Bound != w.bound {
				t.Errorf("%s %d: %+v differs from %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd)
	same("per_layer", f.PerLayer, perLayer)
}

// TestWrappersKeepCodePath: the wrappers forward every optional capability
// the runtime probes for, and a traced dense_bsp run is bit-identical to an
// untraced one.
func TestWrappersKeepCodePath(t *testing.T) {
	var mesh transport.Mesh = &tracedMesh{}
	if _, ok := mesh.(transport.OwnedSender); !ok {
		t.Error("tracedMesh hides SendOwned")
	}
	if _, ok := mesh.(transport.StreamRouter); !ok {
		t.Error("tracedMesh hides StreamView")
	}
	for _, name := range []string{"dense_bsp", "latency_bsp"} {
		s, _ := findWorkload(name)
		in, err := makeInputs(s, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, inner := in.model.(model.LayeredModel)
		_, wrapped := traceModel(in.model, &rankRec{}).(model.LayeredModel)
		if inner != wrapped {
			t.Errorf("%s: model is layered = %v, wrapped = %v", name, inner, wrapped)
		}
	}

	s, _ := findWorkload("dense_bsp")
	s = s.scaled(0.1)
	plain, dp := smokeRep(t, s, false)
	traced, dt := smokeRep(t, s, true)
	if plain.Digest == "" || plain.Digest != traced.Digest {
		t.Errorf("loss digest: untraced %q, traced %q", plain.Digest, traced.Digest)
	}
	for r := range dp.results {
		if !bitEqual(dp.results[r].Params, dt.results[r].Params) {
			t.Errorf("rank %d: traced params differ from untraced", r)
		}
	}
	if n := len(dt.recs[0].comm); n == 0 {
		t.Error("traced run recorded no mesh spans")
	}
}

// TestGroupBIsDelayed: closures are bound to the global rank, so hier_ps's
// per-node injector slows group B (ranks 2, 3) and nobody else.
// RunHierarchicalWorker hands SlowDown the group-local rank, so a closure
// shared between workers would silently delay nobody in group B.
func TestGroupBIsDelayed(t *testing.T) {
	full, _ := findWorkload("hier_ps")
	s := full.scaled(0.1)
	_, d := smokeRep(t, s, true)
	medianStep := func(rank int) time.Duration {
		st := d.recs[rank].stamps
		var steps []float64
		for k := 1; k < len(st); k++ {
			steps = append(steps, float64(st[k]-st[k-1]))
		}
		return time.Duration(percentile(steps, 50))
	}
	for _, r := range []int{2, 3} {
		if got := medianStep(r); got < 20*time.Millisecond {
			t.Errorf("rank %d (group B): median step %v is below its 20ms injected delay", r, got)
		}
	}
	// Group A is not delayed at all. (Asked of the spans, not of the clock:
	// under the race detector an undelayed step takes longer than 20 ms.)
	sleeps := func(rank int) (n int) {
		for _, sp := range d.recs[rank].compute {
			if sp.Kind == kSleep {
				n++
			}
		}
		return n
	}
	if a, b := sleeps(0)+sleeps(1), sleeps(2)+sleeps(3); a != 0 || b != 2*s.groups[1].syncs {
		t.Errorf("injected sleeps: %d in group A (want 0), %d in group B (want %d)", a, b, 2*s.groups[1].syncs)
	}
}

// TestFailureAccounting: a child that exceeds its watchdog, exits with an
// error, or ends with diverging rank Params is a failed operation with its
// reason, and the driver still reports every other workload and fails.
func TestFailureAccounting(t *testing.T) {
	hang := func(ctx context.Context, _ []string) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	var r repResult
	if err := child(hang, 20*time.Millisecond, &r); !errors.Is(err, errWatchdog) {
		t.Errorf("hung child: %v, want the watchdog error", err)
	}

	// A real divergence, as evaluate reports it.
	s, _ := findWorkload("latency_bsp")
	_, d := smokeRep(t, s.scaled(smokeScale), false)
	d.results[1].Params[0] += 1
	diverged := evaluate(d, &repResult{})
	if diverged == nil || !strings.Contains(diverged.Error(), "params diverge") {
		t.Fatalf("diverging params: %v", diverged)
	}

	good := func(name string) []byte {
		b, _ := json.Marshal(&repResult{Workload: name, SamplesToTarget: 1, Windows: []float64{2}, PeakRSSMB: 3, Setups: []float64{4}})
		return b
	}
	launch := func(ctx context.Context, args []string) ([]byte, error) {
		name := args[2] // -child -workload <name> ...
		switch name {
		case "hetero_bsp":
			return nil, errors.New("exit status 2")
		case "dense_rna":
			b, _ := json.Marshal(&repResult{Workload: name, Failed: diverged.Error()})
			return b, nil
		}
		return good(name), nil
	}
	var out bytes.Buffer
	file, ok := runAll(&out, launch, workloads, options{seed: 1, seeds: 1})
	if ok {
		t.Error("runAll passed although two workloads failed")
	}
	for _, run := range file.Runs {
		wantFailed := run.Workload == "hetero_bsp" || run.Workload == "dense_rna"
		if (run.Failed > 0) != wantFailed || run.Failed > run.Attempted {
			t.Errorf("%s: %d of %d operations failed", run.Workload, run.Failed, run.Attempted)
		}
		if !strings.Contains(out.String(), fmt.Sprintf("%s  seed 1", run.Workload)) {
			t.Errorf("%s missing from the report", run.Workload)
		}
	}
	for _, reason := range []string{"exit status 2", "params diverge"} {
		if !strings.Contains(out.String(), reason) {
			t.Errorf("report does not give the reason %q:\n%s", reason, out.String())
		}
	}
	if len(file.Runs) != len(workloads) {
		t.Errorf("%d runs reported, want %d", len(file.Runs), len(workloads))
	}
}

// TestRunSummary: a run pools the throughput windows and the set-ups of its
// repetitions, reports their fast side, and prices every repetition's samples
// to the target at that throughput.
func TestRunSummary(t *testing.T) {
	s, _ := findWorkload("dense_bsp")
	launch := func(_ context.Context, args []string) ([]byte, error) {
		r := repResult{Workload: s.name, SamplesToTarget: 1000, Windows: []float64{100, 100}, PeakRSSMB: 7, Setups: []float64{0.5, 0.25}}
		if args[len(args)-1] == "0" { // ... -rep <i>
			r.Windows = []float64{50, 200} // one disturbed window, one fast one
		}
		return json.Marshal(&r)
	}
	res := runUntraced(launch, s, 1, 0) // no time left: one repetition per lane
	if res.Attempted != 1 || res.Failed != 0 {
		t.Fatalf("%d attempted, %d failed", res.Attempted, res.Failed)
	}
	sps, ttt, setup := res.EndToEnd["samples_per_s"], res.EndToEnd["time_to_target_s"], res.EndToEnd["setup_s"]
	if want := percentile([]float64{50, 200}, 90); sps.Value != want || sps.N != 2 {
		t.Errorf("samples_per_s = %+v, want p90 = %v of 2 windows", sps, want)
	}
	if want := 1000 / sps.Value; ttt.Value != want {
		t.Errorf("time_to_target_s = %v, want %v", ttt.Value, want)
	}
	if want := percentile([]float64{0.5, 0.25}, setupS.pct); setup.Value != want {
		t.Errorf("setup_s = %v, want %v", setup.Value, want)
	}
}

func TestCompare(t *testing.T) {
	if q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want Python's 2.75 5.5 8.25", q1, q2, q3)
	}
	write := func(name string, scale map[string]float64, jitter float64) string {
		var f outFile
		for i := 0; i < 10; i++ {
			wobble := 1 + jitter*float64(i-5)/5
			e2e := map[string]stat{}
			for _, m := range endToEnd {
				v := 100 * wobble
				if k, ok := scale[m.name]; ok {
					v *= k
				}
				e2e[m.name] = stat{Value: v, N: 5}
			}
			f.Runs = append(f.Runs, &runResult{Workload: "dense_bsp", Seed: int64(i), EndToEnd: e2e})
		}
		b, _ := json.Marshal(&f)
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", nil, 0.01)
	var out bytes.Buffer
	if regressed, err := compareFiles(&out, base, write("same.json", nil, 0.01)); err != nil || regressed {
		t.Errorf("A/A: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	// Throughput down 40 % is a regression; time down 40 % is a gain.
	slower := write("b.json", map[string]float64{"samples_per_s": 0.6, "time_to_target_s": 0.6}, 0.01)
	regressed, err := compareFiles(&out, base, slower)
	if err != nil || !regressed || strings.Count(out.String(), "REGRESSION") != 1 {
		t.Errorf("regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	if _, err := compareFiles(&out, base, write("noisy.json", nil, 0.5)); err != nil || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a noisy side must read unresolved: err=%v\n%s", err, out.String())
	}
}
