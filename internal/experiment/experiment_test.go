package experiment

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

// quick runs every experiment at a small scale; individual shape assertions
// live in the focused tests below.
var quickOpts = Options{Seed: 3, Scale: 0.05}

func TestRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) < 12 {
		t.Fatalf("registry has %d experiments", len(ids))
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate id %q", id)
		}
		seen[id] = true
		title, err := Title(id)
		if err != nil || title == "" {
			t.Errorf("Title(%q) = (%q, %v)", id, title, err)
		}
	}
	if _, err := Title("nope"); err == nil {
		t.Error("unknown title should error")
	}
	if _, err := Run("nope", quickOpts); err == nil {
		t.Error("unknown id should error")
	}
}

func TestAllExperimentsProduceReports(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			rep, err := Run(id, quickOpts)
			if err != nil {
				t.Fatal(err)
			}
			if title, _ := Title(id); rep.ID != id || rep.Title != title {
				t.Errorf("report (%q, %q), registered (%q, %q)", rep.ID, rep.Title, id, title)
			}
			if strings.TrimSpace(rep.Body) == "" {
				t.Error("empty report body")
			}
			if len(rep.Metrics) == 0 {
				t.Error("no metrics recorded")
			}
		})
	}
}

func TestFig1Shape(t *testing.T) {
	rep, err := Fig1(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	// The fast worker must wait more than the slowest worker, on both
	// models.
	for _, m := range []string{"ResNet56", "VGG16"} {
		if rep.Metrics["waitfrac/"+m+"/w1"] <= rep.Metrics["waitfrac/"+m+"/w3"] {
			t.Errorf("%s: fast worker wait %.3f not above slow worker wait %.3f",
				m, rep.Metrics["waitfrac/"+m+"/w1"], rep.Metrics["waitfrac/"+m+"/w3"])
		}
	}
}

func TestFig2Shape(t *testing.T) {
	rep, err := Fig2(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if m := rep.Metrics["video/mean"]; m < 170 || m > 200 {
		t.Errorf("video mean %.1f outside paper's ~186", m)
	}
	if m := rep.Metrics["batchms/mean"]; m < 1100 || m > 1350 {
		t.Errorf("batch-time mean %.0f ms outside paper's ~1219", m)
	}
}

func TestFig3Shape(t *testing.T) {
	rep, err := Fig3(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics["time/RNA"] >= rep.Metrics["time/Horovod"] {
		t.Errorf("RNA timeline (%.3fs) should finish its iterations before BSP (%.3fs)",
			rep.Metrics["time/RNA"], rep.Metrics["time/Horovod"])
	}
	if !strings.Contains(rep.Body, "o") {
		t.Error("non-blocking trace should show null contributions")
	}
}

func TestFig4Shape(t *testing.T) {
	rep, err := Fig4(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics["nullrate"] <= 0 {
		t.Error("cross-iteration example should show null contributions")
	}
	if rep.Metrics["trainacc"] < 0.5 {
		t.Errorf("training accuracy %.2f too low", rep.Metrics["trainacc"])
	}
}

func TestFig6Shape(t *testing.T) {
	rep, err := Fig6(Options{Seed: 3, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// RNA beats Horovod on every random-heterogeneity workload.
	for _, wl := range []string{"ResNet50", "VGG16", "LSTM"} {
		if s := rep.Metrics["speedup/RNA/"+wl]; s <= 1.0 {
			t.Errorf("RNA speedup on %s = %.2f, want > 1", wl, s)
		}
	}
	// Under mixed (deterministic) heterogeneity the bounded-delay gate
	// paces plain RNA at the slow group's rate — the probabilistic
	// approach cannot handle the deterministic slowdown — while the
	// hierarchical scheme restores a clear win (the paper's §4 headline).
	for _, wl := range []string{"ResNet50-M", "VGG16-M"} {
		rnaM := rep.Metrics["speedup/RNA/"+wl]
		hierM := rep.Metrics["speedup/RNA-H/"+wl]
		if hierM <= rnaM {
			t.Errorf("%s: RNA-H (%.2f) should beat plain RNA (%.2f)", wl, hierM, rnaM)
		}
		if hierM <= 1.2 {
			t.Errorf("%s: RNA-H speedup = %.2f, want clearly above Horovod", wl, hierM)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	rep, err := Fig8(Options{Seed: 3, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, env := range []string{"homogeneous", "heterogeneous"} {
		if s := rep.Metrics["periter/"+env+"/RNA"]; s <= 1.0 {
			t.Errorf("RNA per-iteration speedup (%s) = %.2f", env, s)
		}
		if s := rep.Metrics["overall/"+env+"/RNA"]; s <= 1.0 {
			t.Errorf("RNA overall speedup (%s) = %.2f", env, s)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	rep, err := Fig9(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	// RNA throughput at 32 processes beats Horovod's.
	if rep.Metrics["throughput/32/RNA"] <= rep.Metrics["throughput/32/Horovod"] {
		t.Errorf("RNA throughput (%.2f) should beat Horovod (%.2f) at 32 processes",
			rep.Metrics["throughput/32/RNA"], rep.Metrics["throughput/32/Horovod"])
	}
}

func TestFig10Shape(t *testing.T) {
	rep, err := Fig10(Options{Seed: 3, Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics["ratio/q1q2"] < 1.3 {
		t.Errorf("q1/q2 median ratio = %.2f, want ≥ 1.3 (paper: 2.4)", rep.Metrics["ratio/q1q2"])
	}
	// Oversampling beyond a handful of probes stops helping.
	if rep.Metrics["median/q8"] < rep.Metrics["median/q4"]*0.9 {
		t.Errorf("q=8 median (%.1f) should not be much below q=4 (%.1f)",
			rep.Metrics["median/q8"], rep.Metrics["median/q4"])
	}
	// Spread shrinks from one choice to two.
	if rep.Metrics["spread/q2"] >= rep.Metrics["spread/q1"] {
		t.Errorf("q=2 spread (%.1f) should be below q=1 (%.1f)",
			rep.Metrics["spread/q2"], rep.Metrics["spread/q1"])
	}
}

func TestTable3Shape(t *testing.T) {
	rep, err := Table3(Options{Seed: 3, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	// AD-PSGD must not beat Horovod on final accuracy for the plain
	// ResNet column (paper: clearly lower).
	if rep.Metrics["acc/AD-PSGD/ResNet"] > rep.Metrics["acc/Horovod/ResNet"]+0.03 {
		t.Errorf("AD-PSGD accuracy (%.3f) above Horovod (%.3f)",
			rep.Metrics["acc/AD-PSGD/ResNet"], rep.Metrics["acc/Horovod/ResNet"])
	}
}

func TestTable4Shape(t *testing.T) {
	rep, err := Table4(Options{Seed: 3, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// RNA completes more iterations than Horovod in a fixed time budget.
	for _, m := range []string{"ResNet50", "LSTM"} {
		if rep.Metrics["iters/"+m+"/RNA"] <= rep.Metrics["iters/"+m+"/Horovod"] {
			t.Errorf("%s: RNA iterations (%v) not above Horovod (%v)",
				m, rep.Metrics["iters/"+m+"/RNA"], rep.Metrics["iters/"+m+"/Horovod"])
		}
	}
}

func TestTable5Shape(t *testing.T) {
	rep, err := Table5(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	vgg := rep.Metrics["measured/VGG16"]
	resnet := rep.Metrics["measured/ResNet50"]
	lstm := rep.Metrics["measured/LSTM"]
	tf := rep.Metrics["measured/Transformer"]
	if !(vgg > tf && tf > resnet && resnet > lstm) {
		t.Errorf("overhead ordering violated: vgg=%.3f tf=%.3f resnet=%.3f lstm=%.3f",
			vgg, tf, resnet, lstm)
	}
	// Paper's bands: ResNet50 6.2%, LSTM 3.8%, VGG16 23%, Transformer 18%.
	if resnet < 0.02 || resnet > 0.12 {
		t.Errorf("ResNet50 overhead %.3f outside plausible band around 6.2%%", resnet)
	}
	if vgg < 0.15 || vgg > 0.40 {
		t.Errorf("VGG16 overhead %.3f outside plausible band around 23%%", vgg)
	}
}

func TestAblationLRScaleShape(t *testing.T) {
	rep, err := AblationLRScale(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics["loss/scaled"] <= 0 || rep.Metrics["loss/unscaled"] <= 0 {
		t.Error("missing losses")
	}
}

func TestAblationRingShape(t *testing.T) {
	rep, err := AblationRing(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if adv := rep.Metrics["advantage/VGG16/32"]; adv < 16 {
		t.Errorf("ring advantage at 32 workers = %.1f, want ≫ 1", adv)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.seed() != 1 {
		t.Errorf("default seed = %d", o.seed())
	}
	if o.scale() != 1 {
		t.Errorf("default scale = %v", o.scale())
	}
	if o.workers(8) != 8 {
		t.Errorf("default workers = %d", o.workers(8))
	}
	if o.iters(5) != 20 {
		t.Errorf("iters floor = %d, want 20", o.iters(5))
	}
	o = Options{Scale: 2, Workers: 3, Seed: 9}
	if o.scale() != 1 {
		t.Errorf("scale > 1 should clamp to 1")
	}
	if o.workers(8) != 3 || o.seed() != 9 {
		t.Error("explicit options ignored")
	}
}

func TestRenderTable(t *testing.T) {
	out := renderTable([]string{"a", "bbbb"}, [][]string{{"xxxxx", "y"}, {"1", "2"}})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "-----") {
		t.Errorf("missing separator:\n%s", out)
	}
}

func TestTheoryConvergenceShape(t *testing.T) {
	rep, err := TheoryConvergence(Options{Seed: 3, Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	var ks []int
	for key := range rep.Metrics {
		var k int
		if _, err := fmt.Sscanf(key, "gradsq/K%d", &k); err == nil {
			ks = append(ks, k)
		}
	}
	sort.Ints(ks)
	if len(ks) != 3 {
		t.Fatalf("rate metrics for K = %v, want three budgets: %v", ks, rep.Metrics)
	}
	// Every budget must converge: finite, and below 411, what the smallest
	// budget read at this seed and scale while a synchronization stepped
	// once per rank (a run past the step bound reads 1e8 and more). More
	// iterations must lower both the norm and the sqrt(K)-scaled norm.
	const ceiling = 411
	prev, prevScaled := math.Inf(1), math.Inf(1)
	for _, k := range ks {
		g2 := rep.Metrics[fmt.Sprintf("gradsq/K%d", k)]
		scaled := g2 * math.Sqrt(float64(k))
		if math.IsNaN(g2) || math.IsInf(g2, 0) || g2 >= ceiling {
			t.Errorf("K=%d: ‖∇f‖² = %v, want finite and below %v", k, g2, ceiling)
		}
		if g2 >= prev || scaled > prevScaled {
			t.Errorf("K=%d: ‖∇f‖² = %v (x sqrt(K) %v) did not fall from %v (%v)",
				k, g2, scaled, prev, prevScaled)
		}
		prev, prevScaled = g2, scaled
	}
	// Staleness independence: η=16 within 10x of η=2 (noise floor).
	if rep.Metrics["gradsq/eta16"] > rep.Metrics["gradsq/eta2"]*10 {
		t.Errorf("staleness dependence: eta2=%v eta16=%v",
			rep.Metrics["gradsq/eta2"], rep.Metrics["gradsq/eta16"])
	}
}

func TestTestbedShape(t *testing.T) {
	rep, err := Testbed(Options{Seed: 3, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// On the three-generation hardware mix, hierarchical RNA must beat
	// every flat protocol.
	hier := rep.Metrics["speedup/RNA-H"]
	for _, st := range []string{"eager-SGD", "AD-PSGD", "RNA"} {
		if hier <= rep.Metrics["speedup/"+st] {
			t.Errorf("RNA-H (%.2f) should beat %s (%.2f) on the Table 2 mix",
				hier, st, rep.Metrics["speedup/"+st])
		}
	}
	if hier <= 1.5 {
		t.Errorf("RNA-H speedup = %.2f, want clearly above Horovod", hier)
	}
}

func TestTable2SpeedFactors(t *testing.T) {
	f := Table2SpeedFactors()
	if len(f) != 32 {
		t.Fatalf("testbed has %d GPUs, want 32", len(f))
	}
	if f[0] != 2.6 || f[8] != 1.35 || f[31] != 1.0 {
		t.Errorf("factors = %v", f[:32])
	}
}
