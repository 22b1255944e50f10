// Package experiment contains one runner per table and figure of the
// paper's evaluation (Section 8) plus the motivation studies (Section 2.3)
// and the ablations called out in DESIGN.md. Each runner builds the
// appropriate simulated cluster, executes the training runs on virtual
// time, and renders the same rows/series the paper reports.
package experiment

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/data"
	"repro/internal/hetero"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/trainsim"
	"repro/internal/workload"
)

// runConfigs executes independent training configurations concurrently over
// the shared GOMAXPROCS-bounded pool, returning results in input order. Each
// configuration is fully deterministic given its own seed (and the engines
// are bit-identical at any parallelism), so fanning the runs out cannot
// change a number any report prints.
func runConfigs(cfgs []trainsim.Config) ([]*trainsim.Result, error) {
	results := make([]*trainsim.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	parallel.For(0, len(cfgs), func(i int) {
		results[i], errs[i] = trainsim.Run(cfgs[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Options tunes an experiment run.
type Options struct {
	// Seed drives every random stream (default 1).
	Seed int64
	// Scale in (0,1] shrinks iteration budgets for quick runs; 1 is the
	// full experiment.
	Scale float64
	// Workers overrides the default cluster size where meaningful.
	Workers int
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) scale() float64 {
	if o.Scale <= 0 || o.Scale > 1 {
		return 1
	}
	return o.Scale
}

func (o Options) workers(def int) int {
	if o.Workers > 0 {
		return o.Workers
	}
	return def
}

// iters scales an iteration budget, with a floor that keeps even quick runs
// meaningful.
func (o Options) iters(full int) int {
	n := int(float64(full) * o.scale())
	if n < 20 {
		n = 20
	}
	return n
}

// Report is an experiment's result: a rendered table plus the key metrics,
// so tests and benchmarks can assert on the numbers without re-parsing.
type Report struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Body  string `json:"body"`
	// Metrics holds the headline numbers keyed by a stable name (e.g.
	// "speedup/RNA/ResNet50").
	Metrics map[string]float64 `json:"metrics"`
}

// newReport returns an empty report; Run stamps its ID and title from the
// registry.
func newReport() *Report {
	return &Report{Metrics: make(map[string]float64)}
}

// Runner executes one experiment.
type Runner func(Options) (*Report, error)

// registry maps experiment IDs to runners in presentation order.
var registry = []struct {
	id     string
	title  string
	runner Runner
}{
	{"fig1", "Training time breakdown with different system configurations", Fig1},
	{"fig2", "Inherent load imbalance from training LSTM on UCF101", Fig2},
	{"fig3", "Blocking vs non-blocking AllReduce", Fig3},
	{"fig4", "RNA cross-iteration execution", Fig4},
	{"fig6", "Training speedup over Horovod", Fig6},
	{"fig7", "Convergence curve for LSTM", Fig7},
	{"fig8", "Transformer per-iteration and overall speedups", Fig8},
	{"fig9", "Throughput scalability on Transformer/WMT17", Fig9},
	{"fig10", "Effect of number of choices on response time", Fig10},
	{"table3", "Final training accuracy for different neural networks", Table3},
	{"table4", "Validation accuracy for different neural networks", Table4},
	{"table5", "The transmission cost in RNA", Table5},
	{"ablation-probes", "Probe count q in RNA training", AblationProbes},
	{"ablation-staleness", "Staleness bound in RNA", AblationStaleness},
	{"ablation-lrscale", "Linear Scaling Rule on/off", AblationLRScale},
	{"ablation-ring", "Ring vs naive AllReduce cost", AblationRing},
	{"ablation-copypath", "RNA gradient staging: host copy vs overlap vs direct GPU", AblationCopyPath},
	{"ablation-psfreq", "Hierarchical PS exchange frequency", AblationPSFrequency},
	{"theory-convergence", "Convergence bound of Section 5 on the noisy quadratic", TheoryConvergence},
	{"testbed", "The paper's Table 2 cluster: 32 GPUs across three generations", Testbed},
}

// IDs lists the registered experiment IDs in order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Title returns the registered title for an experiment ID.
func Title(id string) (string, error) {
	for _, e := range registry {
		if e.id == id {
			return e.title, nil
		}
	}
	return "", fmt.Errorf("experiment: unknown id %q", id)
}

// Run executes one experiment by ID and stamps the report with the ID and
// the registered title, the one `rnasim -list` prints.
func Run(id string, opts Options) (*Report, error) {
	for _, e := range registry {
		if e.id == id {
			rep, err := e.runner(opts)
			if rep != nil {
				rep.ID, rep.Title = e.id, e.title
			}
			return rep, err
		}
	}
	return nil, fmt.Errorf("experiment: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
}

// renderTable renders rows under headers with aligned columns.
func renderTable(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return sb.String()
}

// suite bundles the shared learning problem standing in for the paper's
// datasets: a 10-class Gaussian-blob classification task with a held-out
// validation split, trained by multinomial logistic regression.
type suite struct {
	train *data.Dataset
	val   *data.Dataset
	model model.Model
}

func newSuite(seed int64) (*suite, error) {
	src := rng.New(seed)
	full, err := data.Blobs(src, 10, 8, 60, 0.45)
	if err != nil {
		return nil, err
	}
	train, val, err := full.Split(src, 0.2)
	if err != nil {
		return nil, err
	}
	m, err := model.NewLogistic(train)
	if err != nil {
		return nil, err
	}
	return &suite{train: train, val: val, model: m}, nil
}

// paperModel couples a paper workload to its simulated step sampler.
type paperModel struct {
	name string
	spec workload.ModelSpec
	step workload.StepSampler
}

// paperModels returns the evaluation workloads of Section 7.2. Base step
// times are compressed 2x relative to the specs so the paper's injected
// delays (0-50 ms, mixed +50-100 ms) stress the synchronization layer at
// the same straggler-to-compute ratio the testbed saw.
func paperModels() []paperModel {
	compress := func(d time.Duration) time.Duration { return d / 2 }
	return []paperModel{
		{
			name: "ResNet50",
			spec: workload.ResNet50(),
			step: workload.Balanced{Base: compress(workload.ResNet50().BaseStep), Jitter: 0.05},
		},
		{
			name: "VGG16",
			spec: workload.VGG16(),
			step: workload.Balanced{Base: compress(workload.VGG16().BaseStep), Jitter: 0.05},
		},
		{
			name: "LSTM",
			spec: workload.LSTM(),
			step: workload.LongTail{
				MeanStep: compress(1219 * time.Millisecond),
				StdDev:   compress(760 * time.Millisecond),
				Min:      compress(156 * time.Millisecond),
				Max:      compress(8000 * time.Millisecond),
			},
		},
	}
}

// compressedComm scales every communication cost by the same 2x factor as
// the compressed step times, preserving the comm-to-compute and
// copy-to-step ratios of the full-scale system.
func compressedComm() workload.CommModel {
	c := workload.DefaultComm()
	c.Bandwidth *= 2
	c.PCIeBandwidth *= 2
	c.Latency /= 2
	return c
}

// fullModels returns the Section 7.2 workloads at their uncompressed base
// step times (for overhead accounting that must match absolute ratios).
func fullModels() []paperModel {
	return []paperModel{
		{name: "ResNet50", spec: workload.ResNet50(),
			step: workload.Balanced{Base: workload.ResNet50().BaseStep, Jitter: 0.05}},
		{name: "VGG16", spec: workload.VGG16(),
			step: workload.Balanced{Base: workload.VGG16().BaseStep, Jitter: 0.05}},
		{name: "LSTM", spec: workload.LSTM(), step: workload.VideoBatchSampler()},
		{name: "Transformer", spec: workload.Transformer(),
			step: workload.SentenceBatchSampler(workload.Transformer().BaseStep)},
	}
}

// transformerModel returns the Section 7.2.2 workload.
func transformerModel() paperModel {
	return paperModel{
		name: "Transformer",
		spec: workload.Transformer(),
		step: workload.SentenceBatchSampler(workload.Transformer().BaseStep / 2),
	}
}

// baseConfig assembles a trainsim.Config for the shared suite.
func (s *suite) baseConfig(strategy trainsim.Strategy, pm paperModel, workers, iterations int, seed int64) trainsim.Config {
	return trainsim.Config{
		Strategy:      strategy,
		Workers:       workers,
		Model:         s.model,
		Dataset:       s.train,
		EvalSet:       s.val,
		BatchSize:     32,
		LR:            0.3,
		Momentum:      0.9,
		WeightDecay:   1e-4,
		Step:          pm.step,
		Spec:          pm.spec,
		Comm:          compressedComm(),
		MaxIterations: iterations,
		EvalEvery:     5,
		Seed:          seed,
	}
}

// randomHetero is the dynamic-heterogeneity injection of Section 8.1: the
// paper's random 0-50 ms per-iteration delays, plus occasional transient
// spikes standing in for the co-located-workload bursts and mixed GPU
// generations (K80/1080Ti/2080Ti) of the physical testbed, which the
// injected delays rode on top of.
func randomHetero() hetero.Injector {
	return hetero.Stack{
		hetero.UniformRandom{Lo: 0, Hi: 50 * time.Millisecond},
		hetero.TransientSpikes{P: 0.02, Lo: time.Second, Hi: 2 * time.Second},
	}
}

// strategiesUnderTest is the comparison set of Section 7.3.
func strategiesUnderTest() []trainsim.Strategy {
	return []trainsim.Strategy{
		trainsim.Horovod,
		trainsim.EagerSGD,
		trainsim.ADPSGD,
		trainsim.RNA,
	}
}

// fmtDur renders a duration rounded for tables.
func fmtDur(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}

// fmtPct renders a ratio as a percentage.
func fmtPct(x float64) string {
	return fmt.Sprintf("%.1f%%", x*100)
}

// fmtX renders a speedup factor.
func fmtX(x float64) string {
	return fmt.Sprintf("%.2fx", x)
}

// sortedKeys returns map keys in sorted order (stable rendering).
func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
