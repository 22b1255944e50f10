// Command rnasim runs virtual-time cluster simulations. By default it runs a
// free-form one: pick a strategy, a paper workload, a heterogeneity pattern
// and a cluster size, and get timing plus convergence results in seconds of
// wall time. With -experiment it regenerates the paper's tables and figures
// instead; `rnasim -experiment all` prints the committed results_full.txt.
//
// Usage:
//
//	rnasim -strategy rna -workload LSTM -workers 16 -hetero uniform -iters 500
//	rnasim -strategy horovod -workload VGG16 -hetero mixed -target 0.4
//	rnasim -list
//	rnasim -experiment fig6,table3 [-scale 0.05] [-seed 1] [-workers 16]
//	rnasim -experiment all
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	rna "repro"
	"repro/internal/data"
	"repro/internal/hetero"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/trainsim"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rnasim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("rnasim", flag.ContinueOnError)
	var (
		strategy = fs.String("strategy", "rna", "rna, rna-h, horovod, eager, solo, adpsgd")
		wl       = fs.String("workload", "ResNet50", "ResNet50, VGG16, ResNet56, LSTM, Transformer, InceptionV3")
		workers  = fs.Int("workers", 8, "cluster size")
		het      = fs.String("hetero", "uniform", "none, uniform, mixed, spikes")
		iters    = fs.Int("iters", 500, "max synchronization rounds")
		target   = fs.Float64("target", 0, "stop at this training loss (0 = disabled)")
		probes   = fs.Int("probes", 2, "RNA probe count")
		bound    = fs.Int("bound", 2, "staleness bound")
		seed     = fs.Int64("seed", 1, "random seed")
		showTrc  = fs.Bool("trace", false, "print the execution timeline")
		curveOut = fs.String("curve", "", "write the convergence curve (time_ms,iter,loss,acc) to this CSV file")

		list        = fs.Bool("list", false, "list the paper's experiment IDs with their titles and exit")
		experiments = fs.String("experiment", "", "run these comma-separated paper experiment IDs, or all, instead of a free-form simulation")
		scale       = fs.Float64("scale", 1, "iteration-budget scale in (0,1] for -experiment")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, id := range rna.ExperimentIDs() {
			title, err := rna.ExperimentTitle(id)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-20s %s\n", id, title)
		}
		return nil
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["experiment"] {
		// -workers reaches an experiment only when given: each experiment
		// has its own cluster size, and the free-form default of 8 would
		// move results_full.txt.
		opts := rna.ExperimentOptions{Seed: *seed, Scale: *scale}
		if set["workers"] {
			opts.Workers = *workers
		}
		return runExperiments(w, *experiments, opts)
	}

	var strat rna.Strategy
	switch *strategy {
	case "rna":
		strat = rna.RNA
	case "rna-h":
		strat = rna.RNAHierarchical
	case "horovod":
		strat = rna.Horovod
	case "eager":
		strat = rna.EagerSGD
	case "solo":
		strat = rna.EagerSGDSolo
	case "adpsgd":
		strat = rna.ADPSGD
	default:
		return fmt.Errorf("unknown strategy %q", *strategy)
	}

	spec, err := workload.ByName(*wl)
	if err != nil {
		return err
	}
	var step workload.StepSampler
	switch spec.Name {
	case "LSTM":
		step = workload.VideoBatchSampler()
	case "Transformer":
		step = workload.SentenceBatchSampler(spec.BaseStep)
	default:
		step = workload.Balanced{Base: spec.BaseStep, Jitter: 0.05}
	}

	var inj hetero.Injector
	switch *het {
	case "none":
		inj = hetero.None{}
	case "uniform":
		inj = hetero.UniformRandom{Lo: 0, Hi: 50 * time.Millisecond}
	case "mixed":
		inj = hetero.NewMixedGroups(*workers)
	case "spikes":
		inj = hetero.TransientSpikes{P: 0.05, Lo: 100 * time.Millisecond, Hi: 400 * time.Millisecond}
	default:
		return fmt.Errorf("unknown heterogeneity %q", *het)
	}

	src := rng.New(*seed)
	full, err := data.Blobs(src, 10, 8, 60, 0.45)
	if err != nil {
		return err
	}
	train, val, err := full.Split(src, 0.2)
	if err != nil {
		return err
	}
	m, err := model.NewLogistic(train)
	if err != nil {
		return err
	}

	cfg := rna.SimulationConfig{
		Strategy:       strat,
		Workers:        *workers,
		Model:          m,
		Dataset:        train,
		EvalSet:        val,
		BatchSize:      32,
		LR:             0.3,
		Momentum:       0.9,
		WeightDecay:    1e-4,
		Step:           step,
		Spec:           spec,
		Comm:           workload.DefaultComm(),
		Injector:       inj,
		Probes:         *probes,
		StalenessBound: *bound,
		MaxIterations:  *iters,
		TargetLoss:     *target,
		Seed:           *seed,
		CollectTrace:   *showTrc,
	}
	fmt.Fprintf(w, "simulating %v on %d workers: %s, hetero=%s\n", strat, *workers, spec, inj.Describe())
	wall := time.Now()
	res, err := rna.Simulate(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "completed %d synchronizations in %v virtual time (%v wall)\n",
		res.Iterations, res.VirtualTime.Round(time.Millisecond), time.Since(wall).Round(time.Millisecond))
	fmt.Fprintf(w, "mean iteration time %v, throughput %.2f it/s, null-contribution rate %.1f%%\n",
		res.MeanIterTime().Round(time.Millisecond), res.Throughput(), res.NullContribRate*100)
	fmt.Fprintf(w, "final loss %.4f, train accuracy %.1f%%, validation top-1 %.1f%% top-5 %.1f%%\n",
		res.FinalLoss, res.TrainAcc*100, res.ValTop1*100, res.ValTop5*100)
	if res.ReachedTarget {
		fmt.Fprintf(w, "target loss %.3f reached\n", *target)
	}
	if len(res.Breakdowns) > 0 {
		names := make([]string, len(res.Breakdowns))
		for i := range names {
			names[i] = fmt.Sprintf("w%d", i)
		}
		fmt.Fprintln(w, "\nper-worker time breakdown:")
		fmt.Fprint(w, stats.Table(names, res.Breakdowns))
	}
	if *showTrc && res.Trace != nil {
		fmt.Fprintln(w, "\nexecution timeline (first second):")
		fmt.Fprint(w, res.Trace.Render(100, time.Second))
	}
	if *curveOut != "" {
		if err := writeCurveCSV(*curveOut, res.Curve); err != nil {
			return err
		}
		fmt.Fprintf(w, "convergence curve written to %s (%d samples)\n", *curveOut, len(res.Curve))
	}
	return nil
}

// runExperiments prints each experiment of a comma-separated ID list, or of
// all of them, under an "=== id: title ===" header. Every ID is checked
// before the first one runs.
func runExperiments(w io.Writer, list string, opts rna.ExperimentOptions) error {
	var ids []string
	for _, id := range strings.Split(list, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return errors.New("-experiment: no experiment IDs given (-list shows them, or use all)")
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = rna.ExperimentIDs()
	}
	for _, id := range ids {
		if _, err := rna.ExperimentTitle(id); err != nil {
			return err
		}
	}
	for _, id := range ids {
		rep, err := rna.RunExperiment(id, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprintf(w, "=== %s: %s ===\n\n%s\n", rep.ID, rep.Title, rep.Body)
	}
	return nil
}

// writeCurveCSV dumps the loss/accuracy trajectory for plotting.
func writeCurveCSV(path string, curve []trainsim.Sample) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.Write([]string{"time_ms", "iter", "loss", "acc"}); err != nil {
		_ = f.Close()
		return err
	}
	for _, pt := range curve {
		rec := []string{
			strconv.FormatFloat(float64(pt.Time)/float64(time.Millisecond), 'f', 3, 64),
			strconv.Itoa(pt.Iter),
			strconv.FormatFloat(pt.Loss, 'g', -1, 64),
			strconv.FormatFloat(pt.Acc, 'g', -1, 64),
		}
		if err := w.Write(rec); err != nil {
			_ = f.Close()
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
