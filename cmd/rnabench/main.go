// Command rnabench regenerates the paper's tables and figures.
//
// Usage:
//
//	rnabench -list
//	rnabench [-scale 1.0] [-seed 1] [-workers 8] fig6 table3 ...
//	rnabench all
//	rnabench -calibrate [-calibration CALIBRATION_collective.json]
//	rnabench -collective [-collective-out BENCH_collective.json] [-calibration CALIBRATION_collective.json]
//	rnabench -train [-train-out BENCH_train.json]
//	rnabench -ps [-collective-out BENCH_collective.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	rna "repro"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rnabench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rnabench", flag.ContinueOnError)
	var (
		list    = fs.Bool("list", false, "list experiment IDs and exit")
		scale   = fs.Float64("scale", 1.0, "iteration-budget scale in (0,1]")
		seed    = fs.Int64("seed", 1, "random seed")
		workers = fs.Int("workers", 0, "override cluster size (0 = experiment default)")
		jsonOut = fs.Bool("json", false, "emit the reports as a JSON array on stdout")

		collectiveBench = fs.Bool("collective", false, "run the AllReduce micro-benchmarks (per-algorithm sweep + crossover table) and write BENCH_collective.json")
		collectiveOut   = fs.String("collective-out", "BENCH_collective.json", "output path for -collective")

		calibrate       = fs.Bool("calibrate", false, "fit the per-algorithm alpha-beta cost model on this machine and write it to -calibration")
		calibrationPath = fs.String("calibration", "CALIBRATION_collective.json", "cost-model file: written by -calibrate, loaded by -collective when present")
		calRanks        = fs.Int("calibrate-ranks", 16, "mesh size for -calibrate probes")
		calSmall        = fs.Int("calibrate-small", 1024, "latency-dominated probe dim for -calibrate")
		calLarge        = fs.Int("calibrate-large", 1<<16, "bandwidth-dominated probe dim for -calibrate")
		calRounds       = fs.Int("calibrate-rounds", 30, "timed collectives averaged per -calibrate probe")

		trainBench = fs.Bool("train", false, "run the training-engine benchmarks and write BENCH_train.json")
		trainOut   = fs.String("train-out", "BENCH_train.json", "output path for -train")

		psBench = fs.Bool("ps", false, "run only the parameter-server sweep (push-pull throughput vs group count, in-memory + TCP) and merge its rows into -collective-out")

		benchSmoke = fs.Bool("bench-smoke", false, "run the ring regression guard and a sharded training slice (real workers over TCP, bit-identity asserted) without writing any JSON; CI wiring check")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *calibrate {
		return runCalibrate(*calibrationPath, *calRanks, *calSmall, *calLarge, *calRounds)
	}
	if *collectiveBench {
		return runCollectiveBench(*collectiveOut, *calibrationPath)
	}
	if *trainBench {
		return runTrainBench(*trainOut)
	}
	if *psBench {
		return runPSBench(*collectiveOut)
	}
	if *benchSmoke {
		return runBenchSmoke()
	}
	if *list {
		for _, id := range rna.ExperimentIDs() {
			title, err := rna.ExperimentTitle(id)
			if err != nil {
				return err
			}
			fmt.Printf("%-20s %s\n", id, title)
		}
		return nil
	}
	ids := fs.Args()
	if len(ids) == 0 {
		fs.Usage()
		return fmt.Errorf("no experiments given (use -list to see IDs, or 'all')")
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = rna.ExperimentIDs()
	}
	opts := rna.ExperimentOptions{Seed: *seed, Scale: *scale, Workers: *workers}
	var reports []*rna.ExperimentReport
	for _, id := range ids {
		rep, err := rna.RunExperiment(id, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if *jsonOut {
			reports = append(reports, rep)
			continue
		}
		fmt.Printf("=== %s: %s ===\n\n%s\n", rep.ID, rep.Title, rep.Body)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(reports)
	}
	return nil
}
