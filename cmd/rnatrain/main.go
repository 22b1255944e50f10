// Command rnatrain trains a classifier on a synthetic dataset with real
// concurrent workers (goroutine runtime) under a chosen synchronization
// policy, over the in-memory or TCP transport.
//
// Usage:
//
//	rnatrain -workers 4 -policy rna -iters 200
//	rnatrain -workers 3 -policy bsp -transport tcp -straggler 2=5ms
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	rna "repro"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/rng"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rnatrain:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rnatrain", flag.ContinueOnError)
	var (
		workers   = fs.Int("workers", 4, "number of training workers")
		policy    = fs.String("policy", "rna", "sync policy: rna, bsp, majority, solo, random, adpsgd")
		probes    = fs.Int("probes", 2, "probe count for the rna policy")
		iters     = fs.Int("iters", 200, "training iterations")
		batch     = fs.Int("batch", 32, "per-worker batch size")
		lr        = fs.Float64("lr", 0.25, "learning rate")
		momentum  = fs.Float64("momentum", 0.9, "SGD momentum")
		bound     = fs.Int("bound", 2, "staleness bound")
		seed      = fs.Int64("seed", 1, "random seed")
		transport = fs.String("transport", "mem", "transport: mem or tcp")
		straggler = fs.String("straggler", "", "inject delay, e.g. 2=5ms slows worker 2 by 5ms per step")
		classes   = fs.Int("classes", 10, "synthetic dataset classes")
		features  = fs.Int("features", 8, "synthetic dataset features")
		save      = fs.String("save", "", "write the final model checkpoint to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var pol rna.Policy
	gossip := false
	switch *policy {
	case "rna":
		pol = rna.PolicyPowerOfChoices
	case "bsp":
		pol = rna.PolicyAllReady
	case "majority":
		pol = rna.PolicyMajority
	case "solo":
		pol = rna.PolicySolo
	case "random":
		pol = rna.PolicyRandom
	case "adpsgd":
		gossip = true
	default:
		return fmt.Errorf("unknown policy %q", *policy)
	}

	src := rng.New(*seed)
	full, err := data.Blobs(src, *classes, *features, 60, 0.45)
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

	slowWorker, slowDelay, err := parseStraggler(*straggler)
	if err != nil {
		return err
	}

	cfg := rna.TrainConfig{
		Model:          m,
		Batch:          func(s *rng.Source) []int { return train.Batch(s, *batch) },
		LR:             *lr,
		Momentum:       *momentum,
		Iterations:     *iters,
		StalenessBound: *bound,
		Seed:           *seed,
	}

	fmt.Printf("training %d-class logistic regression on %d workers (%s policy, %s transport)\n",
		*classes, *workers, *policy, *transport)
	if slowDelay > 0 {
		fmt.Printf("injecting %v per-step delay on worker %d\n", slowDelay, slowWorker)
		cfg.SlowDown = func(rank, _ int) time.Duration {
			if rank == slowWorker {
				return slowDelay
			}
			return 0
		}
	}
	start := time.Now()
	var finalParams []float64
	if gossip {
		if *transport == "tcp" {
			return fmt.Errorf("adpsgd is only wired for the in-memory transport")
		}
		results, err := rna.TrainClusterADPSGD(*workers, cfg)
		if err != nil {
			return err
		}
		consensus, err := rna.ConsensusModel(results)
		if err != nil {
			return err
		}
		finalParams = consensus
		fmt.Printf("done in %v wall clock\n", time.Since(start).Round(time.Millisecond))
		fmt.Printf("rank0: %d averagings, %d conflicts\n", results[0].Averagings, results[0].Conflicts)
	} else {
		var results []*rna.TrainResult
		if *transport == "tcp" {
			results, err = rna.TrainClusterTCP(*workers, *probes, pol, cfg)
		} else {
			results, err = rna.TrainCluster(*workers, *probes, pol, cfg)
		}
		if err != nil {
			return err
		}
		finalParams = results[0].Params
		fmt.Printf("done in %v wall clock\n", time.Since(start).Round(time.Millisecond))
		fmt.Printf("rank0: %d real contributions, %d null contributions\n",
			results[0].Contributed, results[0].NullContribs)
		fmt.Printf("participation: %s\n", rna.Participation(results))
	}

	valModel, err := model.NewLogistic(val)
	if err != nil {
		return err
	}
	top1, top5, err := valModel.Accuracy(finalParams, model.All(val), 5)
	if err != nil {
		return err
	}
	fmt.Printf("validation: top-1 %.1f%%, top-5 %.1f%%\n", top1*100, top5*100)
	if *save != "" {
		ck := model.Checkpoint{Step: int64(*iters), Params: finalParams}
		if err := model.SaveCheckpoint(*save, ck); err != nil {
			return err
		}
		fmt.Printf("checkpoint written to %s\n", *save)
	}
	return nil
}

// parseStraggler parses "rank=duration" (e.g. "2=5ms").
func parseStraggler(s string) (int, time.Duration, error) {
	if s == "" {
		return -1, 0, nil
	}
	parts := strings.SplitN(s, "=", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("straggler spec %q, want rank=duration", s)
	}
	rank, err := strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, fmt.Errorf("straggler rank: %w", err)
	}
	d, err := time.ParseDuration(parts[1])
	if err != nil {
		return 0, 0, fmt.Errorf("straggler delay: %w", err)
	}
	return rank, d, nil
}
