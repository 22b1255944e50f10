// TCP cluster: run real concurrent RNA training over actual TCP sockets on
// localhost — the same worker runtime, controller and ring AllReduce the
// in-memory examples use, but with every gradient chunk crossing a real
// network stack.
package main

import (
	"fmt"
	"log"
	"time"

	rna "repro"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/rng"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	src := rng.New(42)
	full, err := data.Blobs(src, 6, 8, 80, 0.35)
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

	const workers = 4
	cfg := rna.TrainConfig{
		Model:          m,
		Batch:          func(s *rng.Source) []int { return train.Batch(s, 32) },
		LR:             0.25,
		Momentum:       0.9,
		Iterations:     150,
		StalenessBound: 2,
		Seed:           42,
	}

	fmt.Printf("training on %d workers over localhost TCP with the RNA protocol...\n", workers)
	start := time.Now()
	results, err := rna.TrainClusterTCP(workers, 2, rna.PolicyPowerOfChoices, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("done in %v wall clock\n", time.Since(start).Round(time.Millisecond))

	// All ranks hold identical parameters: verify and score.
	for r := 1; r < workers; r++ {
		if !results[r].Params.Equal(results[0].Params, 1e-9) {
			return fmt.Errorf("rank %d parameters diverged", r)
		}
	}
	fmt.Println("all ranks converged to identical parameters")
	valModel, err := model.NewLogistic(val)
	if err != nil {
		return err
	}
	top1, _, err := valModel.Accuracy(results[0].Params, model.All(val), 1)
	if err != nil {
		return err
	}
	for r, res := range results {
		fmt.Printf("  rank %d: %3d real + %2d null contributions\n", r, res.Contributed, res.NullContribs)
	}
	fmt.Printf("  %s\n", rna.Participation(results))
	fmt.Printf("validation top-1 accuracy: %.1f%%\n", top1*100)
	return nil
}
