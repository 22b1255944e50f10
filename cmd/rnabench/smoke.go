package main

import (
	"fmt"
	"os"
)

// runBenchSmoke is the CI smoke mode: the ring regression guard against the
// committed BENCH_collective.json and the sharded slice (real workers over
// TCP, bit-identity asserted), with no JSON written. It validates the
// benchmark harness wiring in seconds, not minutes.
func runBenchSmoke() error {
	if err := smokeRingRegression("BENCH_collective.json"); err != nil {
		return fmt.Errorf("bench-smoke ring regression: %w", err)
	}
	if err := smokeSharded(); err != nil {
		return fmt.Errorf("bench-smoke sharded: %w", err)
	}
	fmt.Fprintln(os.Stderr, "bench-smoke: ok (sharded Adam bit-identical to replicated)")
	return nil
}
