package main

import (
	"fmt"
	"os"

	"repro/internal/collective"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// smokeCompression exercises one tiny compressed collective so the smoke run
// touches the wire-dtype path too.
func smokeCompression() error {
	meshes, err := transport.NewTCPCluster(2)
	if err != nil {
		return err
	}
	defer func() {
		for _, m := range meshes {
			_ = m.Close()
		}
	}()
	done := make(chan error, len(meshes))
	for _, m := range meshes {
		m := m
		go func() {
			v := tensor.New(256)
			for j := range v {
				v[j] = float64(m.Rank()+j) * 1e-3
			}
			res := tensor.New(256)
			done <- collective.AllReduceOpts(m, 0, v, collective.OpAverage, collective.Options{
				Compression: tensor.F16, Residual: res,
			})
		}()
	}
	for range meshes {
		if err := <-done; err != nil {
			return err
		}
	}
	return nil
}

// runBenchSmoke is the CI smoke mode: a compressed collective, the ring
// regression guard against the committed BENCH_collective.json and the
// sharded slice (real workers over TCP, bit-identity asserted), with no JSON
// written. It validates the benchmark harness wiring in seconds, not minutes.
func runBenchSmoke() error {
	if err := smokeCompression(); err != nil {
		return fmt.Errorf("bench-smoke compression: %w", err)
	}
	if err := smokeRingRegression("BENCH_collective.json"); err != nil {
		return fmt.Errorf("bench-smoke ring regression: %w", err)
	}
	if err := smokeSharded(); err != nil {
		return fmt.Errorf("bench-smoke sharded: %w", err)
	}
	fmt.Fprintln(os.Stderr, "bench-smoke: ok (sharded Adam bit-identical to replicated)")
	return nil
}
