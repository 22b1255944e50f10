package main

import (
	"fmt"
	"os"

	"repro/internal/collective"
)

// Calibration mode: rnabench -calibrate probes each AllReduce algorithm at a
// latency-dominated and a bandwidth-dominated size on this machine, fits the
// per-algorithm α–β constants, and persists them. rnabench -collective (and
// any program that calls collective.LoadCalibration + SetCostModel) then
// drives the auto-selector with the fitted model instead of the shipped
// defaults.
func runCalibrate(outPath string, ranks, smallDim, largeDim, rounds int) error {
	fmt.Fprintf(os.Stderr, "calibrate: probing ring / tree...\n")
	cal, err := collective.Calibrate(ranks, smallDim, largeDim, rounds)
	if err != nil {
		return err
	}
	if err := cal.Save(outPath); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "calibrate: %d ranks, dims %d/%d, %d rounds -> %s\n",
		cal.Ranks, cal.SmallDim, cal.LargeDim, cal.Rounds, outPath)
	for _, row := range []struct {
		name string
		c    collective.AlgoCost
	}{
		{"ring", cal.Model.Ring},
		{"tree", cal.Model.Tree},
	} {
		fmt.Fprintf(os.Stderr, "calibrate: %-4s alpha=%.0fns beta=%.3fns/B\n",
			row.name, row.c.AlphaNs, row.c.BetaNsPerByte)
	}
	return nil
}

// loadCalibrationIfPresent installs a persisted calibration into the
// auto-selector and reports where the model came from. A missing file is not
// an error — the shipped defaults apply. A calibration fitted on a
// differently shaped host (GOMAXPROCS/NumCPU fingerprint mismatch) is
// rejected with a warning instead of silently driving the selector with a
// stale fit.
func loadCalibrationIfPresent(path string) (string, error) {
	cal, err := collective.LoadCalibration(path)
	if err != nil {
		if os.IsNotExist(err) {
			return "default", nil
		}
		return "", err
	}
	if !cal.FingerprintMatches() {
		gmp, ncpu := collective.HostFingerprint()
		fmt.Fprintf(os.Stderr,
			"warning: %s was calibrated on GOMAXPROCS=%d NumCPU=%d but this host is GOMAXPROCS=%d NumCPU=%d; "+
				"using built-in constants (re-run `rnabench -calibrate`)\n",
			path, cal.GoMaxProcs, cal.NumCPU, gmp, ncpu)
		return "default (stale calibration rejected)", nil
	}
	collective.SetCostModel(cal.Model)
	return path, nil
}
