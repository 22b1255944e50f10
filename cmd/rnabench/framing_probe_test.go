package main

import (
	"os"
	"testing"
)

// TestFramingProbe is a manual probe of the framing sweep (set
// RNABENCH_FRAMING_PROBE=1 to run); CI skips it.
func TestFramingProbe(t *testing.T) {
	if os.Getenv("RNABENCH_FRAMING_PROBE") == "" {
		t.Skip("probe only")
	}
	var rep collectiveBenchReport
	if err := runFramingSweep(&rep); err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Framing {
		t.Logf("payload %dB frame %dB header %.3f%% codec %dns allocs %d rate %.0f msg/s %.1f MB/s",
			row.PayloadBytes, row.FrameBytes, row.HeaderPct, row.EncodeDecodeNs, row.AllocsPerOp, row.MsgsPerSec, row.MBPerSec)
	}
	t.Logf("gates: allocs %d header %.3f%%", rep.GateFramingAllocsPerOp, rep.GateFramingHeaderPct)
}
