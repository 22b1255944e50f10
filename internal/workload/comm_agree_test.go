package workload

import (
	"math"
	"testing"

	"repro/internal/collective"
)

// TestCostModelsAgree holds the two evaluators of the ring's description
// together: the runtime selector's collective.CostModel (float ns) and the
// simulator's CommModel (virtual time). Given the same constants they price
// the same path, so they may differ only by the simulator's truncation —
// under one nanosecond per critical-path message — and the selector's auto
// is the cheaper of ring and tree, small vectors included.
func TestCostModelsAgree(t *testing.T) {
	for _, comm := range []CommModel{DefaultComm(), TenGbEComm()} {
		k := collective.AlgoCost{AlphaNs: float64(comm.Latency), BetaNsPerByte: 1e9 / comm.Bandwidth}
		cost := collective.CostModel{Ring: k, Tree: k}
		for _, n := range []int{2, 3, 4, 5, 8, 16, 32} {
			for _, elems := range []int{64, 1025, 4099, 1 << 14, 139792, 1<<18 + 3, 1000003} {
				sim := float64(comm.RingAllReduce(n, 8*int64(elems)))
				run := cost.PredictNs(collective.AlgoRing, n, elems)
				if d := run - sim; d < -1e-3 || d > float64(2*(n-1)) {
					t.Errorf("%v ring n=%d elems=%d: selector %.3f ns, simulator %.0f ns, apart by more than %d messages' truncation",
						comm, n, elems, run, sim, 2*(n-1))
				}
				runAuto := cost.PredictNs(collective.AlgoAuto, n, elems)
				if want := math.Min(cost.PredictNs(collective.AlgoRing, n, elems), cost.PredictNs(collective.AlgoTree, n, elems)); runAuto != want {
					t.Errorf("%v n=%d elems=%d: selector auto %v, cheaper schedule %v", comm, n, elems, runAuto, want)
				}
			}
		}
	}
}
