package workload

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/collective"
)

// TestCostModelsAgree holds the two evaluators of the shared schedule
// descriptions together: the runtime selector's collective.CostModel (float
// ns) and the simulator's CommModel (virtual time). Given the same constants
// they price the same path, so they may differ only by the simulator's
// truncation — under one nanosecond per critical-path message — and auto is
// the cheaper of ring and tree in both, small vectors included: both price
// the pipelined ring at every size, as the paper does.
func TestCostModelsAgree(t *testing.T) {
	pairs := []struct {
		algo AllReduceAlgo
		twin collective.Algorithm
		msgs func(n int) int
	}{
		{AllReduceRing, collective.AlgoRing, func(n int) int { return 2 * (n - 1) }},
		{AllReduceTree, collective.AlgoTree, func(n int) int { return 2 * bits.Len(uint(n-1)) }},
	}
	for _, comm := range []CommModel{DefaultComm(), TenGbEComm()} {
		k := collective.AlgoCost{AlphaNs: float64(comm.Latency), BetaNsPerByte: 1e9 / comm.Bandwidth}
		cost := collective.CostModel{Ring: k, Tree: k}
		for _, n := range []int{2, 3, 4, 5, 8, 16, 32} {
			for _, elems := range []int{64, 1025, 4099, 1 << 14, 139792, 1<<18 + 3, 1000003} {
				bytes := 8 * int64(elems)
				for _, p := range pairs {
					sim := float64(comm.AllReduce(p.algo, n, bytes))
					run := cost.PredictNs(p.twin, n, elems)
					if d := run - sim; d < -1e-3 || d > float64(p.msgs(n)) {
						t.Errorf("%v %v n=%d elems=%d: selector %.3f ns, simulator %.0f ns, apart by more than %d messages' truncation",
							comm, p.algo, n, elems, run, sim, p.msgs(n))
					}
				}
				simAuto := comm.AllReduce(AllReduceAuto, n, bytes)
				if want := min(comm.AllReduce(AllReduceRing, n, bytes), comm.AllReduce(AllReduceTree, n, bytes)); simAuto != want {
					t.Errorf("%v n=%d elems=%d: simulator auto %v, cheaper schedule %v", comm, n, elems, simAuto, want)
				}
				runAuto := cost.PredictNs(collective.AlgoAuto, n, elems)
				if want := math.Min(cost.PredictNs(collective.AlgoRing, n, elems), cost.PredictNs(collective.AlgoTree, n, elems)); runAuto != want {
					t.Errorf("%v n=%d elems=%d: selector auto %v, cheaper schedule %v", comm, n, elems, runAuto, want)
				}
			}
		}
	}
}
