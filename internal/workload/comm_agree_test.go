package workload

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/collective"
	"repro/internal/tensor"
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
				for _, wire := range []tensor.Dtype{tensor.F64, tensor.F32, tensor.F16, tensor.I8} {
					for _, p := range pairs {
						sim := float64(comm.AllReduceWire(p.algo, n, elems, wire))
						run := cost.PredictWireNs(p.twin, n, elems, wire)
						if d := run - sim; d < -1e-3 || d > float64(p.msgs(n)) {
							t.Errorf("%v %v n=%d elems=%d %v: selector %.3f ns, simulator %.0f ns, apart by more than %d messages' truncation",
								comm, p.algo, n, elems, wire, run, sim, p.msgs(n))
						}
					}
					simAuto := comm.AllReduceWire(AllReduceAuto, n, elems, wire)
					if want := min(comm.AllReduceWire(AllReduceRing, n, elems, wire), comm.AllReduceWire(AllReduceTree, n, elems, wire)); simAuto != want {
						t.Errorf("%v n=%d elems=%d %v: simulator auto %v, cheaper schedule %v", comm, n, elems, wire, simAuto, want)
					}
					runAuto := cost.PredictWireNs(collective.AlgoAuto, n, elems, wire)
					if want := math.Min(cost.PredictWireNs(collective.AlgoRing, n, elems, wire), cost.PredictWireNs(collective.AlgoTree, n, elems, wire)); runAuto != want {
						t.Errorf("%v n=%d elems=%d %v: selector auto %v, cheaper schedule %v", comm, n, elems, wire, runAuto, want)
					}
				}
			}
		}
	}
}
