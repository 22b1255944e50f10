package experiment

import (
	"fmt"
	"strings"

	"repro/internal/trainsim"
)

// Table2SpeedFactors models the paper's physical testbed (Table 2): four
// nodes with 2× Tesla K80, two nodes with 8× GTX-1080Ti and four nodes with
// 2× GTX-2080Ti — 32 GPUs across three hardware generations. Factors are
// relative ResNet-class training throughput (2080Ti = 1).
func Table2SpeedFactors() []float64 {
	factors := make([]float64, 0, 32)
	for i := 0; i < 8; i++ { // 4 nodes x 2 K80
		factors = append(factors, 2.6)
	}
	for i := 0; i < 16; i++ { // 2 nodes x 8 1080Ti
		factors = append(factors, 1.35)
	}
	for i := 0; i < 8; i++ { // 4 nodes x 2 2080Ti
		factors = append(factors, 1.0)
	}
	return factors
}

// Testbed simulates the paper's full 32-GPU Table 2 cluster — three GPU
// generations with no artificial delay injection at all: the hardware mix
// is the heterogeneity. It compares every strategy's time to the target
// loss and reports the groups the ζ > v rule forms.
func Testbed(opts Options) (*Report, error) {
	rep := newReport()
	s, err := newSuite(opts.seed())
	if err != nil {
		return nil, err
	}
	factors := Table2SpeedFactors()
	pm := paperModels()[0] // ResNet50
	capIters := opts.iters(4000)

	headers := []string{"approach", "time-to-target", "iters", "mean iter", "val top-1"}
	strategies := fig6Strategies()
	cfgs := make([]trainsim.Config, len(strategies))
	for i, st := range strategies {
		cfg := s.baseConfig(st, pm, len(factors), capIters, opts.seed())
		cfg.SpeedFactors = factors
		cfg.TargetLoss = fig6Target
		cfgs[i] = cfg
	}
	results, err := runConfigs(cfgs)
	if err != nil {
		return nil, err
	}
	var table [][]string
	var baseline float64
	for i, st := range strategies {
		res := results[i]
		if st == trainsim.Horovod {
			baseline = res.VirtualTime.Seconds()
		}
		table = append(table, []string{
			st.String(), fmtDur(res.VirtualTime), fmt.Sprint(res.Iterations),
			fmtDur(res.MeanIterTime()), fmtPct(res.ValTop1),
		})
		rep.Metrics["time/"+st.String()] = res.VirtualTime.Seconds()
		rep.Metrics["speedup/"+st.String()] = baseline / res.VirtualTime.Seconds()
		rep.Metrics["top1/"+st.String()] = res.ValTop1
	}

	var body strings.Builder
	body.WriteString("32 workers: 8x K80 (2.6x slower), 16x 1080Ti (1.35x), 8x 2080Ti (1.0x);\n")
	body.WriteString("no injected delays — the GPU generations are the heterogeneity.\n\n")
	body.WriteString(renderTable(headers, table))
	fmt.Fprintf(&body, "\nSpeedups vs Horovod: eager %.2fx, AD-PSGD %.2fx, RNA %.2fx, RNA-H %.2fx.\n",
		rep.Metrics["speedup/eager-SGD"], rep.Metrics["speedup/AD-PSGD"],
		rep.Metrics["speedup/RNA"], rep.Metrics["speedup/RNA-H"])
	body.WriteString("Deterministic hardware bands pace the collective protocols through the\n")
	body.WriteString("bounded-delay window; the hierarchical scheme isolates each generation\n")
	body.WriteString("into its own ring and recovers the speedup — the paper's Section 4 thesis\n")
	body.WriteString("on its own hardware mix.\n")
	rep.Body = body.String()
	return rep, nil
}
