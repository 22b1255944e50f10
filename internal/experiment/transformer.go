package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/hetero"
	"repro/internal/trainsim"
)

// Fig8 reproduces the Transformer throughput study of Section 8.3: the
// per-iteration speedup (mean time between synchronizations) and the
// overall speedup (time to a fixed loss) against Horovod, in a homogeneous
// environment (only the sentence-length imbalance) and a heterogeneous one
// (plus random 0–50 ms slowdowns).
func Fig8(opts Options) (*Report, error) {
	rep := newReport()
	s, err := newSuite(opts.seed())
	if err != nil {
		return nil, err
	}
	workers := opts.workers(16)
	pm := transformerModel()
	capIters := opts.iters(4000)

	envs := []struct {
		name string
		inj  hetero.Injector
	}{
		{"homogeneous", hetero.None{}},
		{"heterogeneous", randomHetero()},
	}

	var cfgs []trainsim.Config
	for _, env := range envs {
		for _, st := range strategiesUnderTest() {
			cfgs = append(cfgs, targetConfig(s, st, pm, workers, capIters, env.inj, opts.seed()))
		}
	}
	results, err := runConfigs(cfgs)
	if err != nil {
		return nil, err
	}
	var body strings.Builder
	next := 0
	for _, env := range envs {
		headers := []string{"approach", "per-iter time", "per-iter speedup", "time-to-target", "overall speedup"}
		var table [][]string
		var basePerIter, baseOverall time.Duration
		for _, st := range strategiesUnderTest() {
			res := results[next]
			next++
			if st == trainsim.Horovod {
				basePerIter = res.MeanIterTime()
				baseOverall = res.VirtualTime
			}
			perIterX := float64(basePerIter) / float64(res.MeanIterTime())
			overallX := float64(baseOverall) / float64(res.VirtualTime)
			table = append(table, []string{
				st.String(), fmtDur(res.MeanIterTime()), fmtX(perIterX),
				fmtDur(res.VirtualTime), fmtX(overallX),
			})
			rep.Metrics[fmt.Sprintf("periter/%s/%s", env.name, st)] = perIterX
			rep.Metrics[fmt.Sprintf("overall/%s/%s", env.name, st)] = overallX
		}
		fmt.Fprintf(&body, "%s environment (%d workers, 4096-token batches):\n", env.name, workers)
		body.WriteString(renderTable(headers, table))
		body.WriteByte('\n')
	}
	body.WriteString("Paper: RNA 2.6x per-iteration / 2.2x overall (homogeneous); eager-SGD degrades under heterogeneity while RNA and AD-PSGD stay stable.\n")
	rep.Body = body.String()
	return rep, nil
}

// Fig9 reproduces the scalability sweep of Section 8.3: throughput
// (synchronizations per second) for 4→32 processes on the Transformer
// workload, plus the final model quality (our accuracy analogue of the
// paper's BLEU comparison between RNA and AD-PSGD).
func Fig9(opts Options) (*Report, error) {
	rep := newReport()
	s, err := newSuite(opts.seed())
	if err != nil {
		return nil, err
	}
	pm := transformerModel()
	iters := opts.iters(600)
	scales := []int{4, 8, 16, 32}
	inj := hetero.UniformRandom{Lo: 0, Hi: 30 * time.Millisecond}

	headers := []string{"processes"}
	for _, st := range strategiesUnderTest() {
		headers = append(headers, st.String()+" it/s")
	}
	var cfgs []trainsim.Config
	for _, n := range scales {
		for _, st := range strategiesUnderTest() {
			cfg := s.baseConfig(st, pm, n, iters, opts.seed())
			cfg.Injector = inj
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := runConfigs(cfgs)
	if err != nil {
		return nil, err
	}
	var table [][]string
	finalAcc := map[string]float64{}
	next := 0
	for _, n := range scales {
		cells := []string{fmt.Sprint(n)}
		for _, st := range strategiesUnderTest() {
			res := results[next]
			next++
			cells = append(cells, fmt.Sprintf("%.2f", res.Throughput()))
			rep.Metrics[fmt.Sprintf("throughput/%d/%s", n, st)] = res.Throughput()
			if n == scales[len(scales)-1] {
				finalAcc[st.String()] = res.TrainAcc
				rep.Metrics[fmt.Sprintf("acc/%d/%s", n, st)] = res.TrainAcc
			}
		}
		table = append(table, cells)
	}
	var body strings.Builder
	body.WriteString(renderTable(headers, table))
	fmt.Fprintf(&body, "\nModel quality at 32 processes (accuracy; the paper's BLEU point — RNA 24 vs AD-PSGD 22):\n")
	for _, st := range strategiesUnderTest() {
		fmt.Fprintf(&body, "  %-14s %s\n", st.String(), fmtPct(finalAcc[st.String()]))
	}
	rep.Body = body.String()
	return rep, nil
}
