package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/hetero"
	"repro/internal/trainsim"
)

// fig6Target is the training-loss target the Section 8.1 runs train to.
const fig6Target = 0.40

// fig6Strategies is the comparison set of Fig. 6 (RNA-H added for the mixed
// rows, as in the paper's "H" bars).
func fig6Strategies() []trainsim.Strategy {
	return []trainsim.Strategy{
		trainsim.Horovod,
		trainsim.EagerSGD,
		trainsim.ADPSGD,
		trainsim.RNA,
		trainsim.RNAHierarchical,
	}
}

// targetConfig assembles one to-target training configuration.
func targetConfig(s *suite, strat trainsim.Strategy, pm paperModel, workers, capIters int, inj hetero.Injector, seed int64) trainsim.Config {
	cfg := s.baseConfig(strat, pm, workers, capIters, seed)
	cfg.Injector = inj
	cfg.TargetLoss = fig6Target
	return cfg
}

// Fig6 reproduces the training-speedup comparison of Section 8.1: time to a
// fixed training loss under random 0–50 ms delays, for ResNet50, VGG16 and
// LSTM, plus the mixed-heterogeneity rows (group B slowed a further
// 50–100 ms) marked "-M". Speedups are relative to Horovod on the same row.
func Fig6(opts Options) (*Report, error) {
	rep := newReport()
	s, err := newSuite(opts.seed())
	if err != nil {
		return nil, err
	}
	workers := opts.workers(8)
	capIters := opts.iters(4000)

	type row struct {
		name string
		pm   paperModel
		inj  hetero.Injector
	}
	uniform := randomHetero()
	var rows []row
	for _, pm := range paperModels() {
		rows = append(rows, row{pm.name, pm, uniform})
	}
	for _, pm := range paperModels()[:2] { // ResNet50-M and VGG16-M
		rows = append(rows, row{pm.name + "-M", pm, hetero.NewMixedGroups(workers)})
	}

	headers := []string{"workload"}
	for _, st := range fig6Strategies() {
		headers = append(headers, st.String())
	}
	var cfgs []trainsim.Config
	for _, r := range rows {
		for _, st := range fig6Strategies() {
			cfgs = append(cfgs, targetConfig(s, st, r.pm, workers, capIters, r.inj, opts.seed()))
		}
	}
	results, err := runConfigs(cfgs)
	if err != nil {
		return nil, err
	}
	var table [][]string
	next := 0
	for _, r := range rows {
		cells := []string{r.name}
		var baseline time.Duration
		for _, st := range fig6Strategies() {
			res := results[next]
			next++
			if st == trainsim.Horovod {
				baseline = res.VirtualTime
			}
			speedup := float64(baseline) / float64(res.VirtualTime)
			cells = append(cells, fmt.Sprintf("%s (%s)", fmtX(speedup), fmtDur(res.VirtualTime)))
			rep.Metrics[fmt.Sprintf("speedup/%s/%s", st, r.name)] = speedup
			rep.Metrics[fmt.Sprintf("reached/%s/%s", st, r.name)] = b2f(res.ReachedTarget)
		}
		table = append(table, cells)
	}
	var body strings.Builder
	fmt.Fprintf(&body, "Time to training loss %.2f on %d workers (speedup vs Horovod; paper: RNA 1.4-1.8x, hierarchical stable under mixed heterogeneity).\n\n", fig6Target, workers)
	body.WriteString(renderTable(headers, table))
	rep.Body = body.String()
	return rep, nil
}

// Fig7 reproduces the LSTM convergence curves of Section 8.1: training loss
// and accuracy against virtual time for each approach, sampled at epoch-like
// intervals.
func Fig7(opts Options) (*Report, error) {
	rep := newReport()
	s, err := newSuite(opts.seed())
	if err != nil {
		return nil, err
	}
	workers := opts.workers(8)
	lstm := paperModels()[2]
	uniform := randomHetero()

	var body strings.Builder
	headers := []string{"approach", "time-to-target", "iters", "final loss", "final acc"}
	var cfgs []trainsim.Config
	for _, st := range strategiesUnderTest() {
		cfgs = append(cfgs, targetConfig(s, st, lstm, workers, opts.iters(3000), uniform, opts.seed()))
	}
	results, err := runConfigs(cfgs)
	if err != nil {
		return nil, err
	}
	var table [][]string
	for i, st := range strategiesUnderTest() {
		res := results[i]
		table = append(table, []string{
			st.String(), fmtDur(res.VirtualTime), fmt.Sprint(res.Iterations),
			fmt.Sprintf("%.3f", res.FinalLoss), fmtPct(res.TrainAcc),
		})
		rep.Metrics["time/"+st.String()] = res.VirtualTime.Seconds()
		rep.Metrics["loss/"+st.String()] = res.FinalLoss
		rep.Metrics["acc/"+st.String()] = res.TrainAcc

		fmt.Fprintf(&body, "%s curve (time, loss, acc):", st)
		for i, pt := range res.Curve {
			if i%4 == 0 || i == len(res.Curve)-1 {
				fmt.Fprintf(&body, " (%s, %.2f, %.0f%%)", fmtDur(pt.Time), pt.Loss, pt.Acc*100)
			}
		}
		body.WriteByte('\n')
	}
	body.WriteByte('\n')
	body.WriteString(renderTable(headers, table))
	rep.Body = body.String()
	return rep, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
