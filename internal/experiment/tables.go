package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/hetero"
	"repro/internal/trainsim"
	"repro/internal/workload"
)

// table34Columns returns the workload columns of Tables 3 and 4: ResNet50
// and VGG16 each under random and mixed ("H") heterogeneity, plus LSTM.
func table34Columns(workers int) []struct {
	name string
	pm   paperModel
	inj  hetero.Injector
} {
	uniform := randomHetero()
	pms := paperModels()
	return []struct {
		name string
		pm   paperModel
		inj  hetero.Injector
	}{
		{"ResNet", pms[0], uniform},
		{"ResNet(H)", pms[0], hetero.NewMixedGroups(workers)},
		{"VGG", pms[1], uniform},
		{"VGG(H)", pms[1], hetero.NewMixedGroups(workers)},
		{"LSTM", pms[2], uniform},
	}
}

// Table3 reproduces the final-training-accuracy comparison of Section 8.1:
// each approach trains for the same iteration budget per workload column;
// the cells are final accuracy on the training objective.
func Table3(opts Options) (*Report, error) {
	rep := newReport()
	s, err := newSuite(opts.seed())
	if err != nil {
		return nil, err
	}
	workers := opts.workers(8)
	iters := opts.iters(600)
	cols := table34Columns(workers)

	headers := []string{"approach"}
	for _, c := range cols {
		headers = append(headers, c.name)
	}
	var cfgs []trainsim.Config
	for _, st := range strategiesUnderTest() {
		for _, c := range cols {
			strat := st
			// The paper pairs RNA with hierarchical synchronization in
			// the mixed-heterogeneity columns.
			if st == trainsim.RNA && strings.HasSuffix(c.name, "(H)") {
				strat = trainsim.RNAHierarchical
			}
			cfg := s.baseConfig(strat, c.pm, workers, iters, opts.seed())
			cfg.Injector = c.inj
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := runConfigs(cfgs)
	if err != nil {
		return nil, err
	}
	var table [][]string
	next := 0
	for _, st := range strategiesUnderTest() {
		cells := []string{st.String()}
		for _, c := range cols {
			res := results[next]
			next++
			cells = append(cells, fmtPct(res.TrainAcc))
			rep.Metrics[fmt.Sprintf("acc/%s/%s", st, c.name)] = res.TrainAcc
		}
		table = append(table, cells)
	}
	var body strings.Builder
	fmt.Fprintf(&body, "Final training accuracy after %d iterations on %d workers\n", iters, workers)
	body.WriteString("(paper shape: Horovod/eager-SGD/RNA within ~1-2 points, AD-PSGD clearly lower):\n\n")
	body.WriteString(renderTable(headers, table))
	rep.Body = body.String()
	return rep, nil
}

// Table4 reproduces the validation study of Section 8.2: every approach
// trains for the same virtual-time budget; the table reports how many
// iterations each completed plus held-out top-1/top-5 accuracy.
func Table4(opts Options) (*Report, error) {
	rep := newReport()
	s, err := newSuite(opts.seed())
	if err != nil {
		return nil, err
	}
	workers := opts.workers(8)
	budget := time.Duration(float64(90*time.Second) * opts.scale())
	uniform := randomHetero()
	pms := paperModels()
	cols := []struct {
		name string
		pm   paperModel
	}{
		{"ResNet50", pms[0]}, {"VGG16", pms[1]}, {"LSTM", pms[2]},
	}

	headers := []string{"model", "approach", "# of iterations", "top-1 acc.", "top-5 acc."}
	var cfgs []trainsim.Config
	for _, c := range cols {
		for _, st := range strategiesUnderTest() {
			cfg := s.baseConfig(st, c.pm, workers, 0, opts.seed())
			cfg.MaxTime = budget
			cfg.Injector = uniform
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := runConfigs(cfgs)
	if err != nil {
		return nil, err
	}
	var table [][]string
	next := 0
	for _, c := range cols {
		for _, st := range strategiesUnderTest() {
			res := results[next]
			next++
			table = append(table, []string{
				c.name, st.String(), fmt.Sprint(res.Iterations),
				fmtPct(res.ValTop1), fmtPct(res.ValTop5),
			})
			rep.Metrics[fmt.Sprintf("iters/%s/%s", c.name, st)] = float64(res.Iterations)
			rep.Metrics[fmt.Sprintf("top1/%s/%s", c.name, st)] = res.ValTop1
			rep.Metrics[fmt.Sprintf("top5/%s/%s", c.name, st)] = res.ValTop5
		}
	}
	var body strings.Builder
	fmt.Fprintf(&body, "Fixed %v virtual-time budget on %d workers\n", budget, workers)
	body.WriteString("(paper shape: RNA completes the most iterations; AD-PSGD has the lowest validation accuracy):\n\n")
	body.WriteString(renderTable(headers, table))
	rep.Body = body.String()
	return rep, nil
}

// Table5 reproduces the transmission-cost study of Section 8.5: the share
// of RNA's per-iteration time spent copying gradients between device and
// host memory over PCIe, measured from RNA runs and cross-checked against
// the analytic cost model.
func Table5(opts Options) (*Report, error) {
	rep := newReport()
	s, err := newSuite(opts.seed())
	if err != nil {
		return nil, err
	}
	workers := opts.workers(8)
	iters := opts.iters(200)
	comm := workload.DefaultComm()

	cols := fullModels()
	headers := []string{"DL application", "measured extra cost", "analytic extra cost"}
	var cfgs []trainsim.Config
	for _, pm := range cols {
		cfg := s.baseConfig(trainsim.RNA, pm, workers, iters, opts.seed())
		cfg.Comm = comm
		cfgs = append(cfgs, cfg)
	}
	results, err := runConfigs(cfgs)
	if err != nil {
		return nil, err
	}
	var table [][]string
	for i, pm := range cols {
		res := results[i]
		measured := float64(res.CopyOverhead) / float64(res.VirtualTime)
		copyPerIter := comm.RNACopyOverhead(pm.spec.GradientBytes())
		ring := comm.RingAllReduce(workers, pm.spec.GradientBytes())
		analytic := float64(copyPerIter) / float64(pm.step.Mean()+ring+copyPerIter)
		table = append(table, []string{pm.name, fmtPct(measured), fmtPct(analytic)})
		rep.Metrics["measured/"+pm.name] = measured
		rep.Metrics["analytic/"+pm.name] = analytic
	}
	var body strings.Builder
	body.WriteString("Host-device copy share of execution time under RNA\n")
	body.WriteString("(paper: ResNet50 6.2%, LSTM 3.8%, VGG16 23%, Transformer 18% — large models pay more):\n\n")
	body.WriteString(renderTable(headers, table))
	rep.Body = body.String()
	return rep, nil
}
