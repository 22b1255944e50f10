package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/trainsim"
)

// Fig10 reproduces the sensitivity microbenchmark of Section 8.4: a
// 100-node simulated cluster with task skew in [10, 50) ms under queueing
// load runs 100 iterations per probe count; the whisker statistics of the
// per-iteration response time are reported for each number of choices.
func Fig10(opts Options) (*Report, error) {
	rep := newReport()
	nodes := opts.workers(100)
	iters := opts.iters(100) * 10 // stable percentiles need more than 100 draws
	choices := []int{1, 2, 3, 4, 6, 8}
	const load = 0.7

	boxes, err := trainsim.ProbeSweep(nodes, iters, choices,
		10*time.Millisecond, 50*time.Millisecond, load, opts.seed())
	if err != nil {
		return nil, err
	}

	headers := []string{"choices", "p5", "p25", "median", "p75", "p95"}
	var table [][]string
	for _, q := range sortedKeys(boxes) {
		b := boxes[q]
		table = append(table, []string{
			fmt.Sprint(q),
			fmtDur(time.Duration(b.P5)), fmtDur(time.Duration(b.P25)),
			fmtDur(time.Duration(b.P50)), fmtDur(time.Duration(b.P75)),
			fmtDur(time.Duration(b.P95)),
		})
		rep.Metrics[fmt.Sprintf("median/q%d", q)] = b.P50
		rep.Metrics[fmt.Sprintf("spread/q%d", q)] = b.P95 - b.P5
	}
	ratio := boxes[1].P50 / boxes[2].P50
	var body strings.Builder
	fmt.Fprintf(&body, "%d nodes, %d iterations, task skew [10,50) ms, queueing load %.1f:\n\n", nodes, iters, load)
	body.WriteString(renderTable(headers, table))
	fmt.Fprintf(&body, "\nTwo choices cut the median response time %.2fx vs random selection (paper: 2.4x, 28 ms -> 12 ms);\n", ratio)
	body.WriteString("additional probes stop helping once the messaging overhead outweighs the sampling gain.\n")
	rep.Metrics["ratio/q1q2"] = ratio
	rep.Body = body.String()
	return rep, nil
}
