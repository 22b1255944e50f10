package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// cell is one workload × end-to-end metric over the runs of one file: the
// median of the runs' values and their spread, the distance between the
// first and third quartile as a share of the median.
type cell struct {
	median, spread float64
	n              int
}

// quartiles matches Python's statistics.quantiles(values, n=4), which is
// what the driver judges the benchmark's steadiness with.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	if ld < 2 {
		return data[0], data[0], data[0]
	}
	var q [4]float64
	for i := 1; i < 4; i++ {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := float64(i*(ld+1) - j*4)
		q[i] = (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return q[1], q[2], q[3]
}

func cells(path string) (map[string]map[string]cell, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f outFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	vals := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if r.Traced {
			continue // end-to-end numbers come from the untraced pass only
		}
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
		}
		for name, st := range r.EndToEnd {
			if st.N > 0 {
				vals[r.Workload][name] = append(vals[r.Workload][name], st.Value)
			}
		}
	}
	out := map[string]map[string]cell{}
	for w, byMetric := range vals {
		out[w] = map[string]cell{}
		for name, v := range byMetric {
			q1, q2, q3 := quartiles(v)
			out[w][name] = cell{median: q2, spread: (q3 - q1) / q2, n: len(v)}
		}
	}
	return out, nil
}

// compareFiles prints, per workload × end-to-end metric, both medians, how
// much worse b is than a, the bound, and a verdict: REGRESSION when b is
// worse by more than the bound, unresolved when either side's own spread
// exceeds the bound (the guide: report it as unresolved, not as unchanged).
// It reports whether anything regressed.
func compareFiles(w io.Writer, a, b string) (bool, error) {
	ca, err := cells(a)
	if err != nil {
		return false, err
	}
	cb, err := cells(b)
	if err != nil {
		return false, err
	}
	regressions, unresolved := 0, 0
	fmt.Fprintf(w, "%-12s %-17s %13s %13s %8s %6s %8s %8s  %s\n",
		"workload", "metric", "a median", "b median", "worse", "bound", "a spread", "b spread", "verdict")
	for _, s := range workloads {
		for _, m := range endToEnd {
			x, okA := ca[s.name][m.name]
			y, okB := cb[s.name][m.name]
			if !okA || !okB {
				continue
			}
			worse := (y.median - x.median) / x.median
			if m.better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case x.spread > m.bound || y.spread > m.bound:
				verdict = "unresolved"
				unresolved++
			case worse > m.bound:
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(w, "%-12s %-17s %13.6g %13.6g %+7.1f%% %5.0f%% %7.1f%% %7.1f%%  %s (n=%d,%d)\n",
				s.name, m.name, x.median, y.median, 100*worse, 100*m.bound, 100*x.spread, 100*y.spread, verdict, x.n, y.n)
		}
	}
	fmt.Fprintf(w, "%d regressions, %d unresolved\n", regressions, unresolved)
	return regressions > 0, nil
}
