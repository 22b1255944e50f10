// Package topology provides the recursive partition-and-group algorithm of
// Section 4, which splits a heterogeneous cluster into speed-homogeneous
// AllReduce groups coordinated by a parameter server.
package topology

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// Group is one AllReduce group in the hierarchical scheme. Members are
// global worker IDs.
type Group struct {
	Members []int
}

// Size returns the group's member count.
func (g Group) Size() int { return len(g.Members) }

// ErrNoWorkers is returned when partitioning an empty worker set.
var ErrNoWorkers = errors.New("topology: no workers")

// maxPartitionDepth bounds the recursion; 2^30 groups is beyond any real
// cluster, so hitting the bound means degenerate input, and we stop
// splitting rather than recurse forever.
const maxPartitionDepth = 30

// PartitionByObservations applies the grouping rule of Section 4 to
// profiled per-task times: obs[w] holds worker w's observed task durations
// over the profiling window. The cluster is split when the gap ζ between
// the fastest and slowest *per-worker mean* is both (a) statistically
// significant against the within-worker variability (ζ > 4·SE, so a
// long-tailed but identically distributed workload like LSTM/UCF101 is not
// split on sampling noise) and (b) material against the mean iteration
// time (ζ > v/4, the paper's ζ > v intent at the deterministic-slowdown
// scale the mixed cluster exhibits). Splitting recurses inside each subset
// until neither condition holds.
func PartitionByObservations(obs [][]time.Duration) ([]Group, error) {
	if len(obs) == 0 {
		return nil, ErrNoWorkers
	}
	for w, o := range obs {
		if len(o) == 0 {
			return nil, fmt.Errorf("topology: worker %d has no observations", w)
		}
	}
	ids := make([]int, len(obs))
	for i := range ids {
		ids[i] = i
	}
	groups := partitionObs(ids, obs, 0)
	for _, g := range groups {
		sort.Ints(g.Members)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].Members[0] < groups[j].Members[0] })
	return groups, nil
}

func partitionObs(ids []int, obs [][]time.Duration, depth int) []Group {
	if len(ids) <= 1 || depth >= maxPartitionDepth {
		return []Group{{Members: append([]int(nil), ids...)}}
	}
	// Per-worker means and within-worker variance.
	means := make(map[int]float64, len(ids))
	var overall, withinVar float64
	minMean, maxMean := math.Inf(1), math.Inf(-1)
	window := 0
	for _, id := range ids {
		var sum float64
		for _, t := range obs[id] {
			sum += float64(t)
		}
		m := sum / float64(len(obs[id]))
		means[id] = m
		overall += m
		var ss float64
		for _, t := range obs[id] {
			d := float64(t) - m
			ss += d * d
		}
		withinVar += ss / float64(len(obs[id]))
		if m < minMean {
			minMean = m
		}
		if m > maxMean {
			maxMean = m
		}
		if len(obs[id]) > window {
			window = len(obs[id])
		}
	}
	overall /= float64(len(ids))
	withinVar /= float64(len(ids))
	se := math.Sqrt(withinVar / float64(window))

	zeta := maxMean - minMean
	if zeta <= 4*se || zeta <= overall/4 {
		return []Group{{Members: append([]int(nil), ids...)}}
	}
	var fast, slow []int
	for _, id := range ids {
		if means[id] > overall {
			slow = append(slow, id)
		} else {
			fast = append(fast, id)
		}
	}
	if len(fast) == 0 || len(slow) == 0 {
		return []Group{{Members: append([]int(nil), ids...)}}
	}
	out := partitionObs(fast, obs, depth+1)
	out = append(out, partitionObs(slow, obs, depth+1)...)
	return out
}
