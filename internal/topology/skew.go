package topology

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Skew-proportional chunk partitions.
//
// Partition handles link heterogeneity inside one collective: keep one flat
// schedule but size each rank's chunk to the speed of the links that have
// to carry it, so a slow rank serves proportionally fewer bytes instead of
// binding everyone to its pace. It is deliberately a pure function of its
// inputs — every rank that holds the same rate snapshot computes
// bit-identical weights, which is what lets a cheap epoch-stamped broadcast
// of the snapshot stand in for full plan agreement.

// DefaultPartitionFloor is the default minimum chunk size in elements. It
// matches the collective's segment floor: a chunk below this is pure framing
// overhead no matter how slow its owner's link is.
const DefaultPartitionFloor = 1024

// Partition is a skew-proportional chunk partition plan: per-rank relative
// speeds plus the safety bounds the partitioner applies. The zero value is
// not valid; build one with NewPartition.
type Partition struct {
	// Weights are the per-rank relative speeds (mean-normalized; all
	// positive). len(Weights) is the rank count.
	Weights []float64
	// FloorElems is the minimum chunk size in elements (0 = none).
	FloorElems int
	// MaxSkew is the largest-to-smallest chunk ratio allowed (<1 selects
	// tensor.DefaultMaxSkew).
	MaxSkew float64
	// Epoch identifies the observation snapshot the weights came from; the
	// plan exchange stamps it on the wire so ranks can verify they schedule
	// from the same snapshot.
	Epoch int64
}

// NewPartition builds a partition plan from per-rank speed estimates
// (bytes/sec; entries ≤ 0 mean "unobserved" and are treated as the mean of
// the observed ranks, i.e. neutral). The result is deterministic: equal
// inputs give equal weights, and an all-unobserved (or uniform) rate vector
// yields the uniform partition.
func NewPartition(rates []float64, floorElems int, maxSkew float64) (*Partition, error) {
	n := len(rates)
	if n <= 0 {
		return nil, fmt.Errorf("topology: partition over %d ranks", n)
	}
	w := make([]float64, n)
	var sum float64
	observed := 0
	for _, r := range rates {
		if r > 0 && !math.IsInf(r, 1) {
			sum += r
			observed++
		}
	}
	if observed == 0 {
		for i := range w {
			w[i] = 1
		}
		return &Partition{Weights: w, FloorElems: floorElems, MaxSkew: maxSkew}, nil
	}
	mean := sum / float64(observed)
	for i, r := range rates {
		if r > 0 && !math.IsInf(r, 1) {
			w[i] = r / mean
		} else {
			w[i] = 1
		}
	}
	return &Partition{Weights: w, FloorElems: floorElems, MaxSkew: maxSkew}, nil
}

// Ranks returns the rank count the partition covers.
func (p *Partition) Ranks() int { return len(p.Weights) }

// Sizes returns the chunk sizes for a total-element vector under the plan.
func (p *Partition) Sizes(total int) ([]int, error) {
	return tensor.WeightedSizes(total, p.Weights, p.FloorElems, p.MaxSkew)
}

// Offsets returns the n+1 chunk offsets for a total-element vector, or an
// error if the weights are invalid.
func (p *Partition) Offsets(total int) ([]int, error) {
	sizes, err := p.Sizes(total)
	if err != nil {
		return nil, err
	}
	return tensor.WeightedOffsets(sizes), nil
}

// Uniform reports whether the plan degenerates to the equal partition for
// every vector length — true when all weights are equal, which lets the
// caller fall back to the unweighted (bit-identical, pooled) schedule.
func (p *Partition) Uniform() bool {
	for _, w := range p.Weights[1:] {
		if w != p.Weights[0] {
			return false
		}
	}
	return true
}

// Skew returns the largest-to-smallest weight ratio (1 for uniform plans).
func (p *Partition) Skew() float64 {
	lo, hi := p.Weights[0], p.Weights[0]
	for _, w := range p.Weights[1:] {
		if w < lo {
			lo = w
		}
		if w > hi {
			hi = w
		}
	}
	if lo <= 0 {
		return math.Inf(1)
	}
	return hi / lo
}

// OutRatesInto fills dst with each rank's mean observed outgoing bandwidth
// in bytes/sec (0 = no outgoing link of that rank observed) and returns it,
// growing dst only when too small — the pooled snapshot the re-planning
// loop takes every iteration.
func (o *LinkObservations) OutRatesInto(dst []float64) []float64 {
	if cap(dst) < o.n {
		dst = make([]float64, o.n)
	}
	dst = dst[:o.n]
	o.mu.Lock()
	defer o.mu.Unlock()
	for i := 0; i < o.n; i++ {
		var sum float64
		cnt := 0
		for j := 0; j < o.n; j++ {
			if i == j {
				continue
			}
			if ns := o.links[i*o.n+j].nsPerByte; ns > 0 {
				sum += 1e9 / ns
				cnt++
			}
		}
		if cnt > 0 {
			dst[i] = sum / float64(cnt)
		} else {
			dst[i] = 0
		}
	}
	return dst
}
