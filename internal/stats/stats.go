// Package stats provides the descriptive statistics used when reporting
// experiments: means, variances, percentiles, box-plot summaries (Fig. 10 of
// the paper uses 5/25/50/75/95 percentiles), histograms, and per-worker
// time-breakdown accounting (Fig. 1).
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// ErrEmpty is returned when a statistic of an empty sample is requested.
var ErrEmpty = errors.New("stats: empty sample")

// Sample accumulates float64 observations and answers summary queries.
// The zero value is ready to use.
type Sample struct {
	values []float64
	sorted bool
}

// NewSample returns a Sample pre-sized for n observations.
func NewSample(n int) *Sample {
	return &Sample{values: make([]float64, 0, n)}
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.values = append(s.values, x)
	s.sorted = false
}

// AddAll records many observations.
func (s *Sample) AddAll(xs []float64) {
	s.values = append(s.values, xs...)
	s.sorted = false
}

// Len returns the number of observations.
func (s *Sample) Len() int { return len(s.values) }

// Values returns a copy of the raw observations.
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.values))
	copy(out, s.values)
	return out
}

// Sum returns the sum of observations.
func (s *Sample) Sum() float64 {
	var t float64
	for _, x := range s.values {
		t += x
	}
	return t
}

// Mean returns the arithmetic mean.
func (s *Sample) Mean() (float64, error) {
	if len(s.values) == 0 {
		return 0, ErrEmpty
	}
	return s.Sum() / float64(len(s.values)), nil
}

// Variance returns the population variance.
func (s *Sample) Variance() (float64, error) {
	mean, err := s.Mean()
	if err != nil {
		return 0, err
	}
	var ss float64
	for _, x := range s.values {
		d := x - mean
		ss += d * d
	}
	return ss / float64(len(s.values)), nil
}

// StdDev returns the population standard deviation.
func (s *Sample) StdDev() (float64, error) {
	v, err := s.Variance()
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Min returns the smallest observation.
func (s *Sample) Min() (float64, error) {
	if len(s.values) == 0 {
		return 0, ErrEmpty
	}
	s.ensureSorted()
	return s.values[0], nil
}

// Max returns the largest observation.
func (s *Sample) Max() (float64, error) {
	if len(s.values) == 0 {
		return 0, ErrEmpty
	}
	s.ensureSorted()
	return s.values[len(s.values)-1], nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks.
func (s *Sample) Percentile(p float64) (float64, error) {
	if len(s.values) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of [0,100]", p)
	}
	s.ensureSorted()
	if len(s.values) == 1 {
		return s.values[0], nil
	}
	rank := p / 100 * float64(len(s.values)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.values[lo], nil
	}
	frac := rank - float64(lo)
	return s.values[lo]*(1-frac) + s.values[hi]*frac, nil
}

// Median returns the 50th percentile.
func (s *Sample) Median() (float64, error) { return s.Percentile(50) }

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// BoxPlot is the five-number summary used by the paper's Fig. 10 whisker
// plots: 5th, 25th, 50th, 75th and 95th percentiles.
type BoxPlot struct {
	P5, P25, P50, P75, P95 float64
}

// Box returns the five-number summary of the sample.
func (s *Sample) Box() (BoxPlot, error) {
	var b BoxPlot
	var err error
	if b.P5, err = s.Percentile(5); err != nil {
		return b, err
	}
	b.P25, _ = s.Percentile(25)
	b.P50, _ = s.Percentile(50)
	b.P75, _ = s.Percentile(75)
	b.P95, _ = s.Percentile(95)
	return b, nil
}

// String renders the box plot compactly.
func (b BoxPlot) String() string {
	return fmt.Sprintf("p5=%.3g p25=%.3g p50=%.3g p75=%.3g p95=%.3g",
		b.P5, b.P25, b.P50, b.P75, b.P95)
}

// Histogram counts observations into equal-width bins over [lo, hi).
// Observations outside the range land in the first/last bin.
type Histogram struct {
	Lo, Hi float64
	Counts []int
}

// NewHistogram builds a histogram of xs with the given number of bins.
func NewHistogram(xs []float64, bins int, lo, hi float64) (*Histogram, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("stats: %d bins", bins)
	}
	if hi <= lo {
		return nil, fmt.Errorf("stats: histogram range [%v,%v)", lo, hi)
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
	width := (hi - lo) / float64(bins)
	for _, x := range xs {
		i := int((x - lo) / width)
		if i < 0 {
			i = 0
		}
		if i >= bins {
			i = bins - 1
		}
		h.Counts[i]++
	}
	return h, nil
}

// Bin returns the [start,end) range of bin i.
func (h *Histogram) Bin(i int) (float64, float64) {
	width := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + float64(i)*width, h.Lo + float64(i+1)*width
}

// Total returns the number of observations counted.
func (h *Histogram) Total() int {
	var t int
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Render draws the histogram as ASCII rows, one per bin, with bars scaled to
// maxWidth characters.
func (h *Histogram) Render(maxWidth int) string {
	if maxWidth <= 0 {
		maxWidth = 40
	}
	maxCount := 0
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	var sb strings.Builder
	for i, c := range h.Counts {
		lo, hi := h.Bin(i)
		barLen := 0
		if maxCount > 0 {
			barLen = c * maxWidth / maxCount
		}
		fmt.Fprintf(&sb, "[%8.1f, %8.1f) %6d %s\n", lo, hi, c, strings.Repeat("#", barLen))
	}
	return sb.String()
}
