package stats

import (
	"errors"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestEmptySample(t *testing.T) {
	var s Sample
	if _, err := s.Mean(); !errors.Is(err, ErrEmpty) {
		t.Errorf("Mean on empty = %v, want ErrEmpty", err)
	}
	if _, err := s.Min(); !errors.Is(err, ErrEmpty) {
		t.Errorf("Min on empty = %v, want ErrEmpty", err)
	}
	if _, err := s.Max(); !errors.Is(err, ErrEmpty) {
		t.Errorf("Max on empty = %v, want ErrEmpty", err)
	}
	if _, err := s.Percentile(50); !errors.Is(err, ErrEmpty) {
		t.Errorf("Percentile on empty = %v, want ErrEmpty", err)
	}
	if _, err := s.Box(); !errors.Is(err, ErrEmpty) {
		t.Errorf("Box on empty = %v, want ErrEmpty", err)
	}
}

func TestMeanVarianceStdDev(t *testing.T) {
	s := NewSample(4)
	s.AddAll([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	mean, err := s.Mean()
	if err != nil {
		t.Fatal(err)
	}
	if mean != 5 {
		t.Errorf("Mean = %v, want 5", mean)
	}
	v, _ := s.Variance()
	if v != 4 {
		t.Errorf("Variance = %v, want 4", v)
	}
	sd, _ := s.StdDev()
	if sd != 2 {
		t.Errorf("StdDev = %v, want 2", sd)
	}
}

func TestMinMax(t *testing.T) {
	var s Sample
	s.AddAll([]float64{3, -1, 7, 0})
	if mn, _ := s.Min(); mn != -1 {
		t.Errorf("Min = %v, want -1", mn)
	}
	if mx, _ := s.Max(); mx != 7 {
		t.Errorf("Max = %v, want 7", mx)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	var s Sample
	s.AddAll([]float64{10, 20, 30, 40})
	med, err := s.Median()
	if err != nil {
		t.Fatal(err)
	}
	if med != 25 {
		t.Errorf("Median = %v, want 25", med)
	}
	p0, _ := s.Percentile(0)
	p100, _ := s.Percentile(100)
	if p0 != 10 || p100 != 40 {
		t.Errorf("P0,P100 = %v,%v, want 10,40", p0, p100)
	}
}

func TestPercentileSingleValue(t *testing.T) {
	var s Sample
	s.Add(42)
	for _, p := range []float64{0, 5, 50, 95, 100} {
		if got, _ := s.Percentile(p); got != 42 {
			t.Errorf("Percentile(%v) = %v, want 42", p, got)
		}
	}
}

func TestPercentileOutOfRange(t *testing.T) {
	var s Sample
	s.Add(1)
	if _, err := s.Percentile(-1); err == nil {
		t.Error("Percentile(-1) should error")
	}
	if _, err := s.Percentile(101); err == nil {
		t.Error("Percentile(101) should error")
	}
}

func TestAddAfterSortedQuery(t *testing.T) {
	var s Sample
	s.AddAll([]float64{3, 1, 2})
	if _, err := s.Median(); err != nil {
		t.Fatal(err)
	}
	s.Add(0) // must invalidate the sort
	if mn, _ := s.Min(); mn != 0 {
		t.Errorf("Min after post-sort Add = %v, want 0", mn)
	}
}

func TestValuesIsACopy(t *testing.T) {
	var s Sample
	s.AddAll([]float64{5, 1})
	vals := s.Values()
	vals[0] = 999
	if mn, _ := s.Min(); mn != 1 {
		t.Errorf("mutating Values() affected sample: min = %v", mn)
	}
}

func TestBoxOrdering(t *testing.T) {
	var s Sample
	for i := 0; i < 1000; i++ {
		s.Add(float64(i % 97))
	}
	b, err := s.Box()
	if err != nil {
		t.Fatal(err)
	}
	if !(b.P5 <= b.P25 && b.P25 <= b.P50 && b.P50 <= b.P75 && b.P75 <= b.P95) {
		t.Errorf("box quantiles out of order: %+v", b)
	}
	if !strings.Contains(b.String(), "p50=") {
		t.Errorf("Box String missing p50: %q", b.String())
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram([]float64{0.5, 1.5, 1.7, 9.9, -3, 100}, 10, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() != 6 {
		t.Errorf("Total = %d, want 6", h.Total())
	}
	if h.Counts[0] != 2 { // 0.5 and clamped -3
		t.Errorf("bin0 = %d, want 2", h.Counts[0])
	}
	if h.Counts[1] != 2 { // 1.5, 1.7
		t.Errorf("bin1 = %d, want 2", h.Counts[1])
	}
	if h.Counts[9] != 2 { // 9.9 and clamped 100
		t.Errorf("bin9 = %d, want 2", h.Counts[9])
	}
	lo, hi := h.Bin(3)
	if lo != 3 || hi != 4 {
		t.Errorf("Bin(3) = [%v,%v), want [3,4)", lo, hi)
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(nil, 0, 0, 1); err == nil {
		t.Error("0 bins should error")
	}
	if _, err := NewHistogram(nil, 5, 2, 2); err == nil {
		t.Error("empty range should error")
	}
}

func TestHistogramRender(t *testing.T) {
	h, err := NewHistogram([]float64{1, 1, 1, 5}, 2, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	out := h.Render(10)
	if !strings.Contains(out, "##########") {
		t.Errorf("largest bin should render a full bar:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Errorf("Render produced %d lines, want 2", len(lines))
	}
	// Zero maxWidth falls back to a default without panicking.
	_ = h.Render(0)
}

func TestBreakdownFractions(t *testing.T) {
	b := Breakdown{Compute: 600 * time.Millisecond, Comm: 100 * time.Millisecond, Wait: 300 * time.Millisecond}
	if b.Total() != time.Second {
		t.Errorf("Total = %v, want 1s", b.Total())
	}
	if math.Abs(b.ComputeFrac()-0.6) > 1e-12 {
		t.Errorf("ComputeFrac = %v, want 0.6", b.ComputeFrac())
	}
	if math.Abs(b.CommFrac()-0.1) > 1e-12 {
		t.Errorf("CommFrac = %v, want 0.1", b.CommFrac())
	}
	if math.Abs(b.WaitFrac()-0.3) > 1e-12 {
		t.Errorf("WaitFrac = %v, want 0.3", b.WaitFrac())
	}
}

func TestBreakdownEmpty(t *testing.T) {
	var b Breakdown
	if b.ComputeFrac() != 0 || b.WaitFrac() != 0 {
		t.Error("empty breakdown should report zero fractions")
	}
}

func TestBreakdownAdd(t *testing.T) {
	a := Breakdown{Compute: time.Second}
	a.Add(Breakdown{Compute: time.Second, Wait: 2 * time.Second})
	if a.Compute != 2*time.Second || a.Wait != 2*time.Second {
		t.Errorf("Add result = %+v", a)
	}
}

func TestBreakdownTable(t *testing.T) {
	out := Table(
		[]string{"w0", "w1"},
		[]Breakdown{
			{Compute: time.Second},
			{Compute: time.Second, Wait: time.Second},
		},
	)
	if !strings.Contains(out, "w0") || !strings.Contains(out, "w1") {
		t.Errorf("table missing worker names:\n%s", out)
	}
	if !strings.Contains(out, "50.0%") {
		t.Errorf("table missing expected 50%% entry:\n%s", out)
	}
}

func TestBreakdownTableShortNames(t *testing.T) {
	// More rows than names must not panic.
	out := Table([]string{"only"}, []Breakdown{{}, {}})
	if strings.Count(out, "\n") != 3 {
		t.Errorf("unexpected table shape:\n%s", out)
	}
}

// Property: Percentile is monotone in p.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []float64, pa, pb uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		var s Sample
		s.AddAll(raw)
		lo := float64(pa % 101)
		hi := float64(pb % 101)
		if lo > hi {
			lo, hi = hi, lo
		}
		a, err := s.Percentile(lo)
		if err != nil {
			return false
		}
		b, err := s.Percentile(hi)
		if err != nil {
			return false
		}
		return a <= b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: median lies within [min, max].
func TestQuickMedianBounded(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		clean := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		var s Sample
		s.AddAll(clean)
		med, err := s.Median()
		if err != nil {
			return false
		}
		sort.Float64s(clean)
		return med >= clean[0] && med <= clean[len(clean)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
