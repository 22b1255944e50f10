package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same-seed sources diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Errorf("different seeds produced %d/100 identical draws", same)
	}
}

func TestSplitStability(t *testing.T) {
	s1 := New(7).Split(3)
	s2 := New(7).Split(3)
	for i := 0; i < 50; i++ {
		if s1.Float64() != s2.Float64() {
			t.Fatalf("Split(3) streams diverged at draw %d", i)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	a := root.Split(0)
	b := root.Split(1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Errorf("sibling splits produced %d/100 identical draws", same)
	}
}

func TestUniformRange(t *testing.T) {
	s := New(1)
	for i := 0; i < 1000; i++ {
		x := s.Uniform(2, 5)
		if x < 2 || x >= 5 {
			t.Fatalf("Uniform(2,5) = %v out of range", x)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(3)
	const n = 50000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := s.Normal(10, 2)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.1 {
		t.Errorf("Normal mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.1 {
		t.Errorf("Normal stddev = %v, want ~2", math.Sqrt(variance))
	}
}

func TestLogNormalFromMoments(t *testing.T) {
	// The paper's UCF101 stats: mean 186, stddev 97.7.
	s := New(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := s.LogNormalFromMoments(186, 97.7)
		if x <= 0 {
			t.Fatalf("lognormal sample %v <= 0", x)
		}
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	stddev := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-186)/186 > 0.03 {
		t.Errorf("lognormal mean = %v, want ~186", mean)
	}
	if math.Abs(stddev-97.7)/97.7 > 0.05 {
		t.Errorf("lognormal stddev = %v, want ~97.7", stddev)
	}
}

func TestLogNormalParamsDegenerate(t *testing.T) {
	mu, sigma := LogNormalParams(-1, 5)
	if mu != 0 || sigma != 0 {
		t.Errorf("LogNormalParams(-1,5) = (%v,%v), want (0,0)", mu, sigma)
	}
}

func TestBernoulliExtremes(t *testing.T) {
	s := New(17)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestChoiceExcludes(t *testing.T) {
	s := New(19)
	for i := 0; i < 1000; i++ {
		if got := s.Choice(5, 2); got == 2 || got < 0 || got >= 5 {
			t.Fatalf("Choice(5,2) = %d", got)
		}
	}
}

func TestChoiceOutOfRangeNot(t *testing.T) {
	s := New(23)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		got := s.Choice(3, -1)
		if got < 0 || got >= 3 {
			t.Fatalf("Choice(3,-1) = %d", got)
		}
		seen[got] = true
	}
	if len(seen) != 3 {
		t.Errorf("Choice(3,-1) never produced all values: %v", seen)
	}
}

func TestChoiceCoversAll(t *testing.T) {
	s := New(29)
	seen := map[int]bool{}
	for i := 0; i < 500; i++ {
		seen[s.Choice(4, 1)] = true
	}
	for _, want := range []int{0, 2, 3} {
		if !seen[want] {
			t.Errorf("Choice(4,1) never produced %d", want)
		}
	}
}

func TestSampleDistinct(t *testing.T) {
	s := New(31)
	for trial := 0; trial < 200; trial++ {
		got := s.SampleDistinct(10, 3)
		if len(got) != 3 {
			t.Fatalf("SampleDistinct(10,3) returned %d values", len(got))
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= 10 {
				t.Fatalf("SampleDistinct value %d out of range", v)
			}
			if seen[v] {
				t.Fatalf("SampleDistinct produced duplicate %d", v)
			}
			seen[v] = true
		}
	}
}

func TestSampleDistinctKTooLarge(t *testing.T) {
	s := New(37)
	got := s.SampleDistinct(4, 10)
	if len(got) != 4 {
		t.Fatalf("SampleDistinct(4,10) returned %d values, want 4", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		seen[v] = true
	}
	if len(seen) != 4 {
		t.Errorf("SampleDistinct(4,10) values not distinct: %v", got)
	}
}

// Property: SampleDistinct(n,k) always returns min(n,k) distinct in-range
// values.
func TestQuickSampleDistinct(t *testing.T) {
	s := New(41)
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw)%32 + 1
		k := int(kRaw) % 40
		got := s.SampleDistinct(n, k)
		want := k
		if want > n {
			want = n
		}
		if len(got) != want {
			return false
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Choice(n, not) with valid `not` never returns `not`.
func TestQuickChoice(t *testing.T) {
	s := New(43)
	f := func(nRaw, notRaw uint8) bool {
		n := int(nRaw)%16 + 2
		not := int(notRaw) % n
		got := s.Choice(n, not)
		return got != not && got >= 0 && got < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
