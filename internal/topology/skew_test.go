package topology

import (
	"testing"
	"time"
)

func TestNewPartitionNeutralOnUnobserved(t *testing.T) {
	p, err := NewPartition([]float64{0, 0, 0, 0}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Uniform() {
		t.Fatalf("all-unobserved rates should plan uniform: %v", p.Weights)
	}
	if p.Skew() != 1 {
		t.Fatalf("uniform skew %v, want 1", p.Skew())
	}
	// Partially observed: the unobserved rank gets the observed mean.
	p, err = NewPartition([]float64{100, 100, 0, 100}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Uniform() {
		t.Fatalf("mean-filled rates should be uniform here: %v", p.Weights)
	}
}

func TestNewPartitionProportional(t *testing.T) {
	p, err := NewPartition([]float64{4e9, 4e9, 4e9, 1e9}, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.Uniform() {
		t.Fatal("skewed rates planned uniform")
	}
	if got := p.Skew(); got != 4 {
		t.Fatalf("skew %v, want 4", got)
	}
	sizes, err := p.Sizes(13000)
	if err != nil {
		t.Fatal(err)
	}
	if sizes[3] != 1000 || sizes[0] != 4000 {
		t.Fatalf("sizes %v, want 4000,4000,4000,1000", sizes)
	}
	offs, err := p.Offsets(13000)
	if err != nil {
		t.Fatal(err)
	}
	if offs[0] != 0 || offs[4] != 13000 {
		t.Fatalf("offsets %v", offs)
	}
	if _, err := NewPartition(nil, 0, 0); err == nil {
		t.Fatal("empty rates accepted")
	}
}

func TestOutRatesInto(t *testing.T) {
	o, err := NewLinkObservations(3)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 sends at 1 GB/s to both peers; rank 1 at 250 MB/s; rank 2
	// unobserved.
	if err := o.ObserveTransfer(0, 1, 1<<20, time.Duration(1<<20)); err != nil {
		t.Fatal(err)
	}
	if err := o.ObserveTransfer(0, 2, 1<<20, time.Duration(1<<20)); err != nil {
		t.Fatal(err)
	}
	if err := o.ObserveTransfer(1, 0, 1<<20, time.Duration(4<<20)); err != nil {
		t.Fatal(err)
	}
	rates := o.OutRatesInto(nil)
	if len(rates) != 3 {
		t.Fatalf("len %d", len(rates))
	}
	if rates[0] != 1e9 {
		t.Fatalf("rank 0 rate %v, want 1e9", rates[0])
	}
	if rates[1] != 0.25e9 {
		t.Fatalf("rank 1 rate %v, want 0.25e9", rates[1])
	}
	if rates[2] != 0 {
		t.Fatalf("rank 2 rate %v, want 0 (unobserved)", rates[2])
	}
	// Pooled reuse: passing the slice back must not allocate a new one.
	again := o.OutRatesInto(rates)
	if &again[0] != &rates[0] {
		t.Fatal("OutRatesInto reallocated a sufficient buffer")
	}
}
