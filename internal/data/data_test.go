package data

import (
	"testing"

	"repro/internal/rng"
)

func TestBlobs(t *testing.T) {
	src := rng.New(1)
	ds, err := Blobs(src, 5, 8, 20, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 100 {
		t.Errorf("Len = %d, want 100", ds.Len())
	}
	if ds.Classes != 5 || ds.Features != 8 {
		t.Errorf("classes/features = %d/%d", ds.Classes, ds.Features)
	}
	counts := make([]int, 5)
	for _, ex := range ds.Examples {
		if ex.Label < 0 || ex.Label >= 5 {
			t.Fatalf("label %d out of range", ex.Label)
		}
		if len(ex.X) != 8 {
			t.Fatalf("feature dim %d", len(ex.X))
		}
		counts[ex.Label]++
	}
	for c, n := range counts {
		if n != 20 {
			t.Errorf("class %d has %d examples, want 20", c, n)
		}
	}
}

func TestBlobsShuffled(t *testing.T) {
	src := rng.New(2)
	ds, err := Blobs(src, 4, 2, 25, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// The first 25 examples should not all be one class.
	first := ds.Examples[0].Label
	allSame := true
	for _, ex := range ds.Examples[:25] {
		if ex.Label != first {
			allSame = false
			break
		}
	}
	if allSame {
		t.Error("examples do not appear shuffled")
	}
}

func TestBlobsInvalid(t *testing.T) {
	src := rng.New(1)
	if _, err := Blobs(src, 1, 4, 10, 0.1); err == nil {
		t.Error("1 class should error")
	}
	if _, err := Blobs(src, 3, 0, 10, 0.1); err == nil {
		t.Error("0 features should error")
	}
	if _, err := Blobs(src, 3, 4, 0, 0.1); err == nil {
		t.Error("0 per class should error")
	}
}

func TestBlobsDeterministic(t *testing.T) {
	a, err := Blobs(rng.New(9), 3, 4, 5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Blobs(rng.New(9), 3, 4, 5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Examples {
		if a.Examples[i].Label != b.Examples[i].Label {
			t.Fatal("labels differ between same-seed generations")
		}
		if !a.Examples[i].X.Equal(b.Examples[i].X, 0) {
			t.Fatal("features differ between same-seed generations")
		}
	}
}

func TestBatchWithinRange(t *testing.T) {
	src := rng.New(4)
	ds, err := Blobs(src, 2, 2, 10, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	b := ds.Batch(src, 64)
	if len(b) != 64 {
		t.Fatalf("batch size = %d", len(b))
	}
	for _, idx := range b {
		if idx < 0 || idx >= ds.Len() {
			t.Fatalf("index %d out of range", idx)
		}
	}
}

func TestSplit(t *testing.T) {
	src := rng.New(5)
	ds, err := Blobs(src, 3, 2, 50, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	train, val, err := ds.Split(src, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if val.Len() != 30 || train.Len() != 120 {
		t.Errorf("split = (%d train, %d val), want (120, 30)", train.Len(), val.Len())
	}
	if train.Classes != 3 || val.Classes != 3 {
		t.Error("split lost class metadata")
	}
}

func TestSplitInvalid(t *testing.T) {
	src := rng.New(5)
	ds, err := Blobs(src, 2, 2, 5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ds.Split(src, -0.1); err == nil {
		t.Error("negative fraction should error")
	}
	if _, _, err := ds.Split(src, 1.0); err == nil {
		t.Error("fraction 1.0 should error")
	}
}
