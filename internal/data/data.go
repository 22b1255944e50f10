// Package data generates the synthetic datasets that stand in for the
// paper's ImageNet/CIFAR-10/UCF101/WMT17 workloads. Statistical-efficiency
// effects (staleness, partial participation, parameter divergence) only
// need a real optimization problem with held-out evaluation — these
// generators provide classification problems with known structure,
// deterministic given a seed.
package data

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Example is one labeled observation: features X and an integer label.
type Example struct {
	X     tensor.Vector
	Label int
}

// Dataset is an in-memory set of examples.
type Dataset struct {
	Examples []Example
	// Features is the dimensionality of X.
	Features int
	// Classes is the number of labels.
	Classes int
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.Examples) }

// Batch draws `size` example indices uniformly with replacement — the
// i.i.d. mini-batch sampling of SGD.
func (d *Dataset) Batch(src *rng.Source, size int) []int {
	out := make([]int, size)
	for i := range out {
		out[i] = src.Intn(len(d.Examples))
	}
	return out
}

// Split partitions the dataset into train and validation subsets with the
// given validation fraction, shuffled by src. The split copies example
// headers but shares feature vectors.
func (d *Dataset) Split(src *rng.Source, valFrac float64) (train, val *Dataset, err error) {
	if valFrac < 0 || valFrac >= 1 {
		return nil, nil, fmt.Errorf("data: validation fraction %v", valFrac)
	}
	perm := src.Perm(len(d.Examples))
	nVal := int(float64(len(d.Examples)) * valFrac)
	val = &Dataset{Features: d.Features, Classes: d.Classes,
		Examples: make([]Example, 0, nVal)}
	train = &Dataset{Features: d.Features, Classes: d.Classes,
		Examples: make([]Example, 0, len(d.Examples)-nVal)}
	for i, idx := range perm {
		if i < nVal {
			val.Examples = append(val.Examples, d.Examples[idx])
		} else {
			train.Examples = append(train.Examples, d.Examples[idx])
		}
	}
	return train, val, nil
}

// Blobs generates a Gaussian-blob classification problem: `classes` cluster
// centers drawn uniformly in [-1,1]^features, each with perClass examples
// at the given spread. It is the stand-in for image classification: harder
// with more classes and larger spread.
func Blobs(src *rng.Source, classes, features, perClass int, spread float64) (*Dataset, error) {
	if classes < 2 || features < 1 || perClass < 1 {
		return nil, fmt.Errorf("data: blobs(%d classes, %d features, %d per class)",
			classes, features, perClass)
	}
	centers := make([]tensor.Vector, classes)
	for c := range centers {
		centers[c] = tensor.New(features)
		for j := range centers[c] {
			centers[c][j] = src.Uniform(-1, 1)
		}
	}
	d := &Dataset{Features: features, Classes: classes,
		Examples: make([]Example, 0, classes*perClass)}
	for c := 0; c < classes; c++ {
		for i := 0; i < perClass; i++ {
			x := centers[c].Clone()
			for j := range x {
				x[j] += src.Normal(0, spread)
			}
			d.Examples = append(d.Examples, Example{X: x, Label: c})
		}
	}
	// Shuffle so sequential slicing is class-balanced.
	perm := src.Perm(len(d.Examples))
	shuffled := make([]Example, len(d.Examples))
	for i, p := range perm {
		shuffled[i] = d.Examples[p]
	}
	d.Examples = shuffled
	return d, nil
}
