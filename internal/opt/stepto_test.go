package opt

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestStepToMatchesCopyScaleStep: the out-of-place step with the mean folded
// in leaves the bits of what the RNA update did before it existed — copy the
// current parameters into the next version, scale the reduced gradient by the
// contributors' mean, step in place — in the parameters and in the optimizer
// state, for every SGD variant and for Adam, through a chain of steps whose
// means include 1 (one contributor) and whose scales include 0 (nobody). The
// step writes neither its source nor its gradient; run with dst = src it
// gives the same bits again. The lengths cover the kernel's tails and its
// vector body.
func TestStepToMatchesCopyScaleStep(t *testing.T) {
	sgd := func(momentum, wd float64, schedule Schedule) func(int) (Optimizer, error) {
		return func(dim int) (Optimizer, error) {
			o, err := NewSGD(dim, 0.05, momentum, wd)
			if err == nil {
				o.Schedule = schedule
			}
			return o, err
		}
	}
	configs := []struct {
		name string
		make func(dim int) (Optimizer, error)
	}{
		{"sgd/momentum", sgd(0.9, 0, nil)},
		{"sgd/plain", sgd(0, 0, nil)},
		{"sgd/weight-decay", sgd(0, 1e-3, nil)},
		{"sgd/momentum+weight-decay+schedule", sgd(0.9, 1e-3, StepDecay{Boundaries: []int{2, 4}, Decay: 0.5})},
		{"adam", func(dim int) (Optimizer, error) { return NewAdam(dim, 0.01, 1e-3) }},
	}
	steps := []struct{ mean, scale float64 }{
		{1, 0.25}, {0.5, 0.5}, {1.0 / 3, 0.75}, {1, 0}, {0.25, 1}, {1, 1}, {0.5, 0},
	}
	for _, c := range configs {
		for _, dim := range []int{1, 7, 37, 1000} {
			t.Run(fmt.Sprintf("%s/dim=%d", c.name, dim), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(dim)))
				ref, err := c.make(dim)
				if err != nil {
					t.Fatal(err)
				}
				out, _ := c.make(dim)
				in, _ := c.make(dim)
				cur := randVec(rng, dim)
				inPlace := cur.Clone()
				for k, st := range steps {
					g := randVec(rng, dim)
					// The reference: copy, scale, step in place.
					want := cur.Clone()
					scaled := g.Clone()
					scaled.Scale(st.mean)
					wantLR, err := ref.Step(want, scaled, st.scale)
					if err != nil {
						t.Fatal(err)
					}
					curBefore, gBefore := cur.Clone(), g.Clone()
					next := tensor.New(dim)
					next.Fill(math.NaN()) // stale contents must not leak through
					lr, err := out.StepTo(next, cur, g, st.mean, st.scale)
					if err != nil {
						t.Fatal(err)
					}
					if lr != wantLR {
						t.Fatalf("step %d: effective lr %v, want %v", k, lr, wantLR)
					}
					if _, err := in.StepTo(inPlace, inPlace, g, st.mean, st.scale); err != nil {
						t.Fatal(err)
					}
					sameBits(t, fmt.Sprintf("step %d: params", k), next, want)
					sameBits(t, fmt.Sprintf("step %d: in-place params", k), inPlace, want)
					sameBits(t, fmt.Sprintf("step %d: source", k), cur, curBefore)
					sameBits(t, fmt.Sprintf("step %d: gradient", k), g, gBefore)
					for i, s := range optState(ref) {
						sameBits(t, fmt.Sprintf("step %d: state %d", k, i), optState(out)[i], s)
						sameBits(t, fmt.Sprintf("step %d: in-place state %d", k, i), optState(in)[i], s)
					}
					cur = next
				}
				if out.StepCount() != len(steps) {
					t.Errorf("StepCount = %d, want %d", out.StepCount(), len(steps))
				}
			})
		}
	}
}

// optState returns the optimizer's state vectors.
func optState(o Optimizer) []tensor.Vector {
	switch o := o.(type) {
	case *SGD:
		return []tensor.Vector{o.Velocity()}
	case *Adam:
		m, u := o.Moments()
		return []tensor.Vector{m, u}
	}
	return nil
}

func sameBits(t *testing.T, what string, got, want tensor.Vector) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: elem %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestStepToShapes: every operand must have the optimizer's dimension.
func TestStepToShapes(t *testing.T) {
	sgd, _ := NewSGD(4, 0.1, 0.9, 0)
	adam, _ := NewAdam(4, 0.1, 0)
	for _, o := range []Optimizer{sgd, adam} {
		v := tensor.New(4)
		for i, args := range [][3]tensor.Vector{{tensor.New(3), v, v}, {v, tensor.New(5), v}, {v, v, tensor.New(3)}} {
			if _, err := o.StepTo(args[0], args[1], args[2], 1, 1); err == nil {
				t.Errorf("%T: mis-sized operand %d accepted", o, i)
			}
		}
	}
}

// TestStepToIntoGradient: StepTo may write the updated parameters over the
// gradient it reads (RNA publishes its reduced gradient buffer as the next
// parameter version), with the bits of stepping into a disjoint dst, in the
// parameters and in the optimizer state. The rows cover momentum with weight
// decay, plain SGD (whose velocity copy must precede the parameter copy),
// Adam and a scale-0 step; the lengths cover the kernels' tails and vector
// bodies. Run under -tags purego too for the Go loops.
func TestStepToIntoGradient(t *testing.T) {
	rows := []struct {
		name        string
		make        func(dim int) (Optimizer, error)
		mean, scale float64
	}{
		{"sgd/momentum+weight-decay", func(dim int) (Optimizer, error) { return NewSGD(dim, 0.05, 0.9, 1e-3) }, 0.5, 0.75},
		{"sgd/plain", func(dim int) (Optimizer, error) { return NewSGD(dim, 0.05, 0, 0) }, 1.0 / 3, 1},
		{"adam", func(dim int) (Optimizer, error) { return NewAdam(dim, 0.01, 1e-3) }, 0.25, 0.5},
		{"sgd/scale-0", func(dim int) (Optimizer, error) { return NewSGD(dim, 0.05, 0.9, 1e-3) }, 0.5, 0},
		{"adam/scale-0", func(dim int) (Optimizer, error) { return NewAdam(dim, 0.01, 1e-3) }, 0.5, 0},
	}
	for _, row := range rows {
		for _, dim := range []int{1, 7, 37, 1000} {
			t.Run(fmt.Sprintf("%s/dim=%d", row.name, dim), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(dim)))
				disjoint, err := row.make(dim)
				if err != nil {
					t.Fatal(err)
				}
				aliased, _ := row.make(dim)
				cur := randVec(rng, dim)
				// Three steps, so the state the aliased step reads is one it
				// wrote itself.
				for k := 0; k < 3; k++ {
					g := randVec(rng, dim)
					want := tensor.New(dim)
					wantLR, err := disjoint.StepTo(want, cur, g, row.mean, row.scale)
					if err != nil {
						t.Fatal(err)
					}
					curBefore, got := cur.Clone(), g.Clone()
					lr, err := aliased.StepTo(got, cur, got, row.mean, row.scale)
					if err != nil {
						t.Fatal(err)
					}
					if lr != wantLR {
						t.Fatalf("step %d: effective lr %v, want %v", k, lr, wantLR)
					}
					sameBits(t, fmt.Sprintf("step %d: params", k), got, want)
					sameBits(t, fmt.Sprintf("step %d: source", k), cur, curBefore)
					for i, s := range optState(disjoint) {
						sameBits(t, fmt.Sprintf("step %d: state %d", k, i), optState(aliased)[i], s)
					}
					cur = got
				}
			})
		}
	}
}
