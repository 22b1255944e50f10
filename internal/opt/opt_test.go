package opt

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func TestSGDVanillaStep(t *testing.T) {
	o, err := NewSGD(2, 0.1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	params := tensor.FromSlice([]float64{1, 1})
	grad := tensor.FromSlice([]float64{1, -2})
	lr, err := o.Step(params, grad, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lr != 0.1 {
		t.Errorf("effective lr = %v, want 0.1", lr)
	}
	want := tensor.FromSlice([]float64{0.9, 1.2})
	if !params.Equal(want, 1e-12) {
		t.Errorf("params = %v, want %v", params, want)
	}
	if o.StepCount() != 1 {
		t.Errorf("StepCount = %d", o.StepCount())
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	o, err := NewSGD(1, 0.1, 0.9, 0)
	if err != nil {
		t.Fatal(err)
	}
	params := tensor.FromSlice([]float64{0})
	grad := tensor.FromSlice([]float64{1})
	if _, err := o.Step(params, grad, 1); err != nil {
		t.Fatal(err)
	}
	// v=1, x=-0.1
	if _, err := o.Step(params, grad, 1); err != nil {
		t.Fatal(err)
	}
	// v=0.9+1=1.9, x=-0.1-0.19=-0.29
	if math.Abs(params[0]+0.29) > 1e-12 {
		t.Errorf("params = %v, want -0.29", params[0])
	}
}

func TestSGDWeightDecay(t *testing.T) {
	o, err := NewSGD(1, 0.1, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	params := tensor.FromSlice([]float64{2})
	grad := tensor.FromSlice([]float64{0})
	if _, err := o.Step(params, grad, 1); err != nil {
		t.Fatal(err)
	}
	// v = 0 + 0 + 0.5*2 = 1; x = 2 - 0.1 = 1.9
	if math.Abs(params[0]-1.9) > 1e-12 {
		t.Errorf("params = %v, want 1.9", params[0])
	}
}

func TestSGDLinearScaling(t *testing.T) {
	o, err := NewSGD(1, 0.2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	params := tensor.FromSlice([]float64{1})
	grad := tensor.FromSlice([]float64{1})
	lr, err := o.Step(params, grad, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if lr != 0.1 {
		t.Errorf("scaled lr = %v, want 0.1", lr)
	}
	if math.Abs(params[0]-0.9) > 1e-12 {
		t.Errorf("params = %v, want 0.9", params[0])
	}
}

func TestSGDZeroScaleIsNoop(t *testing.T) {
	o, err := NewSGD(1, 0.2, 0.9, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	params := tensor.FromSlice([]float64{1})
	grad := tensor.FromSlice([]float64{5})
	lr, err := o.Step(params, grad, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lr != 0 {
		t.Errorf("lr = %v, want 0", lr)
	}
	if params[0] != 1 {
		t.Errorf("zero-scale step changed params: %v", params[0])
	}
	if o.StepCount() != 1 {
		t.Error("zero-scale step must still advance the schedule clock")
	}
}

func TestSGDScheduleApplied(t *testing.T) {
	o, err := NewSGD(1, 1.0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	o.Schedule = StepDecay{Boundaries: []int{2}, Decay: 0.1}
	params := tensor.FromSlice([]float64{0})
	grad := tensor.FromSlice([]float64{1})
	lrs := make([]float64, 4)
	for i := range lrs {
		lrs[i], err = o.Step(params, grad, 1)
		if err != nil {
			t.Fatal(err)
		}
	}
	if lrs[0] != 1 || lrs[1] != 1 {
		t.Errorf("pre-boundary lrs = %v", lrs[:2])
	}
	if math.Abs(lrs[2]-0.1) > 1e-12 || math.Abs(lrs[3]-0.1) > 1e-12 {
		t.Errorf("post-boundary lrs = %v", lrs[2:])
	}
}

func TestSGDReset(t *testing.T) {
	o, err := NewSGD(1, 0.1, 0.9, 0)
	if err != nil {
		t.Fatal(err)
	}
	params := tensor.FromSlice([]float64{0})
	grad := tensor.FromSlice([]float64{1})
	if _, err := o.Step(params, grad, 1); err != nil {
		t.Fatal(err)
	}
	o.Reset()
	if o.StepCount() != 0 {
		t.Error("Reset did not clear step counter")
	}
	params[0] = 0
	if _, err := o.Step(params, grad, 1); err != nil {
		t.Fatal(err)
	}
	if math.Abs(params[0]+0.1) > 1e-12 {
		t.Errorf("velocity not cleared: params = %v", params[0])
	}
}

func TestSGDErrors(t *testing.T) {
	if _, err := NewSGD(0, 0.1, 0, 0); err == nil {
		t.Error("dim 0 should error")
	}
	if _, err := NewSGD(1, 0, 0, 0); err == nil {
		t.Error("zero lr should error")
	}
	if _, err := NewSGD(1, 0.1, 1.0, 0); err == nil {
		t.Error("momentum 1.0 should error")
	}
	if _, err := NewSGD(1, 0.1, -0.1, 0); err == nil {
		t.Error("negative momentum should error")
	}
	if _, err := NewSGD(1, 0.1, 0, -1); err == nil {
		t.Error("negative weight decay should error")
	}
	o, err := NewSGD(2, 0.1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Step(tensor.New(3), tensor.New(2), 1); err == nil {
		t.Error("shape mismatch should error")
	}
	if _, err := o.Step(tensor.New(2), tensor.New(2), -1); err == nil {
		t.Error("negative scale should error")
	}
}

func TestStepDecay(t *testing.T) {
	s := StepDecay{Boundaries: []int{30, 60, 80}, Decay: 0.1}
	cases := []struct {
		step int
		want float64
	}{
		{0, 1}, {29, 1}, {30, 0.1}, {59, 0.1}, {60, 0.01}, {80, 0.001}, {100, 0.001},
	}
	for _, c := range cases {
		if got := s.Factor(c.step); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("Factor(%d) = %v, want %v", c.step, got, c.want)
		}
	}
}

func TestConstant(t *testing.T) {
	var s Constant
	if s.Factor(0) != 1 || s.Factor(1000) != 1 {
		t.Error("Constant schedule not 1")
	}
}

func TestLinearScale(t *testing.T) {
	got, err := LinearScale(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.75 {
		t.Errorf("LinearScale(3,4) = %v", got)
	}
	if got, err := LinearScale(0, 4); err != nil || got != 0 {
		t.Errorf("LinearScale(0,4) = (%v,%v)", got, err)
	}
	if got, err := LinearScale(4, 4); err != nil || got != 1 {
		t.Errorf("LinearScale(4,4) = (%v,%v)", got, err)
	}
	if got, err := LinearScale(6, 4); err != nil || got != 1.5 {
		t.Errorf("LinearScale(6,4) = (%v,%v): more mini-batches than workers scale past 1", got, err)
	}
	if _, err := LinearScale(-1, 4); err == nil {
		t.Error("a negative mini-batch count should error")
	}
	if _, err := LinearScale(1, 0); err == nil {
		t.Error("zero workers should error")
	}
}
