package sim

import (
	"errors"
	"testing"
	"time"
)

func TestEventsRunInTimestampOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30*time.Millisecond, func() { order = append(order, 3) })
	e.At(10*time.Millisecond, func() { order = append(order, 1) })
	e.At(20*time.Millisecond, func() { order = append(order, 2) })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
	if e.Now() != 30*time.Millisecond {
		t.Errorf("final Now = %v, want 30ms", e.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.At(time.Millisecond, func() { order = append(order, i) })
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated: order = %v", order)
		}
	}
}

func TestAfterRelativeScheduling(t *testing.T) {
	e := NewEngine()
	var at time.Duration
	e.At(5*time.Millisecond, func() {
		e.After(10*time.Millisecond, func() { at = e.Now() })
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if at != 15*time.Millisecond {
		t.Errorf("nested After fired at %v, want 15ms", at)
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	e := NewEngine()
	var fired time.Duration
	e.At(10*time.Millisecond, func() {
		e.At(2*time.Millisecond, func() { fired = e.Now() }) // in the past
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired != 10*time.Millisecond {
		t.Errorf("past event fired at %v, want clamp to 10ms", fired)
	}
}

func TestNegativeAfterClamps(t *testing.T) {
	e := NewEngine()
	fired := false
	e.After(-time.Second, func() { fired = true })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !fired || e.Now() != 0 {
		t.Errorf("negative After: fired=%v now=%v", fired, e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(time.Duration(i)*time.Millisecond, func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	err := e.Run(0)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("Run after Stop = %v, want ErrStopped", err)
	}
	if count != 3 {
		t.Errorf("executed %d events after Stop, want 3", count)
	}
	if e.Pending() != 7 {
		t.Errorf("Pending = %d, want 7", e.Pending())
	}
}

func TestEventBudget(t *testing.T) {
	e := NewEngine()
	// Self-perpetuating event chain.
	var loop func()
	loop = func() { e.After(time.Millisecond, loop) }
	e.After(0, loop)
	if err := e.Run(100); err == nil {
		t.Fatal("unbounded chain should exhaust the event budget")
	}
	if e.Processed() != 100 {
		t.Errorf("Processed = %d, want 100", e.Processed())
	}
}
