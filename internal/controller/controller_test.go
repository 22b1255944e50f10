package controller

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rng"
)

func TestPolicyString(t *testing.T) {
	for _, p := range []Policy{AllReady, RandomInitiator, PowerOfChoices, Majority, Solo} {
		if s := p.String(); s == "" || strings.HasPrefix(s, "policy(") {
			t.Errorf("Policy %d has bad String %q", int(p), s)
		}
	}
	if !strings.HasPrefix(Policy(99).String(), "policy(") {
		t.Error("unknown policy should format as policy(n)")
	}
}

func TestPickProbes(t *testing.T) {
	src := rng.New(1)
	if got := PickProbes(src, AllReady, 10, 2); got != nil {
		t.Errorf("AllReady probes = %v, want nil", got)
	}
	if got := PickProbes(src, Majority, 10, 2); got != nil {
		t.Errorf("Majority probes = %v, want nil", got)
	}
	if got := PickProbes(src, RandomInitiator, 10, 2); len(got) != 1 {
		t.Errorf("RandomInitiator probes = %v, want 1", got)
	}
	got := PickProbes(src, PowerOfChoices, 10, 3)
	if len(got) != 3 {
		t.Errorf("PowerOfChoices(3) probes = %v", got)
	}
	// Default q when invalid.
	if got := PickProbes(src, PowerOfChoices, 10, 0); len(got) != 2 {
		t.Errorf("PowerOfChoices(0) probes = %v, want 2 defaults", got)
	}
}

func ms(xs ...int) []time.Duration {
	out := make([]time.Duration, len(xs))
	for i, x := range xs {
		out[i] = time.Duration(x) * time.Millisecond
	}
	return out
}

func TestTriggerTimeAllReady(t *testing.T) {
	at, init := TriggerTime(AllReady, nil, ms(10, 50, 30))
	if at != 50*time.Millisecond || init != -1 {
		t.Errorf("AllReady = (%v,%d), want (50ms,-1)", at, init)
	}
}

func TestTriggerTimeProbes(t *testing.T) {
	ready := ms(40, 10, 30, 20)
	at, init := TriggerTime(PowerOfChoices, []int{0, 2}, ready)
	if at != 30*time.Millisecond || init != 2 {
		t.Errorf("probe{0,2} = (%v,%d), want (30ms,2)", at, init)
	}
	at, init = TriggerTime(RandomInitiator, []int{3}, ready)
	if at != 20*time.Millisecond || init != 3 {
		t.Errorf("probe{3} = (%v,%d), want (20ms,3)", at, init)
	}
}

func TestTriggerTimeBadProbesFallsBackToSolo(t *testing.T) {
	ready := ms(40, 10)
	at, init := TriggerTime(PowerOfChoices, []int{-1, 9}, ready)
	if at != 10*time.Millisecond || init != 1 {
		t.Errorf("bad probes = (%v,%d), want solo (10ms,1)", at, init)
	}
}

func TestTriggerTimeMajoritySolo(t *testing.T) {
	ready := ms(50, 10, 30, 20, 40)
	at, _ := TriggerTime(Majority, nil, ready) // floor(5/2)+1 = 3rd smallest = 30
	if at != 30*time.Millisecond {
		t.Errorf("Majority = %v, want 30ms", at)
	}
	at, init := TriggerTime(Solo, nil, ready)
	if at != 10*time.Millisecond || init != 1 {
		t.Errorf("Solo = (%v,%d), want (10ms,1)", at, init)
	}
}

func TestTriggerTimeUnknownPolicyDefaultsToBarrier(t *testing.T) {
	at, _ := TriggerTime(Policy(99), nil, ms(5, 9))
	if at != 9*time.Millisecond {
		t.Errorf("unknown policy = %v, want max (9ms)", at)
	}
}

func TestTriggerTimeEmptyReady(t *testing.T) {
	at, init := TriggerTime(Solo, nil, nil)
	if at != 0 || init != -1 {
		t.Errorf("empty ready = (%v,%d)", at, init)
	}
}

// Property: the power-of-two trigger never fires later than the random
// single-probe trigger using the first probe, and never earlier than the
// solo trigger.
func TestQuickTriggerOrdering(t *testing.T) {
	src := rng.New(5)
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%16 + 2
		local := rng.New(seed)
		ready := make([]time.Duration, n)
		for i := range ready {
			ready[i] = time.Duration(local.Uniform(0, 100)) * time.Millisecond
		}
		probes := PickProbes(src, PowerOfChoices, n, 2)
		atQ2, _ := TriggerTime(PowerOfChoices, probes, ready)
		atQ1, _ := TriggerTime(RandomInitiator, probes[:1], ready)
		atSolo, _ := TriggerTime(Solo, nil, ready)
		atAll, _ := TriggerTime(AllReady, nil, ready)
		return atSolo <= atQ2 && atQ2 <= atQ1 && atQ1 <= atAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestControllerAllReady(t *testing.T) {
	c, err := New(AllReady, 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	fired, initiator := c.Await(0)
	if err := c.Ready(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Ready(1, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fired:
		t.Fatal("barrier fired before all workers were ready")
	default:
	}
	if err := c.Ready(2, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("barrier never fired")
	}
	if got := initiator(); got != -1 {
		t.Errorf("initiator = %d, want -1", got)
	}
}

func TestControllerPowerOfChoices(t *testing.T) {
	c, err := New(PowerOfChoices, 5, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	probes := c.Probes(0)
	if len(probes) != 2 {
		t.Fatalf("probes = %v", probes)
	}
	fired, initiator := c.Await(0)
	// Readiness of an unprobed worker must not fire the trigger.
	unprobed := -1
	for w := 0; w < 5; w++ {
		if w != probes[0] && w != probes[1] {
			unprobed = w
			break
		}
	}
	if err := c.Ready(unprobed, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fired:
		t.Fatal("unprobed readiness fired the trigger")
	default:
	}
	if err := c.Ready(probes[1], 0); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("probe readiness did not fire")
	}
	if got := initiator(); got != probes[1] {
		t.Errorf("initiator = %d, want %d", got, probes[1])
	}
}

func TestControllerMonotoneReadiness(t *testing.T) {
	// A worker announcing iteration 5 is implicitly ready for 0..5 —
	// the probe-expiry rule.
	c, err := New(Solo, 2, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ready(1, 5); err != nil {
		t.Fatal(err)
	}
	fired, _ := c.Await(3)
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("monotone readiness did not satisfy earlier iteration")
	}
}

func TestControllerReadyBeforeAwait(t *testing.T) {
	c, err := New(Solo, 2, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ready(0, 0); err != nil {
		t.Fatal(err)
	}
	fired, initiator := c.Await(0)
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("pre-announced readiness did not fire on Await")
	}
	if got := initiator(); got != 0 {
		t.Errorf("initiator = %d, want 0", got)
	}
}

func TestControllerMajority(t *testing.T) {
	c, err := New(Majority, 4, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	fired, _ := c.Await(0)
	if err := c.Ready(0, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fired:
		t.Fatal("majority fired with 1/4 ready")
	default:
	}
	if err := c.Ready(3, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fired:
		t.Fatal("majority fired with only 2/4 ready (needs ⌊n/2⌋+1 = 3)")
	default:
	}
	if err := c.Ready(1, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("majority (3/4) did not fire")
	}
}

func TestControllerForget(t *testing.T) {
	c, err := New(Solo, 2, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = c.Await(0)
	_, _ = c.Await(1)
	c.Forget(0)
	c.mu.Lock()
	n := len(c.iters)
	c.mu.Unlock()
	if n != 1 {
		t.Errorf("after Forget(0), %d iterations retained, want 1", n)
	}
}

func TestControllerErrors(t *testing.T) {
	if _, err := New(AllReady, 0, 0, 1); err == nil {
		t.Error("zero workers should error")
	}
	if _, err := New(PowerOfChoices, 4, 0, 1); err == nil {
		t.Error("q=0 power-of-choices should error")
	}
	c, err := New(AllReady, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ready(5, 0); err == nil {
		t.Error("out-of-range worker should error")
	}
}

func TestControllerProbesStablePerIteration(t *testing.T) {
	c, err := New(PowerOfChoices, 10, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	a := c.Probes(4)
	b := c.Probes(4)
	if len(a) != len(b) || a[0] != b[0] || a[1] != b[1] {
		t.Errorf("probe set changed between calls: %v vs %v", a, b)
	}
}

func TestControllerConcurrentWorkers(t *testing.T) {
	const n = 8
	c, err := New(AllReady, n, 0, 13)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 50
	done := make(chan struct{}, n)
	for w := 0; w < n; w++ {
		w := w
		go func() {
			for k := int64(0); k < iters; k++ {
				if err := c.Ready(w, k); err != nil {
					t.Errorf("ready: %v", err)
					return
				}
				fired, _ := c.Await(k)
				<-fired
			}
			done <- struct{}{}
		}()
	}
	for w := 0; w < n; w++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("concurrent barrier deadlocked")
		}
	}
}

// TestStep pins the second half of the step rule both implementations call
// (core's TestAccumulatorWeighs holds Weigh to its table): Step turns the
// synchronization's mini-batch count into the mean over them and the Linear
// Scaling factor, so each mini-batch moves the model by γ/n whoever brought
// it.
func TestStep(t *testing.T) {
	for _, tc := range []struct {
		batches, n  int
		mean, scale float64
		fails       bool
	}{
		{batches: 6, n: 4, mean: 1.0 / 6, scale: 1.5},
		{batches: 3, n: 4, mean: 1.0 / 3, scale: 0.75},
		{batches: 4, n: 4, mean: 0.25, scale: 1},
		{batches: -1, n: 4, fails: true},
		{batches: 1, n: 0, fails: true},
	} {
		mean, scale, err := Step(tc.batches, tc.n)
		if (err != nil) != tc.fails {
			t.Errorf("Step(%d, %d) err = %v, want failure %v", tc.batches, tc.n, err, tc.fails)
			continue
		}
		if !tc.fails && (mean != tc.mean || scale != tc.scale) {
			t.Errorf("Step(%d, %d) = (%v, %v), want (%v, %v)", tc.batches, tc.n, mean, scale, tc.mean, tc.scale)
		}
		if !tc.fails && math.Abs(mean*scale-1/float64(tc.n)) > 1e-15 {
			t.Errorf("Step(%d, %d): a mini-batch moves the model by %v·γ, want γ/%d", tc.batches, tc.n, mean*scale, tc.n)
		}
	}
}
