package leakcheck

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestSettle: a goroutine that is never stopped fails the check, and the same
// goroutine stopped passes it.
func TestSettle(t *testing.T) {
	base := baseline()
	stop := make(chan struct{})
	go func() { <-stop }()
	err := settle(base, 50*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "TestSettle") {
		t.Errorf("leaked goroutine not reported with its stack: %v", err)
	}
	close(stop)
	if err := settle(base, time.Second); err != nil {
		t.Error(err)
	}
}

// recordTB keeps what Check registers and reports instead of acting on it.
type recordTB struct {
	testing.TB
	cleanups []func()
	errs     []string
}

func (r *recordTB) Cleanup(f func())  { r.cleanups = append(r.cleanups, f) }
func (r *recordTB) Error(args ...any) { r.errs = append(r.errs, fmt.Sprint(args...)) }

// TestCheck: a test that stops what it started passes its cleanup check, and
// one that leaves a goroutine running fails it with that goroutine's stack.
func TestCheck(t *testing.T) {
	clean := &recordTB{TB: t}
	Check(clean)
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
	for _, f := range clean.cleanups {
		f()
	}
	if len(clean.cleanups) != 1 || len(clean.errs) != 0 {
		t.Errorf("clean test: %d cleanups, errors %q", len(clean.cleanups), clean.errs)
	}

	leaky := &recordTB{TB: t}
	Check(leaky)
	stop := make(chan struct{})
	go func() { <-stop }()
	for _, f := range leaky.cleanups {
		f()
	}
	close(stop)
	if len(leaky.errs) != 1 || !strings.Contains(leaky.errs[0], "TestCheck") {
		t.Errorf("leaked goroutine not reported with its stack: %q", leaky.errs)
	}
}
