package leakcheck

import (
	"strings"
	"testing"
	"time"
)

func TestTopRepoFrame(t *testing.T) {
	idle := `goroutine 7 [chan receive]:
runtime.gopark(0x0?, 0x0?, 0x0?, 0x0?, 0x0?)
	/usr/local/go/src/runtime/proc.go:424 +0xce
repro/internal/collective.(*ringSender).loop(0xc000120000)
	/src/internal/collective/ring.go:222 +0x45
created by repro/internal/collective.newRingSender in goroutine 6
	/src/internal/collective/ring.go:188 +0x125`
	if got := topRepoFrame(idle); got != idleFrame {
		t.Errorf("idle sender: top repo frame %q, want %q", got, idleFrame)
	}
	stuck := strings.Replace(idle, "(*ringSender).loop(0xc000120000)",
		"(*ringSender).run(0xc000120000, {0x0, 0x0})", 1)
	if got := topRepoFrame(stuck); got == idleFrame {
		t.Error("a sender parked in run is taken for an idle one")
	}
	if got := topRepoFrame("goroutine 1 [running]:\nmain.main()\n\t/x.go:1 +0x1"); got != "" {
		t.Errorf("no repo frame: got %q", got)
	}
}

// TestSettle: a goroutine that is never stopped fails the check, and the same
// goroutine stopped passes it.
func TestSettle(t *testing.T) {
	base := len(live())
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
