// Package leakcheck fails a package's test binary when goroutines its tests
// started outlive them. Call Main from the package's TestMain, and Check from
// a test that has to end with no goroutine of its own left.
package leakcheck

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// wait is how long the goroutine count has to return to its baseline.
const wait = 3 * time.Second

// Main runs the tests and exits with their status. When they pass, it then
// waits for the live goroutines to number no more than before the tests; if
// they still do not after 3 s, it prints every goroutine's stack and exits 1.
// A fuzzing run is not checked: the fuzz engine leaves os/signal's loop
// running.
func Main(m *testing.M) {
	base := len(live())
	code := m.Run()
	if code == 0 && !fuzzing() {
		if err := settle(base, wait); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// Check fails t when, after t and the cleanups it registers later have
// finished, more goroutines are live than when Check was called, 3 s after
// the end at the latest. It checks one test (or subtest) where Main checks
// the whole binary; the test must not run in parallel with others.
func Check(t testing.TB) {
	base := baseline()
	t.Cleanup(func() {
		if err := settle(base, wait); err != nil {
			t.Error(err)
		}
	})
}

// fuzzing reports whether the binary ran the fuzz engine, as coordinator or
// worker, rather than the tests.
func fuzzing() bool {
	set := func(name, off string) bool {
		f := flag.Lookup(name)
		return f != nil && f.Value.String() != off
	}
	return set("test.fuzz", "") || set("test.fuzzworker", "false")
}

// baseline returns the fewest goroutines live over a short window. A test
// starts as soon as the one before it has signalled its end, which can be
// before that test's goroutine has exited; counted once, it would raise the
// baseline and hide a goroutine the new test leaves behind.
func baseline() int {
	n := len(live())
	for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); {
		time.Sleep(5 * time.Millisecond)
		n = min(n, len(live()))
	}
	return n
}

// settle polls until at most base goroutines are live, or reports the
// stacks of the live ones once d has passed.
func settle(base int, d time.Duration) error {
	deadline := time.Now().Add(d)
	for {
		gs := live()
		if len(gs) <= base {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("leakcheck: %d goroutines live %v after the tests, %d before them:\n\n%s",
				len(gs), d, base, strings.Join(gs, "\n\n"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// live returns the stack of every goroutine.
func live() []string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Split(strings.TrimSpace(string(buf[:n])), "\n\n")
		}
		buf = make([]byte, 2*len(buf))
	}
}
