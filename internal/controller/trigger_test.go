package controller

import (
	"slices"
	"testing"

	"repro/internal/rng"
)

// triggerCases seeds FuzzControllerTrigger: every policy, with and without a
// bounded-delay window, a window of one (lockstep) and a single worker.
var triggerCases = []struct {
	policy       Policy
	n, q, eta    uint8
	seed         int64
	syncs, steps uint16
}{
	{AllReady, 4, 0, 0, 1, 12, 300},
	{RandomInitiator, 4, 1, 0, 2, 12, 300},
	{RandomInitiator, 5, 1, 3, 3, 20, 500},
	{PowerOfChoices, 4, 2, 0, 4, 12, 300},
	{PowerOfChoices, 4, 2, 8, 5, 40, 900},
	{PowerOfChoices, 8, 2, 4, 6, 30, 900},
	{PowerOfChoices, 3, 3, 1, 7, 16, 400},
	{PowerOfChoices, 1, 1, 2, 8, 10, 100},
	{Majority, 5, 0, 0, 9, 12, 300},
	{Solo, 4, 0, 0, 10, 12, 300},
}

// FuzzControllerTrigger holds the Controller to its trigger rule over random
// interleavings of what an RNA or BSP cluster does to it. Each worker has a
// compute side that finishes a gradient and announces it (under the probe
// policies with the tag core.Accumulator.Commit hands out, the first
// synchronization its communication side has not joined; otherwise with its
// step) and a communication side that joins fired synchronizations in order;
// Await, Probes and Forget arrive in between. After every operation, for every
// synchronization that was asked about and not forgotten:
//
//   - it has fired exactly if its policy's condition held after some
//     announcement since it was first asked about: for the probe policies, a
//     probed worker announced a tag ≥ k AND no worker is under Floor(k, η);
//   - a fired one stays fired across Forget of earlier ones.
//
// A worker's last step announces the last synchronization, as rnaLoop's does.
// At the end every worker drains (runs the steps it has left), and every
// synchronization of the budget must then fire as soon as it is asked about.
func FuzzControllerTrigger(f *testing.F) {
	for _, c := range triggerCases {
		f.Add(uint8(c.policy), c.n, c.q, c.eta, c.seed, c.syncs, c.steps)
	}
	f.Fuzz(func(t *testing.T, pol, n8, q8, eta8 uint8, seed int64, syncs16, steps uint16) {
		policy := Policy((pol-1)%5) + AllReady
		n := int(n8-1)%8 + 1
		q := (int(q8)+n-1)%n + 1
		eta, syncs := int64(eta8%10), int64(syncs16-1)%64+1
		c, err := New(policy, n, q, seed)
		if err != nil {
			t.Fatal(err)
		}
		if eta > 0 {
			c.Bound(eta)
		}
		probing := policy == RandomInitiator || policy == PowerOfChoices

		// The model: what was announced, and which synchronizations are live.
		started := make([]bool, n)
		tag := make([]int64, n)       // highest announcement
		announced := make([]int64, n) // their count
		joined := make([]int64, n)    // synchronizations the comm side joined
		type live struct {
			fired  <-chan struct{}
			probes []int
			was    bool
		}
		asked := map[int64]*live{}
		ask := func(k int64) *live {
			l, ok := asked[k]
			if !ok {
				l = &live{probes: c.Probes(k)}
				l.fired, _ = c.Await(k)
				asked[k] = l
			}
			return l
		}
		isFired := func(l *live) bool {
			select {
			case <-l.fired:
				return true
			default:
				return false
			}
		}
		ready := func(w int, k int64) bool { return started[w] && tag[w] >= k }
		holds := func(k int64, l *live) bool {
			count := 0
			for w := 0; w < n; w++ {
				if ready(w, k) {
					count++
				}
			}
			switch policy {
			case AllReady:
				return count == n
			case Majority:
				return count >= n/2+1
			case Solo:
				return count >= 1
			}
			if eta > 0 && slices.Min(announced) < Floor(k, eta) {
				return false
			}
			return slices.ContainsFunc(l.probes, func(p int) bool { return ready(p, k) })
		}
		check := func(op string) {
			for k, l := range asked {
				want := l.was || holds(k, l)
				if got := isFired(l); got != want {
					t.Fatalf("after %s: synchronization %d fired=%v, want %v (tags %v, announced %v, probes %v, η=%d)",
						op, k, got, want, tag, announced, l.probes, eta)
				}
				l.was = want
			}
		}
		announce := func(w int, k int64) {
			if err := c.Ready(w, k); err != nil {
				t.Fatal(err)
			}
			started[w], tag[w] = true, max(tag[w], k)
			announced[w]++
		}

		src := rng.New(seed)
		for i := 0; i < int(steps%2048); i++ {
			w := src.Intn(n)
			switch op := src.Intn(8); {
			case op < 3: // the compute side finishes a gradient
				switch {
				case announced[w] >= syncs:
				case announced[w] == syncs-1: // the last step announces the last synchronization
					announce(w, syncs-1)
				case probing:
					announce(w, joined[w])
				default:
					announce(w, announced[w])
				}
				check("Ready")
			case op < 5: // the communication side joins its next synchronization
				if joined[w] < syncs && isFired(ask(joined[w])) {
					joined[w]++
				}
				check("Await")
			case op < 7: // somebody asks ahead
				ask(min(slices.Min(joined)+int64(src.Intn(4)), syncs-1))
				check("Await ahead")
			default: // rank 0 forgets what every worker has passed
				upTo := slices.Min(joined) - 1 - int64(src.Intn(3))
				c.Forget(upTo)
				for k := range asked {
					if k <= upTo {
						delete(asked, k)
					}
				}
				check("Forget")
			}
		}

		for w := 0; w < n; w++ {
			for announced[w] < syncs {
				announce(w, syncs-1)
			}
		}
		check("drain")
		for k := slices.Min(joined); k < syncs; k++ {
			if !isFired(ask(k)) {
				t.Fatalf("synchronization %d of %d did not fire after every worker drained (announced %v, η=%d)", k, syncs, announced, eta)
			}
		}
	})
}
