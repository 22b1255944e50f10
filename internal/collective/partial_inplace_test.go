package collective

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/race"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// memAndTCP returns an in-memory and a localhost-TCP mesh of n ranks.
func memAndTCP(t *testing.T, n int) map[string][]transport.Mesh {
	t.Helper()
	local, err := transport.NewLocalNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = local.Close() })
	kinds := map[string][]transport.Mesh{"mem": local.Endpoints()}
	if testing.Short() {
		return kinds
	}
	tcp, err := transport.NewTCPCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range tcp {
		t.Cleanup(func() { _ = m.Close() })
		kinds["tcp"] = append(kinds["tcp"], m)
	}
	return kinds
}

func sameBits(a, b tensor.Vector) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestPartialAllReduceInPlaceMatchesCopying: reducing a flag-extended
// buffer where it lies gives the bits the copying wrapper gives — sum,
// contributor count and error-feedback residual — for every schedule, over
// both transports, with an exact and a lossy wire, for mixed contributors,
// everyone and no one. Null ranks hand in garbage, which must not leak.
func TestPartialAllReduceInPlaceMatchesCopying(t *testing.T) {
	const dim = 261 // not a multiple of any rank count here, flag slot included
	src := rand.New(rand.NewSource(99))
	for n := 2; n <= 8; n++ {
		patterns := map[string][]bool{
			"mixed": make([]bool, n),
			"all":   make([]bool, n),
			"none":  make([]bool, n),
		}
		for r := 0; r < n; r++ {
			patterns["mixed"][r] = r%3 != 1
			patterns["all"][r] = true
		}
		inputs := randomInputs(src, n, dim)
		for kind, meshes := range memAndTCP(t, n) {
			iter := int64(0)
			for _, algo := range append([]Algorithm{AlgoAuto}, fixedAlgos...) {
				for name, contributes := range patterns {
					label := fmt.Sprintf("%s n=%d %v %s", kind, n, algo, name)
					base := iter
					iter += 2
					spmd(t, meshes, func(m transport.Mesh) error {
						r := m.Rank()
						opts := Options{Algorithm: algo}
						pr, err := PartialAllReduceOpts(m, base, inputs[r], contributes[r], opts)
						if err != nil {
							return err
						}
						defer pr.Release()

						work := make(tensor.Vector, dim+1)
						copy(work, inputs[r])
						work[dim] = 7 // the call owns the flag slot
						if !contributes[r] {
							work.Fill(math.NaN())
						}
						count, err := PartialAllReduceInPlace(m, base+1, work, weight(contributes[r]), opts)
						if err != nil {
							return err
						}
						if count != pr.Contributors {
							return fmt.Errorf("%s: in-place counted %d, copying %d", label, count, pr.Contributors)
						}
						if j, ok := sameBits(work[:dim], pr.Sum); !ok {
							return fmt.Errorf("%s: sum differs at %d: in-place %v, copying %v", label, j, work[j], pr.Sum[j])
						}
						return nil
					})
				}
			}
		}
	}
}

// TestPartialAllReduceInPlaceRejects: a vector with no flag slot is refused
// before any traffic.
func TestPartialAllReduceInPlaceRejects(t *testing.T) {
	runSPMD(t, 2, func(m transport.Mesh) error {
		if _, err := PartialAllReduceInPlace(m, 0, nil, 1, Options{}); err == nil {
			t.Error("empty vector accepted")
		}
		return nil
	})
}

// TestPartialAllReduceInPlaceAllocs: the in-place partial collective on the
// in-memory mesh allocates far less than one vector per call — what is left
// is the ring's per-call bookkeeping, none of it proportional to dim.
func TestPartialAllReduceInPlaceAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const n, dim, rounds = 4, 1 << 16, 20
	local, err := transport.NewLocalNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = local.Close() }()
	bufs := make([]tensor.Vector, n)
	for r := range bufs {
		bufs[r] = tensor.New(dim + 1)
	}
	run := func(from, to int64) {
		spmd(t, local.Endpoints(), func(m transport.Mesh) error {
			for k := from; k < to; k++ {
				if _, err := PartialAllReduceInPlace(m, k, bufs[m.Rank()], weight(m.Rank() != 1), Options{}); err != nil {
					return err
				}
			}
			return nil
		})
	}
	run(0, 5) // warm the payload pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(5, 5+rounds)
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / (rounds * n)
	t.Logf("%.0f bytes per rank per call at dim %d", perCall, dim)
	if perCall >= dim {
		t.Errorf("%.0f bytes allocated per in-place partial allreduce at dim %d, want < dim", perCall, dim)
	}
}

// TestPartialResultReleaseIdempotent: Release must be safe to call twice —
// the regression is a double PutPayload poisoning the payload pool with the
// same backing array twice.
func TestPartialResultReleaseIdempotent(t *testing.T) {
	pr := PartialResult{Sum: tensor.Vector(transport.GetPayload(64)), Contributors: 3}
	pr.Release()
	if pr.Sum != nil || pr.Contributors != 0 {
		t.Fatalf("release left %+v", pr)
	}
	pr.Release() // second release: must be a no-op
	// If the double release had pushed the same buffer twice, two gets
	// would alias: writing through one would be visible through the other.
	a := transport.GetPayload(64)
	b := transport.GetPayload(64)
	a[0] = 1
	if b[0] == 1 && &a[0] == &b[0] {
		t.Fatal("double release leaked the same buffer to two owners")
	}
	transport.PutPayload(a)
	transport.PutPayload(b)
}

// weight is the flag a rank that contributes one mini-batch, or none, hands
// the partial collectives.
func weight(contributes bool) int {
	if contributes {
		return 1
	}
	return 0
}

// TestPartialCollectivesSumWeights: a rank's flag is the mini-batches its
// gradient sums, and every partial schedule — the tree, the in-place ring,
// the owner-computes scatter and the tree's halves — sums the flags uncapped
// on every rank, over both transports: weights (2, 0, 3, 1) read 6 on four
// ranks, and the data is the sum over the ranks with a non-zero weight. The
// tree's halves read it twice: PartialTreeReduce at rank 0, then
// PartialBroadcast on every rank, from the flag slot the root sent down.
func TestPartialCollectivesSumWeights(t *testing.T) {
	const n, dim = 4, 37
	weights := []int{2, 0, 3, 1}
	in := shardInputs(n, dim+1, 6)
	want := tensor.New(dim)
	for r, w := range weights {
		if w > 0 {
			_ = want.Add(in[r][:dim])
		}
	}
	for kind, meshes := range memAndTCP(t, n) {
		for _, sched := range []string{"tree", "ring", "scatter", "tree halves"} {
			got := cloneVecs(in)
			counts := make([]int, n)
			var rootCount int
			spmd(t, meshes, func(m transport.Mesh) (err error) {
				r := m.Rank()
				switch sched {
				case "tree halves":
					var c int
					if c, err = PartialTreeReduce(m, 3, got[r], weights[r]); err != nil {
						return err
					}
					if r == 0 {
						rootCount = c
					}
					counts[r], err = PartialBroadcast(m, 3, got[r])
				case "tree":
					counts[r], err = PartialAllReduceInPlace(m, 3, got[r], weights[r], Options{Algorithm: AlgoTree})
				case "ring":
					counts[r], err = PartialAllReduceInPlace(m, 3, got[r], weights[r], Options{Algorithm: AlgoRing})
				default:
					counts[r], err = PartialRingReduceScatter(m, 3, got[r], weights[r])
				}
				return err
			})
			if sched == "tree halves" && rootCount != 6 {
				t.Errorf("%s/%s: the root's reduce read %d mini-batches, want 6", kind, sched, rootCount)
			}
			for r := range counts {
				if counts[r] != 6 {
					t.Errorf("%s/%s: rank %d read %d mini-batches, want 6", kind, sched, r, counts[r])
				}
				lo, hi := 0, dim
				if sched == "scatter" {
					lo, hi = RingOwned(dim+1, n, r)
					hi = min(hi, dim)
				}
				if !got[r][lo:hi].Equal(want[lo:hi], 1e-12) {
					t.Errorf("%s/%s: rank %d holds a sum other than the contributors'", kind, sched, r)
				}
			}
		}
	}
}
