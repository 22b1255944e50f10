package transport_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/collective"
	"repro/internal/transport"
)

// TestRecvIntoLandsOverTCP: the owner-computes ring pair at the dense
// workloads' geometry (4 ranks, 139 792 parameters, 1.1 MB) runs 50
// synchronizations over TCP — every rank contributing, and RNA's partial
// participation with the contributor count as each scatter frame's tail —
// and lands at least 95 % of its receives straight off the socket. The
// parameters are bitwise those of the same run on the in-memory mesh, where
// every receive takes the pooled path.
func TestRecvIntoLandsOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP cluster in -short mode")
	}
	const n, dim, syncs = 4, 139792, 50
	for _, partial := range []bool{false, true} {
		local, err := transport.NewLocalNetwork(n)
		if err != nil {
			t.Fatal(err)
		}
		want := ringPairRun(t, local.Endpoints(), dim, syncs, partial)
		_ = local.Close()

		tcp, err := transport.NewTCPCluster(n)
		if err != nil {
			t.Fatal(err)
		}
		meshes := make([]transport.Mesh, n)
		for r, m := range tcp {
			meshes[r] = m
		}
		stop := transport.CountLandings()
		got := ringPairRun(t, meshes, dim, syncs, partial)
		landed, pooled := stop()
		for _, m := range tcp {
			_ = m.Close()
		}

		if total := landed + pooled; total != n*2*(n-1)*syncs {
			t.Errorf("partial=%t: %d receives completed, want %d", partial, total, n*2*(n-1)*syncs)
		}
		if float64(landed) < 0.95*float64(landed+pooled) {
			t.Errorf("partial=%t: %d of %d receives landed, want at least 95 %%", partial, landed, landed+pooled)
		}
		t.Logf("partial=%t: %d of %d receives landed off the socket", partial, landed, landed+pooled)
		for r := range got {
			for i := range got[r] {
				if math.Float64bits(got[r][i]) != math.Float64bits(want[0][i]) {
					t.Fatalf("partial=%t: TCP rank %d param %d = %x, in-memory %x", partial, r, i, got[r][i], want[0][i])
				}
			}
		}
	}
}

// ringPairRun trains a toy linear update with the owner-computes ring pair
// and returns every rank's final parameters: per synchronization each rank
// draws a gradient from its own stream plus a pull towards the parameters,
// reduces it onto the chunk it owns, steps that chunk, and allgathers. With
// partial, a rank sits out one synchronization in three (never all at once)
// and the scatter carries the contributor count.
func ringPairRun(t *testing.T, meshes []transport.Mesh, dim, syncs int, partial bool) [][]float64 {
	t.Helper()
	n := len(meshes)
	size := dim
	if partial {
		size = dim + 1 // the flag slot
	}
	params := make([][]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r, m := range meshes {
		params[r] = make([]float64, size)
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, work := params[r], make([]float64, size)
			for i := 0; i < dim; i++ {
				p[i] = math.Sin(float64(i)) * 0.1
			}
			state := uint64(r)*0x9e3779b97f4a7c15 + 1
			lo, hi := collective.RingOwned(size, n, r)
			hi = min(hi, dim)
			for k := int64(0); k < int64(syncs); k++ {
				for i := 0; i < dim; i++ {
					state ^= state << 13
					state ^= state >> 7
					state ^= state << 17
					work[i] = float64(state>>11)/(1<<53) - 0.5 + 0.01*p[i]
				}
				scale := 1.0
				if partial {
					contributes := (int(k)+r)%3 != 0
					count, err := collective.PartialRingReduceScatter(m, k, work, contributes)
					if err != nil {
						errs[r] = fmt.Errorf("rank %d sync %d: %w", r, k, err)
						return
					}
					if count == 0 {
						continue
					}
					scale = 1 / float64(count)
				} else if err := collective.RingReduceScatter(m, k, work, collective.OpAverage); err != nil {
					errs[r] = fmt.Errorf("rank %d sync %d: %w", r, k, err)
					return
				}
				for i := lo; i < hi; i++ {
					p[i] -= 0.05 * work[i] * scale
				}
				if err := collective.RingAllGather(m, k, p); err != nil {
					errs[r] = fmt.Errorf("rank %d sync %d: %w", r, k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return params
}
