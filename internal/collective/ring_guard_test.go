//go:build benchsmoke

package collective_test

import (
	"testing"

	"repro/internal/collective"
	"repro/internal/race"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// ringGuardRecordedNs is the recorded ns/op for an average AllReduce of
// 262 144 elements over 8 ranks on the in-memory mesh: the n8/dim262144
// RingAllReduce row measured when the owner-computes update landed (commit
// 87da9c7, August 2026) and kept in the collective benchmark report until
// that report was retired after commit 0dc87d9. The same measurement read
// 2 377 934 ns/op at 0dc87d9 on a 2-vCPU x86 host. It was recorded on the
// pipelined, segmented ring engine that was deleted after commit 87229be;
// RingAllReduce is now the reduce-scatter/allgather pair, which the guard
// times against the same constant and bound.
const ringGuardRecordedNs = 3013238

// TestRingRegressionGuard re-measures RingAllReduce on the in-memory mesh at
// the recorded point and fails if the best of five testing.Benchmark runs
// lands more than 10 % above ringGuardRecordedNs; the best of five damps
// scheduler noise. It is a timing gate, so it builds only under the
// benchsmoke tag (make bench-smoke) and never runs in a plain go test on a
// shared host.
func TestRingRegressionGuard(t *testing.T) {
	if race.Enabled {
		t.Skip("timings are meaningless under the race detector")
	}
	const n, dim, reps = 8, 1 << 18, 5
	net, err := transport.NewLocalNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	eps := net.Endpoints()
	vecs := make([]tensor.Vector, n)
	for i := range vecs {
		vecs[i] = tensor.New(dim)
		for j := range vecs[i] {
			vecs[i][j] = float64(i + j)
		}
	}
	var best int64
	for r := 0; r < reps; r++ {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runRanks(b, eps, func(m transport.Mesh) error {
					return collective.RingAllReduce(m, int64(i), vecs[m.Rank()], collective.OpAverage)
				})
			}
		})
		if res.N == 0 {
			t.Fatal("ring benchmark failed")
		}
		if ns := res.NsPerOp(); best == 0 || ns < best {
			best = ns
		}
	}
	t.Logf("ring n%d dim%d: best %d ns/op, recorded %d ns/op", n, dim, best, int64(ringGuardRecordedNs))
	if float64(best) > 1.10*ringGuardRecordedNs {
		t.Errorf("ring regressed: %d ns/op against the recorded %d ns/op (more than 10 %% above)", best, int64(ringGuardRecordedNs))
	}
}
