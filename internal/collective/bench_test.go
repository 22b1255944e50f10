package collective_test

import (
	"fmt"
	"testing"

	"repro/internal/collective"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// runRanks runs one collective invocation per rank concurrently and fails the
// benchmark on any error.
func runRanks(b *testing.B, eps []transport.Mesh, fn func(m transport.Mesh) error) {
	b.Helper()
	done := make(chan error, len(eps))
	for _, m := range eps {
		m := m
		go func() { done <- fn(m) }()
	}
	for range eps {
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
}

// benchRing times RingAllReduce of dim-element vectors over the given
// endpoints, one average per iteration.
func benchRing(b *testing.B, eps []transport.Mesh, dim int) {
	vecs := make([]tensor.Vector, len(eps))
	for i := range vecs {
		vecs[i] = tensor.New(dim)
	}
	b.SetBytes(int64(dim * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runRanks(b, eps, func(m transport.Mesh) error {
			return collective.RingAllReduce(m, int64(i), vecs[m.Rank()], collective.OpAverage)
		})
	}
}

// BenchmarkRingAllReduce sweeps vector size (1K–1M) and rank count (4/8/16)
// on the in-memory mesh, then times the dense workloads' geometry, 139 793
// elements (gradient and flag slot) over 4 ranks, on loopback TCP.
// TestRingRegressionGuard (benchsmoke tag) holds the n8/dim262144 case to its
// recorded ns/op.
func BenchmarkRingAllReduce(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		for _, dim := range []int{1 << 10, 1 << 14, 1 << 18, 1 << 20} {
			b.Run(fmt.Sprintf("n%d/dim%d", n, dim), func(b *testing.B) {
				net, err := transport.NewLocalNetwork(n)
				if err != nil {
					b.Fatal(err)
				}
				defer func() { _ = net.Close() }()
				benchRing(b, net.Endpoints(), dim)
			})
		}
	}
	b.Run("tcp/n4/dim139793", func(b *testing.B) {
		tcp, err := transport.NewTCPCluster(4)
		if err != nil {
			b.Fatal(err)
		}
		eps := make([]transport.Mesh, len(tcp))
		for r, m := range tcp {
			eps[r] = m
			defer m.Close()
		}
		benchRing(b, eps, 139793)
	})
}

// BenchmarkPartialAllReduce measures the paper's partial collective on the
// ring (half the ranks contribute nulls) across the same sweep.
func BenchmarkPartialAllReduce(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		for _, dim := range []int{1 << 10, 1 << 18} {
			b.Run(fmt.Sprintf("n%d/dim%d", n, dim), func(b *testing.B) {
				net, err := transport.NewLocalNetwork(n)
				if err != nil {
					b.Fatal(err)
				}
				defer func() { _ = net.Close() }()
				vecs := make([]tensor.Vector, n)
				for i := range vecs {
					vecs[i] = tensor.New(dim)
				}
				eps := net.Endpoints()
				ring := collective.Options{Algorithm: collective.AlgoRing}
				b.SetBytes(int64(dim * 8))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runRanks(b, eps, func(m transport.Mesh) error {
						r := m.Rank()
						pr, err := collective.PartialAllReduceOpts(m, int64(i), vecs[r], r%2 == 0, ring)
						if err == nil {
							pr.Release()
						}
						return err
					})
				}
			})
		}
	}
}

// BenchmarkAllReduceAlgorithms sweeps every schedule (plus the auto
// selector) over the crossover-relevant sizes, where a refit of
// DefaultCostModel would start.
func BenchmarkAllReduceAlgorithms(b *testing.B) {
	algos := []collective.Algorithm{collective.AlgoRing, collective.AlgoTree, collective.AlgoAuto}
	for _, algo := range algos {
		for _, n := range []int{4, 8, 16} {
			for _, dim := range []int{1 << 10, 1 << 12, 1 << 16, 1 << 18} {
				algo := algo
				b.Run(fmt.Sprintf("%s/n%d/dim%d", algo, n, dim), func(b *testing.B) {
					net, err := transport.NewLocalNetwork(n)
					if err != nil {
						b.Fatal(err)
					}
					defer func() { _ = net.Close() }()
					vecs := make([]tensor.Vector, n)
					for i := range vecs {
						vecs[i] = tensor.New(dim)
					}
					eps := net.Endpoints()
					b.SetBytes(int64(dim * 8))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						runRanks(b, eps, func(m transport.Mesh) error {
							return collective.AllReduceOpts(m, int64(i), vecs[m.Rank()], collective.OpAverage, collective.Options{Algorithm: algo})
						})
					}
				})
			}
		}
	}
}
