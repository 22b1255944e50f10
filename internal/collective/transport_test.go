package collective

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/tensor"
	"repro/internal/transport"
)

// TestAlgorithmsOverTCP runs every schedule end-to-end over real localhost
// TCP connections: the algorithms must not depend on LocalNetwork-specific
// behavior (ownership transfer, unbounded in-memory queues).
func TestAlgorithmsOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP cluster in -short mode")
	}
	rng := rand.New(rand.NewSource(31))
	for _, algo := range append([]Algorithm{AlgoAuto}, fixedAlgos...) {
		for _, n := range []int{2, 3, 5} {
			inputs := randomInputs(rng, n, 300)
			want := serialSum(inputs, OpAverage)
			meshes, err := transport.NewTCPCluster(n)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]tensor.Vector, n)
			done := make(chan error, n)
			for _, m := range meshes {
				m := m
				got[m.Rank()] = inputs[m.Rank()].Clone()
				go func() { done <- AllReduceWith(m, 1, got[m.Rank()], OpAverage, algo) }()
			}
			for i := 0; i < n; i++ {
				if err := <-done; err != nil {
					t.Fatalf("%v n=%d over TCP: %v", algo, n, err)
				}
			}
			for _, m := range meshes {
				_ = m.Close()
			}
			for r := range got {
				if j, ok := withinTol(got[r], want, 1e-12); !ok {
					t.Fatalf("%v n=%d over TCP rank=%d elem %d: got %v, want %v",
						algo, n, r, j, got[r][j], want[j])
				}
			}
		}
	}
}

// TestAlgorithmsOverSubMesh runs each schedule inside a SubMesh carved out
// of a larger parent: rank remapping must be invisible to the collectives.
func TestAlgorithmsOverSubMesh(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const parentN = 8
	members := []int{1, 3, 4, 6, 7} // non-contiguous, unsorted-adjacent subset
	for _, algo := range fixedAlgos {
		inputs := randomInputs(rng, len(members), 250)
		want := serialSum(inputs, OpSum)
		got := make([]tensor.Vector, len(members))
		runSPMD(t, parentN, func(m transport.Mesh) error {
			local := -1
			for i, g := range members {
				if g == m.Rank() {
					local = i
				}
			}
			if local < 0 {
				return nil // parent ranks outside the subset stay idle
			}
			sub, err := transport.NewSubMesh(m, members)
			if err != nil {
				return err
			}
			got[local] = inputs[local].Clone()
			return AllReduceWith(sub, 9, got[local], OpSum, algo)
		})
		for r := range got {
			if j, ok := withinTol(got[r], want, 1e-12); !ok {
				t.Fatalf("%v over submesh rank=%d elem %d: got %v, want %v",
					algo, r, j, got[r][j], want[j])
			}
		}
	}
}

// TestMidCollectiveClose closes one endpoint while a collective is in
// flight and requires every rank to return a clean error — no hang, no
// panic. Each algorithm is tried in turn on a fresh cluster.
func TestMidCollectiveClose(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP cluster in -short mode")
	}
	for _, algo := range fixedAlgos {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			const n = 4
			meshes, err := transport.NewTCPCluster(n)
			if err != nil {
				t.Fatal(err)
			}
			// Rank n-1 closes instead of participating; the survivors block
			// in Recv until the closure propagates and must surface an error.
			errs := make([]error, n)
			var wg sync.WaitGroup
			for _, m := range meshes[:n-1] {
				m := m
				wg.Add(1)
				go func() {
					defer wg.Done()
					v := tensor.New(4096)
					v.Fill(float64(m.Rank()))
					errs[m.Rank()] = AllReduceWith(m, 0, v, OpSum, algo)
				}()
			}
			_ = meshes[n-1].Close()
			// Unblock survivors waiting on each other, not just on the victim.
			for _, m := range meshes[:n-1] {
				_ = m.Close()
			}
			wg.Wait()
			for r, err := range errs[:n-1] {
				if err == nil {
					t.Errorf("rank %d returned nil error after mid-collective close", r)
				}
			}
		})
	}
}

// TestTreeLargeFanIn is a smoke test that the tree schedule stays correct at
// a rank count past every power-of-two boundary the other tests use.
func TestTreeLargeFanIn(t *testing.T) {
	const n, dim = 16, 64
	got := make([]tensor.Vector, n)
	runSPMD(t, n, func(m transport.Mesh) error {
		v := tensor.New(dim)
		v.Fill(float64(m.Rank() + 1))
		got[m.Rank()] = v
		return TreeAllReduce(m, 0, v, OpSum)
	})
	want := float64(n*(n+1)) / 2
	for r := range got {
		for j := range got[r] {
			if math.Abs(got[r][j]-want) > 1e-9 {
				t.Fatalf("rank %d elem %d: got %v, want %v", r, j, got[r][j], want)
			}
		}
	}
}

// TestTCPMatchesInMemory: the TCP mesh and the in-memory mesh must land on
// identical bits, or the in-memory suite proves nothing about deployment.
func TestTCPMatchesInMemory(t *testing.T) {
	const n, dim = 4, 1500
	rng := rand.New(rand.NewSource(43))
	inputs := randomInputs(rng, n, dim)
	for _, algo := range fixedAlgos {
		mem := runAlgo(t, inputs, 11, OpAverage, algo)

		meshes, err := transport.NewTCPCluster(n)
		if err != nil {
			t.Fatal(err)
		}
		tcp := make([]tensor.Vector, n)
		done := make(chan error, n)
		for r := 0; r < n; r++ {
			r := r
			tcp[r] = inputs[r].Clone()
			go func() { done <- AllReduceWith(meshes[r], 11, tcp[r], OpAverage, algo) }()
		}
		for i := 0; i < n; i++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		for _, m := range meshes {
			_ = m.Close()
		}
		for r := 0; r < n; r++ {
			if j, ok := sameBits(tcp[r], mem[0]); !ok {
				t.Fatalf("%v: TCP rank %d elem %d = %v, in-memory = %v", algo, r, j, tcp[r][j], mem[0][j])
			}
		}
	}
}
