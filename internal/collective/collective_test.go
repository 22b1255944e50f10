package collective

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
	"repro/internal/transport"
)

// runSPMD runs fn concurrently on every endpoint of a fresh local network
// and fails the test on any returned error.
func runSPMD(t *testing.T, n int, fn func(m transport.Mesh) error) {
	t.Helper()
	net, err := transport.NewLocalNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	spmd(t, net.Endpoints(), fn)
}

// spmd runs fn on every given endpoint concurrently and fails the test on
// any returned error.
func spmd(t *testing.T, meshes []transport.Mesh, fn func(m transport.Mesh) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(meshes))
	for i, m := range meshes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(m)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
}

func TestRingAllReduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8} {
		for _, dim := range []int{1, 3, n, n + 1, 4 * n, 97} {
			n, dim := n, dim
			vecs := make([]tensor.Vector, n)
			want := tensor.New(dim)
			for r := range vecs {
				vecs[r] = tensor.New(dim)
				for j := range vecs[r] {
					vecs[r][j] = float64(r*dim + j)
					want[j] += vecs[r][j]
				}
			}
			runSPMD(t, n, func(m transport.Mesh) error {
				return RingAllReduce(m, 7, vecs[m.Rank()], OpSum)
			})
			for r := range vecs {
				if !vecs[r].Equal(want, 1e-9) {
					t.Fatalf("n=%d dim=%d rank %d: got %v, want %v", n, dim, r, vecs[r], want)
				}
			}
		}
	}
}

func TestRingAllReduceAverage(t *testing.T) {
	const n, dim = 4, 10
	vecs := make([]tensor.Vector, n)
	for r := range vecs {
		vecs[r] = tensor.New(dim)
		vecs[r].Fill(float64(r))
	}
	runSPMD(t, n, func(m transport.Mesh) error {
		return RingAllReduce(m, 1, vecs[m.Rank()], OpAverage)
	})
	want := tensor.New(dim)
	want.Fill(1.5) // (0+1+2+3)/4
	for r := range vecs {
		if !vecs[r].Equal(want, 1e-12) {
			t.Fatalf("rank %d average = %v", r, vecs[r])
		}
	}
}

func TestRingAllReduceSingleRank(t *testing.T) {
	runSPMD(t, 1, func(m transport.Mesh) error {
		v := tensor.FromSlice([]float64{1, 2, 3})
		if err := RingAllReduce(m, 0, v, OpAverage); err != nil {
			return err
		}
		if !v.Equal(tensor.FromSlice([]float64{1, 2, 3}), 0) {
			t.Error("single-rank allreduce changed data")
		}
		return nil
	})
}

func TestRingAllReduceSmallVector(t *testing.T) {
	// dim < n forces empty chunks; the schedule must still terminate.
	const n, dim = 6, 2
	vecs := make([]tensor.Vector, n)
	var want float64
	for r := range vecs {
		vecs[r] = tensor.FromSlice([]float64{float64(r), 1})
		want += float64(r)
	}
	runSPMD(t, n, func(m transport.Mesh) error {
		return RingAllReduce(m, 3, vecs[m.Rank()], OpSum)
	})
	for r := range vecs {
		if vecs[r][0] != want || vecs[r][1] != float64(n) {
			t.Fatalf("rank %d = %v, want [%v %v]", r, vecs[r], want, float64(n))
		}
	}
}

// TestPartialAllReduceRing: the partial collective pinned to the ring sums
// the contributors' gradients, counts them, and leaves the inputs untouched.
func TestPartialAllReduceRing(t *testing.T) {
	const n, dim = 5, 12
	contributes := []bool{true, false, true, true, false}
	vecs := make([]tensor.Vector, n)
	want := tensor.New(dim)
	for r := range vecs {
		vecs[r] = tensor.New(dim)
		for j := range vecs[r] {
			vecs[r][j] = float64(r + j)
		}
		if contributes[r] {
			_ = want.Add(vecs[r])
		}
	}
	results := make([]PartialResult, n)
	runSPMD(t, n, func(m transport.Mesh) error {
		res, err := PartialAllReduceOpts(m, 9, vecs[m.Rank()], contributes[m.Rank()], Options{Algorithm: AlgoRing})
		results[m.Rank()] = res
		return err
	})
	for r, res := range results {
		if res.Contributors != 3 {
			t.Errorf("rank %d contributors = %d, want 3", r, res.Contributors)
		}
		if !res.Sum.Equal(want, 1e-9) {
			t.Errorf("rank %d sum = %v, want %v", r, res.Sum, want)
		}
		// Inputs must be untouched.
		if vecs[r][0] != float64(r) {
			t.Errorf("rank %d input mutated", r)
		}
	}
}

func TestPartialAllReduceRingNobodyContributes(t *testing.T) {
	const n = 3
	results := make([]PartialResult, n)
	runSPMD(t, n, func(m transport.Mesh) error {
		res, err := PartialAllReduceOpts(m, 2, tensor.FromSlice([]float64{9, 9}), false, Options{Algorithm: AlgoRing})
		results[m.Rank()] = res
		return err
	})
	for r, res := range results {
		if res.Contributors != 0 {
			t.Errorf("rank %d contributors = %d, want 0", r, res.Contributors)
		}
		if !res.Sum.Equal(tensor.New(2), 0) {
			t.Errorf("rank %d sum = %v, want zeros", r, res.Sum)
		}
	}
}

func TestPartialAllReduceRingAllContribute(t *testing.T) {
	const n = 4
	results := make([]PartialResult, n)
	runSPMD(t, n, func(m transport.Mesh) error {
		v := tensor.FromSlice([]float64{1})
		res, err := PartialAllReduceOpts(m, 5, v, true, Options{Algorithm: AlgoRing})
		results[m.Rank()] = res
		return err
	})
	for r, res := range results {
		if res.Contributors != n {
			t.Errorf("rank %d contributors = %d, want %d", r, res.Contributors, n)
		}
		if res.Sum[0] != float64(n) {
			t.Errorf("rank %d sum = %v, want %d", r, res.Sum[0], n)
		}
	}
}

func TestBroadcast(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8, 9} {
		for root := 0; root < n; root++ {
			n, root := n, root
			const dim = 5
			vecs := make([]tensor.Vector, n)
			for r := range vecs {
				vecs[r] = tensor.New(dim)
				if r == root {
					for j := range vecs[r] {
						vecs[r][j] = float64(100*root + j)
					}
				}
			}
			runSPMD(t, n, func(m transport.Mesh) error {
				return Broadcast(m, 11, vecs[m.Rank()], root)
			})
			for r := range vecs {
				if !vecs[r].Equal(vecs[root], 0) {
					t.Fatalf("n=%d root=%d rank %d = %v, want %v", n, root, r, vecs[r], vecs[root])
				}
			}
		}
	}
}

func TestBroadcastBadRoot(t *testing.T) {
	runSPMD(t, 2, func(m transport.Mesh) error {
		err := Broadcast(m, 0, tensor.New(1), 5)
		if err == nil {
			t.Error("broadcast with bad root should error")
		}
		return nil
	})
}

func TestSequentialCollectivesOnOneMesh(t *testing.T) {
	// Run several collectives back to back on the same mesh endpoints to
	// check no residual messages leak between operations.
	const n, dim = 4, 8
	net, err := transport.NewLocalNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, m := range net.Endpoints() {
		i, m := i, m
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := int64(0); iter < 10; iter++ {
				v := tensor.New(dim)
				v.Fill(float64(m.Rank()))
				if err := RingAllReduce(m, iter, v, OpAverage); err != nil {
					errs[i] = err
					return
				}
				want := float64(n-1) / 2
				if v[0] != want {
					t.Errorf("iter %d rank %d: got %v, want %v", iter, i, v[0], want)
				}
				b := tensor.New(dim)
				if m.Rank() == 0 {
					b.Fill(float64(iter))
				}
				if err := Broadcast(m, iter, b, 0); err != nil {
					errs[i] = err
					return
				}
				if b[0] != float64(iter) {
					t.Errorf("iter %d rank %d: broadcast got %v", iter, i, b[0])
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
}

func TestRingAllReduceOverTCP(t *testing.T) {
	const n, dim = 3, 20
	meshes, err := transport.NewTCPCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, m := range meshes {
			_ = m.Close()
		}
	}()
	vecs := make([]tensor.Vector, n)
	for r := range vecs {
		vecs[r] = tensor.New(dim)
		vecs[r].Fill(float64(r + 1))
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, m := range meshes {
		i, m := i, m
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = RingAllReduce(m, 1, vecs[i], OpAverage)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	for r := range vecs {
		if vecs[r][0] != 2 { // (1+2+3)/3
			t.Errorf("rank %d = %v, want 2", r, vecs[r][0])
		}
	}
}

// Property: AllReduce(sum) equals the element-wise sum of inputs for random
// shapes, sizes and contents.
func TestQuickRingAllReduce(t *testing.T) {
	f := func(nRaw, dimRaw uint8, seed int64) bool {
		n := int(nRaw)%6 + 1
		dim := int(dimRaw)%50 + 1
		r := rand.New(rand.NewSource(seed))
		vecs := make([]tensor.Vector, n)
		want := tensor.New(dim)
		for i := range vecs {
			vecs[i] = tensor.New(dim)
			for j := range vecs[i] {
				vecs[i][j] = r.NormFloat64()
				want[j] += vecs[i][j]
			}
		}
		net, err := transport.NewLocalNetwork(n)
		if err != nil {
			return false
		}
		defer func() { _ = net.Close() }()
		var wg sync.WaitGroup
		ok := true
		var mu sync.Mutex
		for i, m := range net.Endpoints() {
			i, m := i, m
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := RingAllReduce(m, 0, vecs[i], OpSum); err != nil {
					mu.Lock()
					ok = false
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if !ok {
			return false
		}
		for i := range vecs {
			if !vecs[i].Equal(want, 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func highestBitRef(x int) int {
	b := 0
	for p := 1; p <= x; p <<= 1 {
		b = p
	}
	return b
}

func TestHighestBit(t *testing.T) {
	for x := -2; x < 1000; x++ {
		want := 0
		if x > 0 {
			want = highestBitRef(x)
		}
		if got := highestBit(x); got != want {
			t.Fatalf("highestBit(%d) = %d, want %d", x, got, want)
		}
	}
}
