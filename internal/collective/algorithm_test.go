package collective

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
	"repro/internal/transport"
)

// serialSum is the plain element-wise reference reduction in rank order.
func serialSum(inputs []tensor.Vector, op ReduceOp) tensor.Vector {
	out := tensor.New(len(inputs[0]))
	for _, in := range inputs {
		for j, x := range in {
			out[j] += x
		}
	}
	if op == OpAverage {
		out.Scale(1 / float64(len(inputs)))
	}
	return out
}

// withinTol checks |got−want| ≤ tol·max(1, |want|) element-wise.
func withinTol(got, want tensor.Vector, tol float64) (int, bool) {
	for j := range want {
		bound := tol * math.Max(1, math.Abs(want[j]))
		if math.Abs(got[j]-want[j]) > bound {
			return j, false
		}
	}
	return 0, true
}

// randomInputs builds n vectors with a wide magnitude spread.
func randomInputs(rng *rand.Rand, n, dim int) []tensor.Vector {
	inputs := make([]tensor.Vector, n)
	for r := range inputs {
		inputs[r] = tensor.New(dim)
		for j := range inputs[r] {
			inputs[r][j] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7)-3))
		}
	}
	return inputs
}

// runAlgo clones the inputs, runs the algorithm SPMD, and returns per-rank
// results.
func runAlgo(t *testing.T, inputs []tensor.Vector, iter int64, op ReduceOp, algo Algorithm) []tensor.Vector {
	t.Helper()
	got := make([]tensor.Vector, len(inputs))
	for r := range got {
		got[r] = inputs[r].Clone()
	}
	runSPMD(t, len(inputs), func(m transport.Mesh) error {
		return AllReduceOpts(m, iter, got[m.Rank()], op, Options{Algorithm: algo})
	})
	return got
}

// runTreeHalves is runAlgo for the tree called as its two halves: TreeReduce,
// then Broadcast from rank 0.
func runTreeHalves(t *testing.T, inputs []tensor.Vector, iter int64, op ReduceOp) []tensor.Vector {
	t.Helper()
	got := make([]tensor.Vector, len(inputs))
	for r := range got {
		got[r] = inputs[r].Clone()
	}
	runSPMD(t, len(inputs), func(m transport.Mesh) error {
		if err := TreeReduce(m, iter, got[m.Rank()], op); err != nil {
			return err
		}
		return Broadcast(m, iter, got[m.Rank()], 0)
	})
	return got
}

var fixedAlgos = []Algorithm{AlgoRing, AlgoTree}

// TestAlgorithmsMatchSerialReference sweeps rank counts (power-of-two and
// not), dimensions (empty, odd, sub-rank-count, large) and both ops for
// every schedule, requiring 1e-12 relative agreement with the serial sum.
// The tree's rows also run it as its two halves, TreeReduce then Broadcast,
// which must give TreeAllReduce's bits on every rank.
func TestAlgorithmsMatchSerialReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, algo := range append([]Algorithm{AlgoAuto}, fixedAlgos...) {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9} {
			for _, dim := range []int{0, 1, 2, 3, 7, 64, 97, 1000} {
				for _, op := range []ReduceOp{OpSum, OpAverage} {
					inputs := randomInputs(rng, n, dim)
					want := serialSum(inputs, op)
					got := runAlgo(t, inputs, 5, op, algo)
					for r := range got {
						if j, ok := withinTol(got[r], want, 1e-12); !ok {
							t.Fatalf("%v n=%d dim=%d op=%v rank=%d elem %d: got %v, want %v",
								algo, n, dim, op, r, j, got[r][j], want[j])
						}
					}
					if algo != AlgoTree {
						continue
					}
					for r, h := range runTreeHalves(t, inputs, 5, op) {
						for j := range h {
							if math.Float64bits(h[j]) != math.Float64bits(got[r][j]) {
								t.Fatalf("tree halves n=%d dim=%d op=%v rank=%d elem %d: %x, TreeAllReduce %x",
									n, dim, op, r, j, math.Float64bits(h[j]), math.Float64bits(got[r][j]))
							}
						}
					}
				}
			}
		}
	}
}

// TestAlgorithmsBitIdenticalAcrossRanks: an AllReduce is only usable by the
// training stack if every rank finishes with the SAME bytes — the ring's
// chunk ownership and the tree root-broadcast both guarantee it.
func TestAlgorithmsBitIdenticalAcrossRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, algo := range fixedAlgos {
		for _, n := range []int{2, 3, 5, 8, 9} {
			inputs := randomInputs(rng, n, 515)
			got := runAlgo(t, inputs, 2, OpAverage, algo)
			for r := 1; r < n; r++ {
				for j := range got[0] {
					if math.Float64bits(got[r][j]) != math.Float64bits(got[0][j]) {
						t.Fatalf("%v n=%d: rank %d elem %d differs from rank 0: %x vs %x",
							algo, n, r, j, math.Float64bits(got[r][j]), math.Float64bits(got[0][j]))
					}
				}
			}
		}
	}
}

// TestPropertyAllAlgorithmsMatchSerial fuzzes (ranks, dim, values, op,
// algorithm) and asserts every schedule agrees with the serial reference
// reduction within 1e-12 per element — the cross-algorithm correctness
// property the bench suite's crossover table relies on.
func TestPropertyAllAlgorithmsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(10)
		dim := rng.Intn(2000)
		op := OpSum
		if rng.Intn(2) == 1 {
			op = OpAverage
		}
		algo := fixedAlgos[rng.Intn(len(fixedAlgos))]
		inputs := randomInputs(rng, n, dim)
		want := serialSum(inputs, op)
		got := runAlgo(t, inputs, int64(trial), op, algo)
		for r := range got {
			if j, ok := withinTol(got[r], want, 1e-12); !ok {
				t.Fatalf("trial %d %v n=%d dim=%d op=%v rank=%d elem %d: got %v, want %v",
					trial, algo, n, dim, op, r, j, got[r][j], want[j])
			}
		}
	}
}

// TestPartialAllReduceAuto: the partial collective's semantics (contributor
// counting, null contributions, untouched inputs) hold under the selector.
func TestPartialAllReduceAuto(t *testing.T) {
	const n, dim = 6, 33
	contributes := []bool{true, false, true, true, false, true}
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
		res, err := PartialAllReduceOpts(m, 4, vecs[m.Rank()], contributes[m.Rank()], Options{})
		results[m.Rank()] = res
		return err
	})
	for r, res := range results {
		if res.Contributors != 4 {
			t.Errorf("rank %d contributors = %d, want 4", r, res.Contributors)
		}
		if !res.Sum.Equal(want, 1e-9) {
			t.Errorf("rank %d sum mismatch", r)
		}
		if vecs[r][1] != float64(r+1) {
			t.Errorf("rank %d input mutated", r)
		}
		res.Release()
	}
}

// TestRepeatedMixedAlgorithms runs different schedules back to back on one
// mesh to check no residual messages leak between them.
func TestRepeatedMixedAlgorithms(t *testing.T) {
	const n, dim = 5, 130
	net, err := transport.NewLocalNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	seq := []Algorithm{AlgoRing, AlgoTree, AlgoTree, AlgoRing}
	done := make(chan error, n)
	for _, m := range net.Endpoints() {
		m := m
		go func() {
			for it, algo := range seq {
				v := tensor.New(dim)
				v.Fill(float64(m.Rank() + 1))
				if err := AllReduceOpts(m, int64(it), v, OpAverage, Options{Algorithm: algo}); err != nil {
					done <- err
					return
				}
				if want := float64(n+1) / 2; math.Abs(v[0]-want) > 1e-12 {
					t.Errorf("iter %d algo %v rank %d: got %v, want %v", it, algo, m.Rank(), v[0], want)
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestAllReduceOptsValidation rejects malformed options on every rank
// before any traffic.
func TestAllReduceOptsValidation(t *testing.T) {
	runSPMD(t, 2, func(m transport.Mesh) error {
		v := tensor.New(16)
		if err := AllReduceOpts(m, 0, v, OpSum, Options{Algorithm: Algorithm(2)}); err == nil {
			t.Error("unknown algorithm accepted")
		}
		return nil
	})
}
