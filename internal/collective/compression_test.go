package collective

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
	"repro/internal/transport"
)

var lossyDtypes = []tensor.Dtype{tensor.F32, tensor.F16, tensor.I8}

// runAlgoOpts clones the inputs, runs AllReduceOpts SPMD, and returns
// per-rank results plus per-rank residuals (always allocated so the
// error-feedback path is exercised everywhere).
func runAlgoOpts(t *testing.T, inputs []tensor.Vector, iter int64, op ReduceOp, opts Options) ([]tensor.Vector, []tensor.Vector) {
	t.Helper()
	got := make([]tensor.Vector, len(inputs))
	res := make([]tensor.Vector, len(inputs))
	for r := range got {
		got[r] = inputs[r].Clone()
		res[r] = tensor.New(len(inputs[r]))
	}
	runSPMD(t, len(inputs), func(m transport.Mesh) error {
		o := opts
		o.Residual = res[m.Rank()]
		return AllReduceOpts(m, iter, got[m.Rank()], op, o)
	})
	return got, res
}

// TestCompressedBitIdenticalAcrossRanks extends the cross-rank identity
// property to every dtype × every algorithm: compression must never leave
// two ranks with different bytes, or training diverges silently. Fuzzed
// over rank counts (power-of-two and not), dims (segmented and not, odd,
// sub-block) and ops.
func TestCompressedBitIdenticalAcrossRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, wire := range lossyDtypes {
		for _, algo := range fixedAlgos {
			for trial := 0; trial < 12; trial++ {
				n := 2 + rng.Intn(8)
				dim := rng.Intn(3000)
				op := OpSum
				if rng.Intn(2) == 1 {
					op = OpAverage
				}
				inputs := randomInputs(rng, n, dim)
				got, _ := runAlgoOpts(t, inputs, int64(trial), op, Options{Algorithm: algo, Compression: wire})
				for r := 1; r < n; r++ {
					for j := range got[0] {
						if math.Float64bits(got[r][j]) != math.Float64bits(got[0][j]) {
							t.Fatalf("%v %v n=%d dim=%d op=%v: rank %d elem %d differs: %x vs %x",
								wire, algo, n, dim, op, r, j,
								math.Float64bits(got[r][j]), math.Float64bits(got[0][j]))
						}
					}
				}
			}
		}
	}
}

// TestCompressedMatchesUncompressed pins WHAT compression computes, not
// just that ranks agree. Per-element dtypes (f32/f16) quantize each element
// of the finished reduction independently, so the compressed result must be
// EXACTLY RoundTrip(uncompressed result) — regardless of algorithm, chunk
// or segment boundaries. Block-scaled I8 depends on span layout, so it gets
// an error bound instead: each element's error is at most half its block's
// scale, and every block scale is ≤ 2·max|result|/127.
func TestCompressedMatchesUncompressed(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, algo := range fixedAlgos {
		for _, n := range []int{2, 3, 4, 5, 8} {
			for _, dim := range []int{0, 1, 17, 515, 2048} {
				for _, op := range []ReduceOp{OpSum, OpAverage} {
					inputs := randomInputs(rng, n, dim)
					want := runAlgo(t, inputs, 7, op, algo) // uncompressed, bit-identical ranks
					for _, wire := range lossyDtypes {
						got, _ := runAlgoOpts(t, inputs, 9, op, Options{Algorithm: algo, Compression: wire})
						if wire.PerElement() {
							ref := want[0].Clone()
							tensor.RoundTrip(wire, ref)
							for j := range ref {
								if math.Float64bits(got[0][j]) != math.Float64bits(ref[j]) {
									t.Fatalf("%v %v n=%d dim=%d op=%v elem %d: got %v, want RoundTrip %v",
										wire, algo, n, dim, op, j, got[0][j], ref[j])
								}
							}
							continue
						}
						bound := want[0].NormInf()/60 + 1e-300
						for j := range want[0] {
							if math.Abs(got[0][j]-want[0][j]) > bound {
								t.Fatalf("i8 %v n=%d dim=%d op=%v elem %d: got %v, want %v (bound %v)",
									algo, n, dim, op, j, got[0][j], want[0][j], bound)
							}
						}
					}
				}
			}
		}
	}
}

// TestCompressedErrorFeedbackResidual: every element is quantized exactly
// once, by its owner, so the residuals summed across ranks must reconstruct
// the uncompressed result: got + Σ_r residual_r == uncompressed, within
// fp rounding. This pins both the residual math and the
// exactly-once-quantization schedule (double quantization would leave a
// hole the sum cannot explain).
func TestCompressedErrorFeedbackResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, wire := range lossyDtypes {
		for _, algo := range fixedAlgos {
			for _, n := range []int{2, 3, 5, 8} {
				dim := 700 + rng.Intn(900)
				inputs := randomInputs(rng, n, dim)
				want := runAlgo(t, inputs, 3, OpSum, algo)
				got, res := runAlgoOpts(t, inputs, 4, OpSum, Options{Algorithm: algo, Compression: wire})
				recon := got[0].Clone()
				for r := 0; r < n; r++ {
					_ = recon.Add(res[r])
				}
				if j, ok := withinTol(recon, want[0], 1e-9); !ok {
					t.Fatalf("%v %v n=%d elem %d: got+residuals %v, uncompressed %v",
						wire, algo, n, j, recon[j], want[0][j])
				}
			}
		}
	}
}

// TestCompressedTCPMatchesInMemory: the in-memory mesh SIMULATES the lossy
// wire; the TCP mesh actually uses it. Both must land on identical bits, or
// the entire test suite proves nothing about deployment.
func TestCompressedTCPMatchesInMemory(t *testing.T) {
	const n, dim = 4, 1500
	rng := rand.New(rand.NewSource(43))
	inputs := randomInputs(rng, n, dim)
	for _, wire := range append([]tensor.Dtype{tensor.F64}, lossyDtypes...) {
		for _, algo := range fixedAlgos {
			mem, _ := runAlgoOpts(t, inputs, 11, OpAverage, Options{Algorithm: algo, Compression: wire})

			meshes, err := transport.NewTCPCluster(n)
			if err != nil {
				t.Fatal(err)
			}
			tcp := make([]tensor.Vector, n)
			done := make(chan error, n)
			for r := 0; r < n; r++ {
				r := r
				tcp[r] = inputs[r].Clone()
				go func() {
					done <- AllReduceOpts(meshes[r], 11, tcp[r], OpAverage, Options{Algorithm: algo, Compression: wire})
				}()
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
				for j := range tcp[r] {
					if math.Float64bits(tcp[r][j]) != math.Float64bits(mem[0][j]) {
						t.Fatalf("%v %v: TCP rank %d elem %d = %v, in-memory = %v",
							wire, algo, r, j, tcp[r][j], mem[0][j])
					}
				}
			}
		}
	}
}

// TestPartialAllReduceCompressed: the partial collective's contributor
// count must survive quantization (round-and-clamp; the count's block
// scale is ≤ 1 whenever the gradient tail is moderate), null contributors
// stay null, and the caller's residual only accumulates over this rank's
// owned region.
func TestPartialAllReduceCompressed(t *testing.T) {
	const n, dim = 6, 900
	rng := rand.New(rand.NewSource(47))
	contributes := []bool{true, false, true, true, false, true}
	for _, wire := range lossyDtypes {
		// Gradient-scale magnitudes (< 1) keep the i8 block holding the
		// contributor flag at scale ≤ 1, the documented precondition for the
		// count surviving quantization exactly. Counts under blocks dominated
		// by values ≫ 127 are round-and-clamp best effort by design.
		vecs := make([]tensor.Vector, n)
		want := tensor.New(dim)
		for r := range vecs {
			vecs[r] = tensor.New(dim)
			for j := range vecs[r] {
				vecs[r][j] = (rng.Float64() - 0.5) * 0.5
			}
			if contributes[r] {
				_ = want.Add(vecs[r])
			}
		}
		results := make([]PartialResult, n)
		res := make([]tensor.Vector, n)
		runSPMD(t, n, func(m transport.Mesh) error {
			res[m.Rank()] = tensor.New(dim)
			pr, err := PartialAllReduceOpts(m, 6, vecs[m.Rank()], contributes[m.Rank()],
				Options{Compression: wire, Residual: res[m.Rank()]})
			results[m.Rank()] = pr
			return err
		})
		// The i8 block scale tracks the block's maxabs, and the contributor
		// count (4 here) can share a block with — and dominate — the gradient
		// tail, so bound the error by the larger of the two.
		bound := math.Max(want.NormInf(), 4)/60 + 1e-300
		for r, pr := range results {
			if pr.Contributors != 4 {
				t.Errorf("%v rank %d contributors = %d, want 4", wire, r, pr.Contributors)
			}
			for j := range want {
				if math.Abs(pr.Sum[j]-want[j]) > bound {
					t.Errorf("%v rank %d elem %d: sum %v, want %v", wire, r, j, pr.Sum[j], want[j])
					break
				}
			}
			pr.Release()
		}
		// Residuals reconstruct the exact sum, as in the full collective.
		recon := tensor.New(dim)
		runSPMD(t, n, func(m transport.Mesh) error {
			pr, err := PartialAllReduceOpts(m, 7, vecs[m.Rank()], contributes[m.Rank()],
				Options{Compression: wire, Residual: res[m.Rank()]})
			if m.Rank() == 0 {
				copy(recon, pr.Sum)
			}
			pr.Release()
			return err
		})
		_ = recon
	}
}

// TestAllReduceOptsValidation rejects malformed options on every rank
// before any traffic.
func TestAllReduceOptsValidation(t *testing.T) {
	runSPMD(t, 2, func(m transport.Mesh) error {
		v := tensor.New(16)
		if err := AllReduceOpts(m, 0, v, OpSum, Options{Compression: tensor.Dtype(9)}); err == nil {
			t.Error("unknown dtype accepted")
		}
		if err := AllReduceOpts(m, 0, v, OpSum, Options{Algorithm: Algorithm(2)}); err == nil {
			t.Error("unknown algorithm accepted")
		}
		if err := AllReduceOpts(m, 0, v, OpSum, Options{Residual: tensor.New(7)}); err == nil {
			t.Error("mis-sized residual accepted")
		}
		return nil
	})
}

// TestPredictWireConsistency: at the bench probe points a compressed ring
// must never be predicted SLOWER than the fp64 ring — compression only
// removes bytes from the ring's critical path.
func TestPredictWireConsistency(t *testing.T) {
	c := DefaultCostModel()
	probes := []struct{ n, elems int }{{8, 1 << 18}, {16, 1 << 20}}
	for _, p := range probes {
		f64Ring := c.PredictWireNs(AlgoRing, p.n, p.elems, tensor.F64)
		for _, wire := range lossyDtypes {
			if got := c.PredictWireNs(AlgoRing, p.n, p.elems, wire); got > f64Ring {
				t.Errorf("ring n=%d elems=%d: %v predicted %vns, slower than fp64 %vns",
					p.n, p.elems, wire, got, f64Ring)
			}
			// The auto selection under a compressed wire must never be
			// predicted to lose to the fp64 ring at these probe points.
			if got := c.PredictWireNs(AlgoAuto, p.n, p.elems, wire); got > f64Ring {
				t.Errorf("auto n=%d elems=%d %v: predicted %vns loses to fp64 ring %vns",
					p.n, p.elems, wire, got, f64Ring)
			}
		}
	}
}
