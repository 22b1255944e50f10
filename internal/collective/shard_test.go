package collective

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
	"repro/internal/transport"
)

// fillRand deterministically fills per-rank input vectors.
func shardInputs(n, dim int, seed int64) []tensor.Vector {
	rng := rand.New(rand.NewSource(seed))
	vecs := make([]tensor.Vector, n)
	for r := range vecs {
		vecs[r] = tensor.New(dim)
		for j := range vecs[r] {
			vecs[r][j] = rng.NormFloat64()
		}
	}
	return vecs
}

func cloneVecs(vecs []tensor.Vector) []tensor.Vector {
	out := make([]tensor.Vector, len(vecs))
	for r := range vecs {
		out[r] = append(tensor.Vector(nil), vecs[r]...)
	}
	return out
}

// skew3to1 returns a hand-built ownership table in which the first rank owns
// three times the span of every other rank.
func skew3to1(total, n int) []int {
	offs := make([]int, n+1)
	for r := 1; r <= n; r++ {
		offs[r] = total * (r + 2) / (n + 2)
	}
	return offs
}

// TestAllGatherWireEF: an f16 ring allgather quantizes each owner's span
// exactly once, every rank decodes identical bits, and the owner's residual
// holds exact − quantized on its span and 0 elsewhere, under the uniform
// chunks and a skewed table.
func TestAllGatherWireEF(t *testing.T) {
	const dim = 257
	for _, n := range []int{2, 3, 4} {
		for name, table := range map[string][]int{"uniform": nil, "skew3to1": skew3to1(dim, n)} {
			in := shardInputs(n, dim, int64(23+n))
			got := cloneVecs(in)
			residuals := make([]tensor.Vector, n)
			for r := range residuals {
				residuals[r] = tensor.New(dim)
			}
			runSPMD(t, n, func(m transport.Mesh) error {
				opts := Options{Compression: tensor.F16, Residual: residuals[m.Rank()]}
				return RingAllGather(m, 0, got[m.Rank()], opts, table...)
			})
			for r := 1; r < n; r++ {
				if j, ok := sameBits(got[r], got[0]); !ok {
					t.Fatalf("n=%d %s: rank %d elem %d diverges after lossy allgather", n, name, r, j)
				}
			}
			for r := 0; r < n; r++ {
				lo, hi := RingOwned(dim, n, r, table...)
				for j := range residuals[r] {
					if j < lo || j >= hi {
						if residuals[r][j] != 0 {
							t.Fatalf("n=%d %s: rank %d residual leaked outside owned span at %d", n, name, r, j)
						}
						continue
					}
					if math.Abs(residuals[r][j]+got[0][j]-in[r][j]) > 1e-12 {
						t.Fatalf("n=%d %s: rank %d elem %d: residual %v + quantized %v != exact %v",
							n, name, r, j, residuals[r][j], got[0][j], in[r][j])
					}
				}
			}
		}
	}
}

func TestShardPrimitiveErrors(t *testing.T) {
	runSPMD(t, 2, func(m transport.Mesh) error {
		v := tensor.New(8)
		if err := RingReduceScatter(m, 0, v, ReduceOp(99)); err == nil {
			t.Error("bad op accepted")
		}
		if err := RingAllGather(m, 0, v, Options{Algorithm: AlgoTree}); err == nil {
			t.Error("pinned tree accepted")
		}
		if err := RingAllGather(m, 0, v, Options{Residual: tensor.New(3)}); err == nil {
			t.Error("short residual accepted")
		}
		return nil
	})
	if _, err := ShardOffsets(10, 0); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := ShardOffsets(-1, 2); err == nil {
		t.Error("negative length accepted")
	}
}

// checkShardOffsetsInvariants asserts the span properties: full coverage,
// monotone, deterministic, and exactly the ChunkBounds partition.
func checkShardOffsetsInvariants(t *testing.T, total, n int) {
	t.Helper()
	offs, err := ShardOffsets(total, n)
	if err != nil {
		t.Fatalf("total=%d n=%d: %v", total, n, err)
	}
	if len(offs) != n+1 || offs[0] != 0 || offs[n] != total {
		t.Fatalf("total=%d n=%d: offsets %v do not cover", total, n, offs)
	}
	for i := 0; i < n; i++ {
		if offs[i+1] < offs[i] {
			t.Fatalf("total=%d n=%d: offsets %v not monotone", total, n, offs)
		}
	}
	// Deterministic across "ranks": a second independent derivation from the
	// same inputs must agree exactly.
	again, err := ShardOffsets(total, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range offs {
		if offs[i] != again[i] {
			t.Fatalf("total=%d n=%d: derivation not deterministic (%v vs %v)", total, n, offs, again)
		}
	}
	for c := 0; c < n; c++ {
		s, e, err := tensor.ChunkBounds(total, n, c)
		if err != nil {
			t.Fatal(err)
		}
		if offs[c] != s || offs[c+1] != e {
			t.Fatalf("total=%d n=%d chunk %d: offsets %v != ChunkBounds [%d,%d)", total, n, c, offs, s, e)
		}
	}
}

func TestShardOffsetsProperties(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 64} {
		for _, total := range []int{0, 1, n - 1, n, n + 1, 1000, 1 << 16} {
			checkShardOffsetsInvariants(t, total, n)
		}
	}
}

// FuzzShardOffsets drives random (total, n) pairs through the span
// invariants.
func FuzzShardOffsets(f *testing.F) {
	f.Add(int64(1), 256, 4)
	f.Add(int64(2), 0, 1)
	f.Add(int64(3), 1<<14, 16)
	f.Add(int64(4), 7, 8)
	f.Fuzz(func(t *testing.T, _ int64, total, n int) {
		if n < 1 || n > 128 || total < 0 || total > 1<<18 {
			t.Skip()
		}
		checkShardOffsetsInvariants(t, total, n)
	})
}
