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

// TestReduceScatterAllGatherMatchesRing: the composed halves must reproduce
// RingAllReduce bit for bit under uniform AND skewed partitions, for both
// ops — the contract the owner-computes update path builds on.
func TestReduceScatterAllGatherMatchesRing(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		for _, dim := range []int{n, 97, 1 << 12} {
			for _, op := range []ReduceOp{OpSum, OpAverage} {
				ref := shardInputs(n, dim, int64(n*dim))
				runSPMD(t, n, func(m transport.Mesh) error {
					return RingAllReduce(m, 3, ref[m.Rank()], op)
				})
				for name, offs := range map[string][]int{"uniform": nil, "skew3to1": skew3to1(dim, n)} {
					got := shardInputs(n, dim, int64(n*dim))
					runSPMD(t, n, func(m transport.Mesh) error {
						if err := ReduceScatter(m, 3, got[m.Rank()], op, offs); err != nil {
							return err
						}
						return AllGather(m, 4, got[m.Rank()], offs, Options{})
					})
					for r := range got {
						for j := range got[r] {
							if math.Float64bits(got[r][j]) != math.Float64bits(ref[r][j]) {
								t.Fatalf("n=%d dim=%d op=%d offs=%s rank %d elem %d: %x != %x",
									n, dim, op, name, r, j, got[r][j], ref[r][j])
							}
						}
					}
				}
			}
		}
	}
}

// TestReduceScatterOwnsReducedSpan: after ReduceScatter alone, the owned
// span holds the reduction and the rest of the vector is untouched.
func TestReduceScatterOwnsReducedSpan(t *testing.T) {
	n, dim := 4, 103
	offs := skew3to1(dim, n)
	in := shardInputs(n, dim, 11)
	want := tensor.New(dim)
	for r := range in {
		for j := range want {
			want[j] += in[r][j]
		}
	}
	got := cloneVecs(in)
	runSPMD(t, n, func(m transport.Mesh) error {
		return ReduceScatter(m, 0, got[m.Rank()], OpSum, offs)
	})
	for r := 0; r < n; r++ {
		for j := range got[r] {
			if j >= offs[r] && j < offs[r+1] {
				if math.Abs(got[r][j]-want[j]) > 1e-9 {
					t.Fatalf("rank %d owned elem %d: got %v want %v", r, j, got[r][j], want[j])
				}
			} else if got[r][j] != in[r][j] {
				t.Fatalf("rank %d unowned elem %d mutated", r, j)
			}
		}
	}
}

// TestAllGatherWireEF: an f16 allgather quantizes each owner's span exactly
// once, every rank decodes identical bits, and the owner's residual holds
// exact − quantized.
func TestAllGatherWireEF(t *testing.T) {
	n, dim := 4, 257
	offs := skew3to1(dim, n)
	in := shardInputs(n, dim, 23)
	exact := cloneVecs(in)
	got := cloneVecs(in)
	residuals := make([]tensor.Vector, n)
	for r := range residuals {
		residuals[r] = tensor.New(dim)
	}
	runSPMD(t, n, func(m transport.Mesh) error {
		return AllGather(m, 0, got[m.Rank()], offs, Options{Compression: tensor.F16, Residual: residuals[m.Rank()]})
	})
	for r := 1; r < n; r++ {
		for j := range got[r] {
			if math.Float64bits(got[r][j]) != math.Float64bits(got[0][j]) {
				t.Fatalf("rank %d elem %d diverges after lossy allgather", r, j)
			}
		}
	}
	for r := 0; r < n; r++ {
		for j := offs[r]; j < offs[r+1]; j++ {
			if math.Abs(residuals[r][j]+got[0][j]-exact[r][j]) > 1e-12 {
				t.Fatalf("rank %d elem %d: residual %v + quantized %v != exact %v",
					r, j, residuals[r][j], got[0][j], exact[r][j])
			}
		}
		for j := range residuals[r] {
			if (j < offs[r] || j >= offs[r+1]) && residuals[r][j] != 0 {
				t.Fatalf("rank %d residual leaked outside owned span at %d", r, j)
			}
		}
	}
}

// TestPartialReduceScatterMatchesPartialRing: the sharded partial collective
// must report the same contributor count on every rank and produce, on each
// owned span, the same bits as the replicated ring-based partial collective
// (whose fold runs over the flag-extended vector).
func TestPartialReduceScatterMatchesPartialRing(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		for _, dim := range []int{n + 1, 129, 1 << 10} {
			for mask := 0; mask < 3; mask++ {
				contrib := make([]bool, n)
				for r := range contrib {
					switch mask {
					case 0:
						contrib[r] = true
					case 1:
						contrib[r] = r%2 == 0
					case 2:
						contrib[r] = false
					}
				}
				in := shardInputs(n, dim, int64(7*n+dim+mask))
				refSums := make([]tensor.Vector, n)
				refCounts := make([]int, n)
				runSPMD(t, n, func(m transport.Mesh) error {
					r := m.Rank()
					pr, err := PartialRingAllReduce(m, 5, in[r], contrib[r])
					if err != nil {
						return err
					}
					refSums[r] = append(tensor.Vector(nil), pr.Sum...)
					refCounts[r] = pr.Contributors
					pr.Release()
					return nil
				})
				for name, offs := range map[string][]int{"uniform": nil, "skew3to1": skew3to1(dim, n)} {
					got := cloneVecs(in)
					counts := make([]int, n)
					runSPMD(t, n, func(m transport.Mesh) error {
						r := m.Rank()
						c, err := PartialReduceScatter(m, 5, got[r], contrib[r], offs)
						counts[r] = c
						return err
					})
					resolved := offs
					if resolved == nil {
						var err error
						resolved, err = ShardOffsets(dim, n)
						if err != nil {
							t.Fatal(err)
						}
					}
					for r := 0; r < n; r++ {
						if counts[r] != refCounts[r] {
							t.Fatalf("n=%d mask=%d offs=%s rank %d: count %d != %d", n, mask, name, r, counts[r], refCounts[r])
						}
						for j := resolved[r]; j < resolved[r+1]; j++ {
							if math.Float64bits(got[r][j]) != math.Float64bits(refSums[r][j]) {
								t.Fatalf("n=%d dim=%d mask=%d offs=%s rank %d elem %d: %x != %x",
									n, dim, mask, name, r, j, got[r][j], refSums[r][j])
							}
						}
					}
				}
			}
		}
	}
}

func TestShardPrimitiveErrors(t *testing.T) {
	runSPMD(t, 2, func(m transport.Mesh) error {
		v := tensor.New(8)
		if err := ReduceScatter(m, 0, v, ReduceOp(99), nil); err == nil {
			t.Error("bad op accepted")
		}
		if err := ReduceScatter(m, 0, v, OpSum, []int{0, 8}); err == nil {
			t.Error("short offsets accepted")
		}
		if err := ReduceScatter(m, 0, v, OpSum, []int{0, 4, 7}); err == nil {
			t.Error("non-covering offsets accepted")
		}
		if err := ReduceScatter(m, 0, v, OpSum, []int{0, 6, 4}); err == nil {
			t.Error("non-monotone offsets accepted")
		}
		if err := AllGather(m, 0, v, nil, Options{Algorithm: AlgoTree}); err == nil {
			t.Error("pinned tree accepted")
		}
		if err := AllGather(m, 0, v, nil, Options{Residual: tensor.New(3)}); err == nil {
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
