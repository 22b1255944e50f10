package collective

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
	"repro/internal/transport"
)

// ringPair runs the whole ring pair over table on every rank of meshes: the
// full scatter with op, or, with contrib set, the partial scatter on the
// flag-extended vectors; then, unless scatterOnly, the allgather. It returns
// the partial counts.
func ringPair(t *testing.T, meshes []transport.Mesh, vs []tensor.Vector, op ReduceOp, contrib []bool, table []int, scatterOnly ...bool) []int {
	t.Helper()
	counts := make([]int, len(meshes))
	spmd(t, meshes, func(m transport.Mesh) (err error) {
		r := m.Rank()
		if contrib == nil {
			err = RingReduceScatter(m, 11, vs[r], op, table...)
		} else {
			counts[r], err = PartialRingReduceScatter(m, 11, vs[r], weight(contrib[r]), table...)
		}
		if err != nil || len(scatterOnly) > 0 {
			return err
		}
		return RingAllGather(m, 12, vs[r], table...)
	})
	return counts
}

// contribPattern is every third rank sitting out, rank 0 always in.
func contribPattern(n int) ([]bool, int) {
	contrib := make([]bool, n)
	want := 0
	for r := range contrib {
		contrib[r] = r%3 != 2
		if contrib[r] {
			want++
		}
	}
	return contrib, want
}

// TestRingTableNilMatchesUniform: no table and the explicit uniform table
// (ShardOffsets) are the same partition — the same bits on every rank, full
// and partial, over both transports, at lengths that leave ragged and empty
// chunks.
func TestRingTableNilMatchesUniform(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5} {
		for kind, meshes := range memAndTCP(t, n) {
			for _, total := range []int{n - 1, 97, 1<<10 + 3} {
				uniform, err := ShardOffsets(total, n)
				if err != nil {
					t.Fatal(err)
				}
				contrib, want := contribPattern(n)
				for _, partial := range []bool{false, true} {
					name := fmt.Sprintf("%s/n=%d/total=%d/partial=%v", kind, n, total, partial)
					if partial && total < 1 {
						continue
					}
					var c []bool
					if partial {
						c = contrib
					}
					in := shardInputs(n, total, int64(n+total))
					ref, got := cloneVecs(in), cloneVecs(in)
					refCounts := ringPair(t, meshes, ref, OpAverage, c, nil)
					counts := ringPair(t, meshes, got, OpAverage, c, uniform)
					for r := range got {
						if j, ok := sameBits(got[r], ref[r]); !ok {
							t.Fatalf("%s: rank %d elem %d: %x != %x", name, r, j, got[r][j], ref[r][j])
						}
						if partial && (counts[r] != want || refCounts[r] != want) {
							t.Fatalf("%s: rank %d counted %d and %d contributors, want %d", name, r, counts[r], refCounts[r], want)
						}
					}
				}
			}
		}
	}
}

// TestRingTableTwoRanksMatchTree: at two ranks each element is one addition,
// so the pair over any table — uneven, or with an empty part — has the bits
// of the pinned tree, full (both ops) and partial.
func TestRingTableTwoRanksMatchTree(t *testing.T) {
	const n, dim = 2, 261
	for kind, meshes := range memAndTCP(t, n) {
		for _, cut := range []int{0, 1, 17, dim - 1, dim} {
			table := []int{0, cut, dim}
			for _, op := range []ReduceOp{OpSum, OpAverage} {
				name := fmt.Sprintf("%s/cut=%d/op=%d", kind, cut, op)
				in := shardInputs(n, dim, int64(cut))
				ref, got := cloneVecs(in), cloneVecs(in)
				spmd(t, meshes, func(m transport.Mesh) error {
					return AllReduceOpts(m, 10, ref[m.Rank()], op, Options{Algorithm: AlgoTree})
				})
				ringPair(t, meshes, got, op, nil, table)
				for r := range got {
					if j, ok := sameBits(got[r], ref[r]); !ok {
						t.Fatalf("%s: rank %d elem %d: %x != tree %x", name, r, j, got[r][j], ref[r][j])
					}
				}
			}
			// The flag-extended vector: the flag slot closes the last part.
			for _, contrib := range [][]bool{{true, true}, {false, true}, {false, false}} {
				name := fmt.Sprintf("%s/cut=%d/partial=%v", kind, cut, contrib)
				in := shardInputs(n, dim+1, int64(dim+cut))
				ref, got := cloneVecs(in), cloneVecs(in)
				refCounts := make([]int, n)
				spmd(t, meshes, func(m transport.Mesh) (err error) {
					refCounts[m.Rank()], err = PartialAllReduceInPlace(m, 10, ref[m.Rank()], weight(contrib[m.Rank()]), Options{Algorithm: AlgoTree})
					return err
				})
				counts := ringPair(t, meshes, got, 0, contrib, []int{0, cut, dim + 1})
				for r := range got {
					if counts[r] != refCounts[r] {
						t.Fatalf("%s: rank %d counted %d, tree %d", name, r, counts[r], refCounts[r])
					}
					if j, ok := sameBits(got[r][:dim], ref[r][:dim]); !ok {
						t.Fatalf("%s: rank %d elem %d: %x != tree %x", name, r, j, got[r][j], ref[r][j])
					}
				}
			}
		}
	}
}

// TestRingTableUnevenAndEmptyParts: at three and four ranks, tables with
// uneven parts and with empty ones — a group with more members than chunks —
// leave rank r holding the reduction on table part (r+1) mod n after the
// scatter, and complete with every rank holding the same vector, the
// reduction within rounding of the serial one, and the right contributor
// count.
func TestRingTableUnevenAndEmptyParts(t *testing.T) {
	const dim = 28
	tables := map[int][][]int{
		3: {{0, 20, 22, 28}, {0, 0, 10, 28}, {0, 14, 28, 28}},
		4: {{0, 4, 11, 25, 28}, {0, 10, 19, 28, 28}, {0, 0, 0, 14, 28}},
	}
	for n, list := range tables {
		for kind, meshes := range memAndTCP(t, n) {
			for _, table := range list {
				contrib, want := contribPattern(n)
				for _, partial := range []bool{false, true} {
					name := fmt.Sprintf("%s/n=%d/table=%v/partial=%v", kind, n, table, partial)
					var c []bool
					tab := table
					in := shardInputs(n, dim, int64(n+table[1]))
					if partial {
						c = contrib
						tab = append(append([]int(nil), table[:n]...), dim+1)
						in = shardInputs(n, dim+1, int64(n+table[1]))
					}
					serial := tensor.New(dim)
					for r := range in {
						if c == nil || c[r] {
							_ = serial.Add(in[r][:dim])
						}
					}
					scattered := cloneVecs(in)
					ringPair(t, meshes, scattered, OpSum, c, tab, true)
					for r := range scattered {
						lo, hi := RingOwned(len(in[r]), n, r, tab...)
						if want := tab[(r+1)%n]; lo != want {
							t.Fatalf("%s: rank %d owns from %d, table part %d starts at %d", name, r, lo, (r+1)%n, want)
						}
						for j := lo; j < min(hi, dim); j++ {
							if math.Abs(scattered[r][j]-serial[j]) > 1e-12 {
								t.Fatalf("%s: after the scatter rank %d elem %d = %v, serial sum %v", name, r, j, scattered[r][j], serial[j])
							}
						}
					}
					got := cloneVecs(in)
					counts := ringPair(t, meshes, got, OpSum, c, tab)
					for r := range got {
						if j, ok := sameBits(got[r], got[0]); !ok {
							t.Fatalf("%s: rank %d elem %d differs from rank 0", name, r, j)
						}
						for j := 0; j < dim; j++ {
							if math.Abs(got[r][j]-serial[j]) > 1e-12 {
								t.Fatalf("%s: rank %d elem %d = %v, serial sum %v", name, r, j, got[r][j], serial[j])
							}
						}
						if partial && counts[r] != want {
							t.Fatalf("%s: rank %d counted %d contributors, want %d", name, r, counts[r], want)
						}
					}
				}
			}
		}
	}
}

// TestRingTableRejectsBadTables: a table of the wrong length, not covering the
// vector or not monotone is refused before any frame is sent.
func TestRingTableRejectsBadTables(t *testing.T) {
	const n, dim = 3, 10
	for _, table := range [][]int{{0, 5, 10}, {0, 4, 6, 9}, {0, 7, 5, 10}, {1, 4, 6, 10}} {
		spmd(t, memAndTCP(t, n)["mem"], func(m transport.Mesh) error {
			v := tensor.New(dim)
			if err := RingReduceScatter(m, 1, v, OpSum, table...); err == nil {
				return fmt.Errorf("reduce-scatter accepted %v", table)
			}
			if _, err := PartialRingReduceScatter(m, 1, v, 1, table...); err == nil {
				return fmt.Errorf("partial reduce-scatter accepted %v", table)
			}
			if err := RingAllGather(m, 1, v, table...); err == nil {
				return fmt.Errorf("allgather accepted %v", table)
			}
			return nil
		})
	}
}
