package collective

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/tensor"
	"repro/internal/transport"
)

// TestRingPairMatchesRingAllReduce: RingReduceScatter + RingAllGather is the
// fused ring carved in two — same bits on every rank, both ops, over both
// transports, at rank counts and lengths that leave ragged and empty chunks —
// and after the scatter alone rank r holds the reduction on RingOwned and its
// own values everywhere else.
func TestRingPairMatchesRingAllReduce(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8} {
		for kind, meshes := range memAndTCP(t, n) {
			for _, dim := range []int{1, n, 97, 1<<12 + 3} {
				for _, op := range []ReduceOp{OpSum, OpAverage} {
					name := fmt.Sprintf("%s/n=%d/dim=%d/op=%d", kind, n, dim, op)
					in := shardInputs(n, dim, int64(n*dim))
					ref := cloneVecs(in)
					spmd(t, meshes, func(m transport.Mesh) error {
						return RingAllReduce(m, 3, ref[m.Rank()], op)
					})
					got := cloneVecs(in)
					spmd(t, meshes, func(m transport.Mesh) error {
						return RingReduceScatter(m, 4, got[m.Rank()], op)
					})
					for r := range got {
						lo, hi := RingOwned(dim, n, r)
						for j := range got[r] {
							want := in[r][j]
							if j >= lo && j < hi {
								want = ref[r][j]
							}
							if _, ok := sameBits(got[r][j:j+1], tensor.Vector{want}); !ok {
								t.Fatalf("%s: after the scatter rank %d elem %d (owned %d:%d) = %x, want %x", name, r, j, lo, hi, got[r][j], want)
							}
						}
					}
					spmd(t, meshes, func(m transport.Mesh) error {
						return RingAllGather(m, 5, got[m.Rank()], Options{})
					})
					for r := range got {
						if j, ok := sameBits(got[r], ref[r]); !ok {
							t.Fatalf("%s: rank %d elem %d: %x != %x", name, r, j, got[r][j], ref[r][j])
						}
					}
				}
			}
		}
	}
}

// TestPartialRingReduceScatterMatches: the partial scatter on the ring gives,
// on every owned data element, the bits of the replicated partial collective
// pinned to the ring (PartialAllReduceInPlace) and of the direct exchange
// (PartialReduceScatter) — all three fold every element from its uniform
// chunk of the flag-extended vector — and the same count on every rank, for
// mixed contributors, everyone and no one. Null ranks hand in garbage.
func TestPartialRingReduceScatterMatches(t *testing.T) {
	for n := 2; n <= 8; n++ {
		for kind, meshes := range memAndTCP(t, n) {
			for _, dim := range []int{n + 1, 261, 1<<11 + 1} {
				for pattern := 0; pattern < 3; pattern++ {
					name := fmt.Sprintf("%s/n=%d/dim=%d/pattern=%d", kind, n, dim, pattern)
					contrib := make([]bool, n)
					want := 0
					for r := range contrib {
						contrib[r] = pattern == 0 || (pattern == 1 && r%2 == 0)
						if contrib[r] {
							want++
						}
					}
					in := shardInputs(n, dim+1, int64(7*n+dim+pattern))
					repl := cloneVecs(in)
					spmd(t, meshes, func(m transport.Mesh) error {
						_, err := PartialAllReduceInPlace(m, 5, repl[m.Rank()], contrib[m.Rank()], Options{Algorithm: AlgoRing})
						return err
					})
					direct := cloneVecs(in)
					spmd(t, meshes, func(m transport.Mesh) error {
						r := m.Rank()
						_, err := PartialReduceScatter(m, 6, direct[r][:dim], contrib[r], nil)
						return err
					})
					offs, err := ShardOffsets(dim, n, nil)
					if err != nil {
						t.Fatal(err)
					}
					got := cloneVecs(in)
					counts := make([]int, n)
					spmd(t, meshes, func(m transport.Mesh) (err error) {
						r := m.Rank()
						counts[r], err = PartialRingReduceScatter(m, 7, got[r], contrib[r])
						return err
					})
					covered := 0
					for r := 0; r < n; r++ {
						if counts[r] != want {
							t.Fatalf("%s: rank %d counted %d contributors, want %d", name, r, counts[r], want)
						}
						lo, hi := RingOwned(dim+1, n, r)
						hi = min(hi, dim)
						covered += hi - lo
						if j, ok := sameBits(got[r][lo:hi], repl[r][lo:hi]); !ok {
							t.Fatalf("%s: rank %d elem %d differs from the replicated ring", name, r, lo+j)
						}
						for j := lo; j < hi; j++ {
							owner := 0
							for offs[owner+1] <= j {
								owner++
							}
							if _, ok := sameBits(got[r][j:j+1], direct[owner][j:j+1]); !ok {
								t.Fatalf("%s: rank %d elem %d differs from the direct exchange at its owner %d", name, r, j, owner)
							}
						}
					}
					if covered != dim {
						t.Fatalf("%s: owned data spans cover %d of %d elements", name, covered, dim)
					}
				}
			}
		}
	}
}

// countingMesh counts the frames and payload elements a rank sends.
type countingMesh struct {
	transport.Mesh
	msgs, elems *atomic.Int64
}

func (c countingMesh) Send(to int, msg transport.Message) error {
	c.msgs.Add(1)
	c.elems.Add(int64(len(msg.Payload)))
	return c.Mesh.Send(to, msg)
}

// TestRingPairShipsTheRingsBytes: at every rank count the owner-computes pair
// ships the payload the fused ring ships — 2(n−1) chunks per rank — and does
// it in 2(n−1) frames per rank where the segmented ring takes up to four times
// as many. countingMesh hides SendOwned, so every send is counted once.
func TestRingPairShipsTheRingsBytes(t *testing.T) {
	const dim = 139792 // the benchmark's dense gradient
	for _, n := range []int{2, 3, 4, 5, 8} {
		count := func(body func(m transport.Mesh, v tensor.Vector) error) (msgs, elems int64) {
			var nm, ne atomic.Int64
			in := shardInputs(n, dim, int64(n))
			runSPMD(t, n, func(m transport.Mesh) error {
				return body(countingMesh{m, &nm, &ne}, in[m.Rank()])
			})
			return nm.Load(), ne.Load()
		}
		ringMsgs, ringElems := count(func(m transport.Mesh, v tensor.Vector) error {
			return RingAllReduce(m, 1, v, OpAverage)
		})
		pairMsgs, pairElems := count(func(m transport.Mesh, v tensor.Vector) error {
			if err := RingReduceScatter(m, 1, v, OpAverage); err != nil {
				return err
			}
			return RingAllGather(m, 2, v, Options{})
		})
		if pairElems != ringElems {
			t.Errorf("n=%d: the pair ships %d elements, the fused ring %d", n, pairElems, ringElems)
		}
		if want := int64(2 * (n - 1) * n); pairMsgs != want || pairMsgs > ringMsgs {
			t.Errorf("n=%d: the pair sends %d frames, want %d (fused ring: %d)", n, pairMsgs, want, ringMsgs)
		}
	}
}

// TestAutoRunsPipelinedRing: the predicate under the shipped constants, at
// the geometries the benchmark's workloads reduce.
func TestAutoRunsPipelinedRing(t *testing.T) {
	for _, c := range []struct {
		n, elems int
		wire     tensor.Dtype
		want     bool
		why      string
	}{
		{4, 139792, tensor.F64, true, "dense_bsp"},
		{4, 139793, tensor.F64, true, "dense_rna, flag slot included"},
		{4, 4680, tensor.F64, false, "hetero_*: the tree"},
		{2, 139793, tensor.F64, false, "hier_ps's 2-rank groups: the tree"},
		{4, 1024, tensor.F64, false, "the edge of the ring's inline envelope"},
		{4, 1025, tensor.F16, SelectAlgorithmWire(4, 1025, tensor.F16) == AlgoRing, "a lossy wire never runs inline"},
		{1, 139792, tensor.F64, false, "one rank reduces nothing"},
	} {
		if got := AutoRunsPipelinedRing(c.n, c.elems, c.wire); got != c.want {
			t.Errorf("n=%d elems=%d wire=%v (%s): %v, want %v", c.n, c.elems, c.wire, c.why, got, c.want)
		}
	}
}
