package collective

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/race"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// TestRingPairMatchesRingAllReduce: RingReduceScatter + RingAllGather is the
// fused ring carved in two — same bits on every rank, both ops, over both
// transports, at rank counts and lengths that leave ragged and empty chunks —
// and after the scatter alone rank r holds the reduction on RingOwned (the
// rest of v is undefined).
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
						for j := lo; j < hi; j++ {
							if _, ok := sameBits(got[r][j:j+1], ref[r][j:j+1]); !ok {
								t.Fatalf("%s: after the scatter rank %d elem %d (owned %d:%d) = %x, want %x", name, r, j, lo, hi, got[r][j], ref[r][j])
							}
						}
					}
					spmd(t, meshes, func(m transport.Mesh) error {
						return RingAllGather(m, 5, got[m.Rank()])
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
// pinned to the ring (PartialAllReduceInPlace) — both fold every element
// from its uniform chunk of the flag-extended vector — and the same count on
// every rank, for mixed contributors, everyone and no one. Null ranks hand in
// garbage.
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
			return RingAllGather(m, 2, v)
		})
		if pairElems != ringElems {
			t.Errorf("n=%d: the pair ships %d elements, the fused ring %d", n, pairElems, ringElems)
		}
		if want := int64(2 * (n - 1) * n); pairMsgs != want || pairMsgs > ringMsgs {
			t.Errorf("n=%d: the pair sends %d frames, want %d (fused ring: %d)", n, pairMsgs, want, ringMsgs)
		}
	}
}

// TestRingPairTCPAllocs: the owner-computes ring pair at the dense
// workloads' geometry over 4-rank TCP — full and partial scatter, then the
// allgather — allocates under 256 B per rank per synchronization once warm
// (it reads 6 B). Received chunks land in the caller's vector and sent ones
// are views of it: one chunk-sized buffer per frame would be 280 KB, and a
// writer that regrew its iovec list on every flush read 543 B.
func TestRingPairTCPAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("TCP cluster in -short mode")
	}
	const n, dim, warm, rounds = 4, 139792, 4, 20
	tcp, err := transport.NewTCPCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	meshes := make([]transport.Mesh, n)
	for r, m := range tcp {
		meshes[r] = m
		defer m.Close()
	}
	bufs := shardInputs(n, dim+1, 3)
	run := func(from, to int64) {
		spmd(t, meshes, func(m transport.Mesh) error {
			v := bufs[m.Rank()]
			for k := from; k < to; k++ {
				if err := RingReduceScatter(m, 2*k, v[:dim], OpAverage); err != nil {
					return err
				}
				if err := RingAllGather(m, 2*k, v[:dim]); err != nil {
					return err
				}
				if _, err := PartialRingReduceScatter(m, 2*k+1, v, m.Rank() != 2); err != nil {
					return err
				}
				if err := RingAllGather(m, 2*k+1, v); err != nil {
					return err
				}
			}
			return nil
		})
	}
	run(0, warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(warm, warm+rounds)
	runtime.ReadMemStats(&after)
	perSync := float64(after.TotalAlloc-before.TotalAlloc) / (2 * rounds * n)
	t.Logf("%.0f bytes per rank per synchronization at dim %d", perSync, dim)
	if perSync >= 256 {
		t.Errorf("%.0f bytes allocated per rank per ring-pair synchronization over TCP, want < 256", perSync)
	}
}

// TestAutoRunsRingPair: the predicate under the shipped constants, at the
// geometries the benchmark's workloads reduce, and the 2-rank rule at every
// size.
func TestAutoRunsRingPair(t *testing.T) {
	for _, c := range []struct {
		n, elems int
		want     bool
		why      string
	}{
		{4, 139792, true, "dense_bsp"},
		{4, 139793, true, "dense_rna, flag slot included"},
		{4, 4680, false, "hetero_*: the tree"},
		{2, 139793, true, "hier_ps's 2-rank groups: the pair, where the model picks the tree"},
		{2, 28, true, "2 ranks, a tiny vector: the pair"},
		{2, 1 << 20, true, "2 ranks, 1 Mi elements: the pair"},
		{4, 1024, false, "a small vector: the tree"},
		{1, 139792, false, "one rank reduces nothing"},
	} {
		if got := AutoRunsRingPair(c.n, c.elems); got != c.want {
			t.Errorf("n=%d elems=%d (%s): %v, want %v", c.n, c.elems, c.why, got, c.want)
		}
	}
}
