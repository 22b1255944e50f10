package workload

import "testing"

// TestShardHalvesComposeToRing is the sharded pricing invariant: decomposing
// the ring AllReduce into its reduce-scatter and allgather halves moves
// exactly the same bytes behind the same message count — the ring over the
// whole elements the uniform chunks cover.
func TestShardHalvesComposeToRing(t *testing.T) {
	c := DefaultComm()
	for _, n := range []int{2, 3, 4, 8, 16} {
		for _, elems := range []int{n, 1 << 10, 1 << 18} {
			rs := c.ReduceScatter(n, elems)
			ag := c.AllGather(n, elems)
			ring := c.RingAllReduce(n, 8*int64(elems/n*n))
			if rs+ag != ring {
				t.Errorf("n=%d elems=%d: RS %v + AG %v != ring %v", n, elems, rs, ag, ring)
			}
		}
	}
}

func TestShardHalvesSingleWorkerFree(t *testing.T) {
	c := DefaultComm()
	if c.ReduceScatter(1, 1024) != 0 || c.AllGather(1, 1024) != 0 {
		t.Error("single-rank half-collectives should be free")
	}
}
