package collective

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// What the ring pair (shard_ring.go) and the in-place partial collective
// share: the tags of the scatter and gather halves, ownership tables and the
// contributor count decode.
//
// Ownership tables. A table is n+1 prefix offsets: part i is
// table[i]:table[i+1]. Parts must be monotone and cover the vector exactly;
// ShardOffsets derives the uniform tensor.ChunkBounds table.

// Scatter frames carry the index of the part they move, gather frames n plus
// that index.
func scatterTag(part int) int32   { return int32(part) }
func gatherTag(n, part int) int32 { return int32(n + part) }

// ShardOffsets returns the n+1 ownership offset table over a total-element
// vector: the uniform tensor.ChunkBounds partition. It is a pure function of
// (total, n), so SPMD ranks agree on every span.
func ShardOffsets(total, n int) ([]int, error) {
	if n < 1 {
		return nil, fmt.Errorf("collective: shard offsets over %d ranks", n)
	}
	if total < 0 {
		return nil, fmt.Errorf("collective: shard offsets over %d elements", total)
	}
	offs := make([]int, n+1)
	for c := 0; c < n; c++ {
		_, end, err := tensor.ChunkBounds(total, n, c)
		if err != nil {
			return nil, err
		}
		offs[c+1] = end
	}
	return offs, nil
}

// checkShardOffsets validates an ownership table against (n ranks, total
// elements).
func checkShardOffsets(n, total int, offs []int) error {
	if len(offs) != n+1 || offs[0] != 0 || offs[n] != total {
		return fmt.Errorf("collective: shard offsets cover %d of %d elements over %d ranks", offs[len(offs)-1], total, n)
	}
	for i := 0; i < n; i++ {
		if offs[i+1] < offs[i] {
			return fmt.Errorf("collective: shard offsets not monotone at rank %d", i)
		}
	}
	return nil
}

// decodeCount reads a contributor count out of the fp64 it was summed in:
// rounded, and clamped to the rank count.
func decodeCount(sum float64, n int) int {
	return min(max(int(math.Round(sum)), 0), n)
}
