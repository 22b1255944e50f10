package workload

import (
	"fmt"
	"time"

	"repro/internal/collective"
)

// CommModel prices communication operations in virtual time. It follows the
// standard α–β model: a transfer of S bytes costs Latency + S/Bandwidth.
type CommModel struct {
	// Latency is the per-message fixed cost (link latency + software
	// overhead).
	Latency time.Duration
	// Bandwidth is the network link bandwidth in bytes per second.
	Bandwidth float64
	// PCIeBandwidth is the host↔device copy bandwidth in bytes per
	// second; RNA pays one device→host and one host→device copy per
	// iteration (Table 5 overhead).
	PCIeBandwidth float64
}

// DefaultComm models the paper's testbed interconnect (Section 7.1): EDR
// InfiniBand (100 Gb/s) between nodes and PCIe 3 x16 host copies.
func DefaultComm() CommModel {
	return CommModel{
		Latency:       5 * time.Microsecond,
		Bandwidth:     12.5e9, // EDR InfiniBand, 100 Gb/s
		PCIeBandwidth: 11e9,   // PCIe 3.0 x16 effective
	}
}

// TenGbEComm models the 10 Gb Ethernet fabric of the Section 2.3 motivation
// cluster.
func TenGbEComm() CommModel {
	return CommModel{
		Latency:       50 * time.Microsecond,
		Bandwidth:     1.25e9, // 10 Gb/s
		PCIeBandwidth: 11e9,
	}
}

// bytesCost prices the bandwidth term of a transfer without the per-message
// latency, for the chunked parameter-server pipeline, whose message count is
// not what its byte volume implies.
func (c CommModel) bytesCost(bytes int64) time.Duration {
	if c.Bandwidth <= 0 || bytes <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / c.Bandwidth * float64(time.Second))
}

// transfer prices one point-to-point message of the given size.
func (c CommModel) transfer(bytes int64) time.Duration {
	return c.Latency + c.bytesCost(bytes)
}

// PointToPoint returns the cost of one message of the given size.
func (c CommModel) PointToPoint(bytes int64) time.Duration {
	return c.transfer(bytes)
}

// price evaluates a schedule's critical path (collective.RingPath,
// collective.TreePath — the descriptions the runtime's selector also
// prices) in virtual time: every message is one transfer. Each transfer is
// truncated to the nanosecond on its own, as the event queue would see it,
// which is why this evaluator and collective.CostModel's float one agree
// only to within a nanosecond per message.
func (c CommModel) price(path [2]collective.Hop) time.Duration {
	var d time.Duration
	for _, h := range path {
		d += time.Duration(h.Msgs) * c.transfer(h.Bytes)
	}
	return d
}

// RingAllReduce returns the cost of a ring AllReduce of a `bytes`-sized
// buffer across n workers — the bandwidth-optimal schedule of Section 2.2.
func (c CommModel) RingAllReduce(n int, bytes int64) time.Duration {
	return c.price(collective.RingPath(n, bytes))
}

// TreeAllReduce returns the cost of a binomial-tree reduce-to-root plus
// broadcast. The fewest messages of any dense schedule, at log-factor extra
// byte volume — the small-tensor schedule.
func (c CommModel) TreeAllReduce(n int, bytes int64) time.Duration {
	return c.price(collective.TreePath(n, bytes))
}

// AllReduceAlgo selects which collective schedule CommModel prices for an
// AllReduce. The zero value is the ring — the paper's schedule and the
// historical behavior of every engine — so existing configurations are
// unchanged; AllReduceAuto opts a simulation into cost-model-driven
// selection, as collective.AllReduce selects at run time.
type AllReduceAlgo int

// Priced schedules.
const (
	// AllReduceRing is the 2(N−1)-step bandwidth-optimal ring.
	AllReduceRing AllReduceAlgo = iota
	// AllReduceAuto prices the cheaper schedule at each (n, bytes).
	AllReduceAuto
	// AllReduceTree is binomial-tree reduce + broadcast.
	AllReduceTree
)

// String implements fmt.Stringer.
func (a AllReduceAlgo) String() string {
	switch a {
	case AllReduceRing:
		return "ring"
	case AllReduceAuto:
		return "auto"
	case AllReduceTree:
		return "tree"
	default:
		return fmt.Sprintf("allreduce-algo(%d)", int(a))
	}
}

// AllReduce prices one AllReduce of a `bytes`-sized buffer under the given
// schedule; AllReduceAuto is the cheaper of the two.
func (c CommModel) AllReduce(algo AllReduceAlgo, n int, bytes int64) time.Duration {
	ring := c.RingAllReduce(n, bytes)
	tree := c.TreeAllReduce(n, bytes)
	switch algo {
	case AllReduceTree:
		return tree
	case AllReduceAuto:
		return min(ring, tree)
	default:
		return ring
	}
}

// ReduceScatter prices the reduction half of the sharded owner-computes
// update: n−1 serialized direct messages, each carrying this rank's share of
// one uniform chunk (elems/n whole elements). ReduceScatter + AllGather is
// the ring AllReduce over the whole elements they cover exactly —
// decomposing the ring into its two halves moves no extra bytes, so a
// simulation that swaps a fused AllReduce for the sharded pair pays only the
// owned-shard optimizer time on top.
func (c CommModel) ReduceScatter(n int, elems int) time.Duration {
	if n <= 1 {
		return 0
	}
	return time.Duration(n-1) * c.transfer(8*int64(elems/n))
}

// AllGather prices the parameter-distribution half of the sharded update:
// n−1 serialized direct messages, each carrying one uniform chunk. See
// ReduceScatter for the composition invariant.
func (c CommModel) AllGather(n int, elems int) time.Duration {
	if n <= 1 {
		return 0
	}
	return time.Duration(n-1) * c.transfer(8*int64(elems/n))
}

// NaiveAllReduce returns the cost of the gather-then-broadcast alternative
// (everyone sends the full buffer to a root which broadcasts back): 2(N−1)
// full-size serialized transfers at the root's link. Used by the ablation
// bench comparing ring vs naive.
func (c CommModel) NaiveAllReduce(n int, bytes int64) time.Duration {
	if n <= 1 {
		return 0
	}
	return time.Duration(2*(n-1)) * c.transfer(bytes)
}

// Broadcast returns the cost of a binomial-tree broadcast of `bytes` to n
// workers: ceil(log2 n) serialized full-size transfers.
func (c CommModel) Broadcast(n int, bytes int64) time.Duration {
	if n <= 1 {
		return 0
	}
	steps := 0
	for span := 1; span < n; span *= 2 {
		steps++
	}
	return time.Duration(steps) * c.transfer(bytes)
}

// PSPushPull returns the cost of one push+pull round trip with a parameter
// server for `bytes` of parameters — the monolithic (unchunked) exchange.
// PSPushPullWire prices the pipelined wire protocol.
func (c CommModel) PSPushPull(bytes int64) time.Duration {
	return 2 * c.transfer(bytes)
}

// PSPushPullWire prices one chunked push-pull against the networked
// parameter server (internal/ps wire protocol): the model's elems split
// into `chunks` request frames, pushed back-to-back on the uplink while acks stream back on the downlink. Chunk i's ack can
// start only after its push finishes and the previous ack has drained
// (full-duplex link, serialized per direction), so with symmetric chunk
// sizes the pipeline hides all but one ack behind the pushes:
//
//	pushDone_i = pushDone_{i-1} + B(chunk)
//	ackDone_i  = max(ackDone_{i-1}, pushDone_i + Latency) + B(chunk)
//
// where B is the bandwidth term. With chunks = 1 this degenerates to the
// monolithic round trip (one latency charged per direction).
func (c CommModel) PSPushPullWire(elems int, chunks int) time.Duration {
	if elems <= 0 {
		return 0
	}
	if chunks < 1 {
		chunks = 1
	}
	if chunks > elems {
		chunks = elems
	}
	var pushDone, ackDone time.Duration
	pushDone = c.Latency // connection/head-of-line latency of the first frame
	for i := 0; i < chunks; i++ {
		span := elems / chunks
		if i < elems%chunks {
			span++
		}
		b := c.bytesCost(8 * int64(span))
		pushDone += b
		ready := pushDone + c.Latency
		if ackDone > ready {
			ready = ackDone
		}
		ackDone = ready + b
	}
	return ackDone
}

// HostDeviceCopy returns the cost of one one-way host↔device copy.
func (c CommModel) HostDeviceCopy(bytes int64) time.Duration {
	if c.PCIeBandwidth <= 0 || bytes <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / c.PCIeBandwidth * float64(time.Second))
}

// RNACopyOverhead returns RNA's per-iteration extra transmission cost: one
// device→host gradient copy before AllReduce and one host→device result
// copy after (Section 8.5).
func (c CommModel) RNACopyOverhead(gradientBytes int64) time.Duration {
	return 2 * c.HostDeviceCopy(gradientBytes)
}

// RNAOverlappedCopyOverhead returns the copy cost under the layer-wise
// overlapping Section 8.5 proposes as an optimization: per-layer copies are
// pipelined against backpropagation (device→host) and the next forward pass
// (host→device), exposing only one layer's copy in each direction.
func (c CommModel) RNAOverlappedCopyOverhead(gradientBytes int64, layers int) time.Duration {
	if layers < 1 {
		layers = 1
	}
	return 2 * c.HostDeviceCopy(gradientBytes/int64(layers))
}

// String implements fmt.Stringer.
func (c CommModel) String() string {
	return fmt.Sprintf("comm(lat=%v bw=%.2gGB/s pcie=%.2gGB/s)",
		c.Latency, c.Bandwidth/1e9, c.PCIeBandwidth/1e9)
}
