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

// transfer prices one point-to-point message of the given size.
func (c CommModel) transfer(bytes int64) time.Duration {
	if c.Bandwidth <= 0 || bytes <= 0 {
		return c.Latency
	}
	return c.Latency + time.Duration(float64(bytes)/c.Bandwidth*float64(time.Second))
}

// PointToPoint returns the cost of one message of the given size.
func (c CommModel) PointToPoint(bytes int64) time.Duration {
	return c.transfer(bytes)
}

// RingAllReduce returns the cost of a ring AllReduce of a `bytes`-sized
// buffer across n workers — the bandwidth-optimal schedule of Section 2.2.
// It prices collective.RingPath, the description the runtime's selector also
// prices, in virtual time: every message is one transfer. Each transfer is
// truncated to the nanosecond on its own, as the event queue would see it,
// which is why this price and collective.CostModel's float one agree only to
// within a nanosecond per message.
func (c CommModel) RingAllReduce(n int, bytes int64) time.Duration {
	var d time.Duration
	for _, h := range collective.RingPath(n, bytes) {
		d += time.Duration(h.Msgs) * c.transfer(h.Bytes)
	}
	return d
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
// server for `bytes` of parameters.
func (c CommModel) PSPushPull(bytes int64) time.Duration {
	return 2 * c.transfer(bytes)
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
