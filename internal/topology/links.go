package topology

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Per-link observations.
//
// The skew partitioner needs to know how fast each (from, to) pair actually
// moves bytes. Raw sample accumulation is the wrong store for that: a long-running
// job observes every link thousands of times, and a link whose speed CHANGED
// (VM migration, congestion shift, failed NIC bonding leg) would be anchored
// to its stale history forever while the slice grows without bound. Link
// state is therefore an exponentially weighted moving average: O(1) memory
// per link, and old samples age out with a configurable half-life.

// DefaultLinkHalfLife is the sample half-life of the EWMAs: after this many
// fresh observations, a stale reading's influence has decayed to 50%.
const DefaultLinkHalfLife = 16.0

// link is one directed pair's EWMA state.
type link struct {
	// nsPerByte and latencyNs are the EWMA estimates; weight is the
	// effective sample mass (saturates at the EWMA horizon), used to tell
	// "observed" from "never probed".
	nsPerByte float64
	latencyNs float64
	weight    float64
}

// LinkObservations aggregates per-link bandwidth/latency measurements with
// EWMA aging. All methods are safe for concurrent use; collectives can feed
// it from per-rank goroutines.
type LinkObservations struct {
	mu    sync.Mutex
	n     int
	decay float64 // per-sample blend factor α: new = (1−α)·old + α·x
	links []link  // n·n, row-major [from][to]
}

// NewLinkObservations returns an empty aggregator for an n-rank fabric.
func NewLinkObservations(n int) (*LinkObservations, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topology: link observations over %d ranks", n)
	}
	o := &LinkObservations{n: n, links: make([]link, n*n)}
	o.SetHalfLife(DefaultLinkHalfLife)
	return o, nil
}

// Size returns the rank count the aggregator covers.
func (o *LinkObservations) Size() int { return o.n }

// SetHalfLife sets the EWMA half-life in samples: a past observation's
// weight halves every `samples` fresh observations. Values ≤ 0 reset to the
// default.
func (o *LinkObservations) SetHalfLife(samples float64) {
	if samples <= 0 {
		samples = DefaultLinkHalfLife
	}
	o.mu.Lock()
	o.decay = 1 - math.Exp2(-1/samples)
	o.mu.Unlock()
}

func (o *LinkObservations) idx(from, to int) (int, error) {
	if from < 0 || from >= o.n || to < 0 || to >= o.n || from == to {
		return 0, fmt.Errorf("topology: link %d→%d of %d ranks", from, to, o.n)
	}
	return from*o.n + to, nil
}

// ObserveTransfer records that `bytes` payload bytes moved from→to in d.
// Transfers below ~1 KiB carry more fixed cost than stream throughput and
// should be recorded with ObserveLatency instead; they are folded into the
// latency EWMA here when bytes is small.
func (o *LinkObservations) ObserveTransfer(from, to int, bytes int64, d time.Duration) error {
	i, err := o.idx(from, to)
	if err != nil {
		return err
	}
	if bytes <= 0 || d <= 0 {
		return fmt.Errorf("topology: transfer of %d bytes in %v", bytes, d)
	}
	if bytes < 1024 {
		return o.ObserveLatency(from, to, d)
	}
	o.mu.Lock()
	o.blend(&o.links[i].nsPerByte, float64(d.Nanoseconds())/float64(bytes), o.links[i].weight)
	o.bumpWeight(i)
	o.mu.Unlock()
	return nil
}

// ObserveLatency records a fixed-cost (small message) delivery time for
// from→to.
func (o *LinkObservations) ObserveLatency(from, to int, d time.Duration) error {
	i, err := o.idx(from, to)
	if err != nil {
		return err
	}
	if d <= 0 {
		return fmt.Errorf("topology: latency %v", d)
	}
	o.mu.Lock()
	o.blend(&o.links[i].latencyNs, float64(d.Nanoseconds()), o.links[i].weight)
	o.bumpWeight(i)
	o.mu.Unlock()
	return nil
}

// blend folds x into the EWMA at *p. The first sample (zero weight) seeds
// the average directly so the estimate is never dragged toward zero.
func (o *LinkObservations) blend(p *float64, x, weight float64) {
	if weight == 0 || *p == 0 {
		*p = x
		return
	}
	*p = (1-o.decay)**p + o.decay*x
}

// bumpWeight advances the link's effective sample mass toward its horizon
// 1/decay (where it saturates — the EWMA's memory is finite by design).
func (o *LinkObservations) bumpWeight(i int) {
	o.links[i].weight = (1-o.decay)*o.links[i].weight + 1
}

// Observed reports whether the pair has been measured at all.
func (o *LinkObservations) Observed(from, to int) bool {
	i, err := o.idx(from, to)
	if err != nil {
		return false
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.links[i].weight > 0
}

// Bandwidth returns the link's estimated bandwidth in bytes/sec, or 0 when
// no transfer has been observed.
func (o *LinkObservations) Bandwidth(from, to int) float64 {
	i, err := o.idx(from, to)
	if err != nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.links[i].nsPerByte == 0 {
		return 0
	}
	return 1e9 / o.links[i].nsPerByte
}

// Latency returns the link's estimated fixed delivery cost, or 0 when no
// small-message observation exists.
func (o *LinkObservations) Latency(from, to int) time.Duration {
	i, err := o.idx(from, to)
	if err != nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return time.Duration(o.links[i].latencyNs)
}
