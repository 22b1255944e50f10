package workload

import (
	"math"
	"testing"
	"time"

	"repro/internal/rng"
)

func TestModelSpecs(t *testing.T) {
	tests := []struct {
		spec   ModelSpec
		params int64
	}{
		{ResNet50(), 25_559_081},
		{VGG16(), 138_344_128},
		{LSTM(), 34_663_525},
		{Transformer(), 61_362_176},
		{ResNet56(), 855_770},
		{InceptionV3(), 23_851_784},
	}
	for _, tc := range tests {
		if tc.spec.Params != tc.params {
			t.Errorf("%s params = %d, want %d", tc.spec.Name, tc.spec.Params, tc.params)
		}
		if tc.spec.GradientBytes() != tc.params*4 {
			t.Errorf("%s gradient bytes = %d, want %d", tc.spec.Name, tc.spec.GradientBytes(), tc.params*4)
		}
		if tc.spec.BaseStep <= 0 {
			t.Errorf("%s base step not positive", tc.spec.Name)
		}
		if tc.spec.String() == "" {
			t.Errorf("%s empty String()", tc.spec.Name)
		}
	}
}

func TestByName(t *testing.T) {
	m, err := ByName("VGG16")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "VGG16" {
		t.Errorf("ByName returned %s", m.Name)
	}
	if _, err := ByName("AlexNet"); err == nil {
		t.Error("unknown model should error")
	}
}

func TestBalancedSampler(t *testing.T) {
	b := Balanced{Base: 100 * time.Millisecond, Jitter: 0.05}
	src := rng.New(1)
	for i := 0; i < 1000; i++ {
		d := b.Sample(src)
		if d < 95*time.Millisecond || d > 105*time.Millisecond {
			t.Fatalf("balanced sample %v outside ±5%%", d)
		}
	}
	if b.Mean() != 100*time.Millisecond {
		t.Errorf("Mean = %v", b.Mean())
	}
}

func TestBalancedExtremeJitterNonNegative(t *testing.T) {
	b := Balanced{Base: 10 * time.Millisecond, Jitter: 2}
	src := rng.New(1)
	for i := 0; i < 1000; i++ {
		if d := b.Sample(src); d < 0 {
			t.Fatalf("negative step time %v", d)
		}
	}
}

func TestVideoBatchSamplerMatchesFig2(t *testing.T) {
	s := VideoBatchSampler()
	src := rng.New(42)
	const n = 20000
	var sum, sumSq float64
	minSeen, maxSeen := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		d := s.Sample(src)
		ms := float64(d) / float64(time.Millisecond)
		if ms < 156 || ms > 8000 {
			t.Fatalf("sample %v outside [156ms, 8000ms]", d)
		}
		sum += ms
		sumSq += ms * ms
		minSeen = math.Min(minSeen, ms)
		maxSeen = math.Max(maxSeen, ms)
	}
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	// The clamp shifts the moments slightly; accept 10%.
	if math.Abs(mean-1219)/1219 > 0.10 {
		t.Errorf("video batch mean = %.0f ms, want ~1219", mean)
	}
	if math.Abs(sd-760)/760 > 0.25 {
		t.Errorf("video batch stddev = %.0f ms, want ~760", sd)
	}
	if maxSeen < 3000 {
		t.Errorf("long tail missing: max sample %.0f ms", maxSeen)
	}
}

func TestVideoLengthFramesMatchesFig2a(t *testing.T) {
	src := rng.New(7)
	const n = 50000
	var sum float64
	for i := 0; i < n; i++ {
		f := VideoLengthFrames(src)
		if f < 29 || f > 1776 {
			t.Fatalf("video length %v outside [29, 1776]", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-186)/186 > 0.05 {
		t.Errorf("video length mean = %.1f, want ~186", mean)
	}
}

func TestSentenceBatchSampler(t *testing.T) {
	s := SentenceBatchSampler(200 * time.Millisecond)
	src := rng.New(3)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		d := s.Sample(src)
		if d < 50*time.Millisecond || d > 800*time.Millisecond {
			t.Fatalf("sentence sample %v outside clamp", d)
		}
		sum += float64(d)
	}
	mean := time.Duration(sum / n)
	if math.Abs(float64(mean-200*time.Millisecond)) > float64(15*time.Millisecond) {
		t.Errorf("sentence mean = %v, want ~200ms", mean)
	}
}

func TestCommTransferCosts(t *testing.T) {
	c := CommModel{Latency: time.Millisecond, Bandwidth: 1e9}
	// 1 MB at 1 GB/s = 1 ms transfer + 1 ms latency.
	got := c.PointToPoint(1_000_000)
	if got != 2*time.Millisecond {
		t.Errorf("PointToPoint = %v, want 2ms", got)
	}
	if c.PointToPoint(-5) != time.Millisecond {
		t.Errorf("negative bytes should cost only latency")
	}
}

func TestCommZeroBandwidth(t *testing.T) {
	c := CommModel{Latency: time.Millisecond}
	if got := c.PointToPoint(1 << 30); got != time.Millisecond {
		t.Errorf("zero-bandwidth transfer = %v, want latency only", got)
	}
}

func TestRingAllReduceScaling(t *testing.T) {
	c := CommModel{Latency: 0, Bandwidth: 1e9}
	// Ring: 2(N-1) * (S/N)/B. For S=1e9, B=1e9: N=2 -> 1s, N=4 -> 1.5s,
	// N->inf -> 2s. Bandwidth term must be nearly N-independent.
	t2 := c.RingAllReduce(2, 1e9)
	t4 := c.RingAllReduce(4, 1e9)
	t16 := c.RingAllReduce(16, 1e9)
	if math.Abs(t2.Seconds()-1.0) > 0.01 {
		t.Errorf("ring N=2 = %v, want ~1s", t2)
	}
	if math.Abs(t4.Seconds()-1.5) > 0.01 {
		t.Errorf("ring N=4 = %v, want ~1.5s", t4)
	}
	if math.Abs(t16.Seconds()-1.875) > 0.01 {
		t.Errorf("ring N=16 = %v, want ~1.875s", t16)
	}
	if c.RingAllReduce(1, 1e9) != 0 {
		t.Error("single-node allreduce should be free")
	}
}

func TestNaiveVsRing(t *testing.T) {
	c := DefaultComm()
	n := 8
	bytes := int64(100_000_000)
	ring := c.RingAllReduce(n, bytes)
	naive := c.NaiveAllReduce(n, bytes)
	if naive <= ring {
		t.Errorf("naive (%v) should cost more than ring (%v) for large buffers", naive, ring)
	}
	if c.NaiveAllReduce(1, bytes) != 0 {
		t.Error("single-node naive allreduce should be free")
	}
}

func TestBroadcastLogSteps(t *testing.T) {
	c := CommModel{Latency: time.Millisecond, Bandwidth: 0}
	if got := c.Broadcast(1, 1000); got != 0 {
		t.Errorf("broadcast to self = %v, want 0", got)
	}
	if got := c.Broadcast(2, 1000); got != time.Millisecond {
		t.Errorf("broadcast n=2 = %v, want 1 step", got)
	}
	if got := c.Broadcast(8, 1000); got != 3*time.Millisecond {
		t.Errorf("broadcast n=8 = %v, want 3 steps", got)
	}
	if got := c.Broadcast(9, 1000); got != 4*time.Millisecond {
		t.Errorf("broadcast n=9 = %v, want 4 steps", got)
	}
}

func TestPSPushPull(t *testing.T) {
	c := CommModel{Latency: time.Millisecond, Bandwidth: 1e9}
	if got := c.PSPushPull(1_000_000); got != 4*time.Millisecond {
		t.Errorf("PSPushPull = %v, want 4ms", got)
	}
}

func TestHostDeviceCopy(t *testing.T) {
	c := CommModel{PCIeBandwidth: 1e9}
	if got := c.HostDeviceCopy(5e8); got != 500*time.Millisecond {
		t.Errorf("HostDeviceCopy = %v, want 500ms", got)
	}
	if got := c.RNACopyOverhead(5e8); got != time.Second {
		t.Errorf("RNACopyOverhead = %v, want 1s", got)
	}
	var zero CommModel
	if zero.HostDeviceCopy(1e9) != 0 {
		t.Error("zero PCIe bandwidth should cost 0")
	}
}

func TestTable5OverheadShape(t *testing.T) {
	// The paper's Table 5: VGG16 (23%) and Transformer (18%) pay more
	// relative copy overhead than ResNet50 (6.2%) and LSTM (3.8%).
	c := DefaultComm()
	frac := func(m ModelSpec) float64 {
		oh := c.RNACopyOverhead(m.GradientBytes())
		return float64(oh) / float64(m.BaseStep+oh)
	}
	resnet, vgg := frac(ResNet50()), frac(VGG16())
	lstm, tf := frac(LSTM()), frac(Transformer())
	if !(vgg > tf && tf > resnet && resnet > lstm) {
		t.Errorf("overhead ordering violated: vgg=%.3f tf=%.3f resnet=%.3f lstm=%.3f",
			vgg, tf, resnet, lstm)
	}
	if vgg < 0.10 || vgg > 0.35 {
		t.Errorf("VGG16 overhead %.3f outside plausible band around 23%%", vgg)
	}
	if lstm > 0.08 {
		t.Errorf("LSTM overhead %.3f should be small (paper: 3.8%%)", lstm)
	}
}

func TestCommString(t *testing.T) {
	if DefaultComm().String() == "" {
		t.Error("empty comm String()")
	}
}

func TestPSPushPullWire(t *testing.T) {
	c := CommModel{Latency: time.Millisecond, Bandwidth: 1e9}
	const elems = 1 << 20
	// One chunk degenerates to the monolithic round trip.
	if got, want := c.PSPushPullWire(elems, 1), c.PSPushPull(8*elems); got != want {
		t.Errorf("1-chunk wire cost = %v, monolithic = %v", got, want)
	}
	// Pipelining strictly helps: later acks hide behind earlier pushes,
	// and more chunks expose less of the downlink.
	prev := c.PSPushPullWire(elems, 1)
	for _, chunks := range []int{2, 4, 8, 16} {
		got := c.PSPushPullWire(elems, chunks)
		if got >= prev {
			t.Errorf("%d chunks cost %v, not below %v", chunks, got, prev)
		}
		prev = got
	}
	// The pipeline can never beat the uplink serialization bound.
	floor := c.Latency + c.bytesCost(8*elems)
	if got := c.PSPushPullWire(elems, 1<<10); got <= floor {
		t.Errorf("wire cost %v at or below uplink bound %v", got, floor)
	}
	// Degenerate inputs.
	if c.PSPushPullWire(0, 8) != 0 {
		t.Error("zero elems should cost 0")
	}
	if c.PSPushPullWire(4, 100) == 0 {
		t.Error("chunks clamp to elems, cost stays positive")
	}
}
