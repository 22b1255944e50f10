package collective

import (
	"errors"
	"math"
	"testing"

	"repro/internal/tensor"
	"repro/internal/transport"
)

// asyncSPMD runs fn concurrently on a fresh Async per endpoint of a local
// network.
func asyncSPMD(t *testing.T, n int, fn func(a *Async, rank int) error) {
	t.Helper()
	runSPMD(t, n, func(m transport.Mesh) error {
		return fn(NewAsync(m), m.Rank())
	})
}

// start launches AllReduceOpts(v) on a stream.
func start(a *Async, stream int32, iter int64, v tensor.Vector, op ReduceOp, opts Options) (*Handle, error) {
	return a.Go(stream, func(m transport.Mesh) error { return AllReduceOpts(m, iter, v, op, opts) })
}

// startPartial launches PartialAllReduceOpts(v, contributes) on a stream; pr
// holds the result after a successful Wait.
func startPartial(a *Async, stream int32, iter int64, v tensor.Vector, contributes bool) (h *Handle, pr *PartialResult, err error) {
	pr = new(PartialResult)
	h, err = a.Go(stream, func(m transport.Mesh) (err error) {
		*pr, err = PartialAllReduceOpts(m, iter, v, contributes, Options{})
		return err
	})
	return h, pr, err
}

// TestAsyncSingleCollective: one Go/Wait reproduces the synchronous
// AllReduce exactly.
func TestAsyncSingleCollective(t *testing.T) {
	const n, dim = 4, 257
	asyncSPMD(t, n, func(a *Async, rank int) error {
		v := tensor.New(dim)
		for i := range v {
			v[i] = float64(rank + i)
		}
		h, err := start(a, 0, 7, v, OpSum, Options{})
		if err != nil {
			return err
		}
		if err := h.Wait(); err != nil {
			return err
		}
		for i := range v {
			want := float64(n*i) + float64(n*(n-1))/2
			if v[i] != want {
				t.Errorf("rank %d elem %d: %v != %v", rank, i, v[i], want)
				return nil
			}
		}
		return nil
	})
}

// TestAsyncConcurrentCollectives runs many collectives at once on one mesh —
// distinct streams, all in flight together — and checks every result plus
// the MaxInFlight gauge.
func TestAsyncConcurrentCollectives(t *testing.T) {
	const n, streams, dim = 3, 6, 100
	maxSeen := make([]int, n)
	asyncSPMD(t, n, func(a *Async, rank int) error {
		vs := make([]tensor.Vector, streams)
		handles := make([]*Handle, streams)
		for s := range vs {
			vs[s] = tensor.New(dim)
			for i := range vs[s] {
				vs[s][i] = float64((s+1)*(rank+1)) + float64(i)
			}
			h, err := start(a, int32(s), int64(s*3+1), vs[s], OpSum, Options{})
			if err != nil {
				return err
			}
			handles[s] = h
		}
		for s, h := range handles {
			if err := h.Wait(); err != nil {
				return err
			}
			for i := range vs[s] {
				want := float64((s+1)*(1+2+3)) + float64(n*i)
				if vs[s][i] != want {
					t.Errorf("rank %d stream %d elem %d: %v != %v", rank, s, i, vs[s][i], want)
					return nil
				}
			}
		}
		maxSeen[rank] = a.MaxInFlight()
		return nil
	})
	for rank, m := range maxSeen {
		if m < 1 || m > streams {
			t.Errorf("rank %d MaxInFlight = %d", rank, m)
		}
	}
}

// TestAsyncMatchesSyncBitwise: a stream collective must produce bitwise the
// same result as the plain synchronous collective on the same inputs —
// including under a lossy wire with error feedback.
func TestAsyncMatchesSyncBitwise(t *testing.T) {
	const n, dim = 4, 300
	for _, wire := range []tensor.Dtype{tensor.F64, tensor.F16, tensor.I8} {
		ref := make([]tensor.Vector, n)
		refRes := make([]tensor.Vector, n)
		runSPMD(t, n, func(m transport.Mesh) error {
			v := tensor.New(dim)
			for i := range v {
				v[i] = math.Sin(float64(i*(m.Rank()+3))) * 10
			}
			res := tensor.New(dim)
			if err := AllReduceOpts(m, 5, v, OpAverage, Options{Compression: wire, Residual: res}); err != nil {
				return err
			}
			ref[m.Rank()], refRes[m.Rank()] = v, res
			return nil
		})
		asyncSPMD(t, n, func(a *Async, rank int) error {
			v := tensor.New(dim)
			for i := range v {
				v[i] = math.Sin(float64(i*(rank+3))) * 10
			}
			res := tensor.New(dim)
			// A non-zero stream: the packed iter differs from the sync run,
			// which must not change a single bit of the result.
			h, err := start(a, 3, 5, v, OpAverage, Options{Compression: wire, Residual: res})
			if err != nil {
				return err
			}
			if err := h.Wait(); err != nil {
				return err
			}
			for i := range v {
				if math.Float64bits(v[i]) != math.Float64bits(ref[rank][i]) {
					t.Errorf("%v rank %d elem %d: async %v != sync %v", wire, rank, i, v[i], ref[rank][i])
					return nil
				}
				if math.Float64bits(res[i]) != math.Float64bits(refRes[rank][i]) {
					t.Errorf("%v rank %d residual %d: async %v != sync %v", wire, rank, i, res[i], refRes[rank][i])
					return nil
				}
			}
			return nil
		})
	}
}

// TestAsyncPartial: partial collectives ride streams too, contributor count
// intact.
func TestAsyncPartial(t *testing.T) {
	const n, dim = 4, 64
	asyncSPMD(t, n, func(a *Async, rank int) error {
		contributes := rank%2 == 0 // ranks 0 and 2
		v := tensor.New(dim)
		for i := range v {
			v[i] = float64(rank + 1)
		}
		h, pr, err := startPartial(a, 2, 9, v, contributes)
		if err != nil {
			return err
		}
		if err := h.Wait(); err != nil {
			return err
		}
		defer pr.Release()
		if pr.Contributors != 2 {
			t.Errorf("rank %d: contributors = %d", rank, pr.Contributors)
			return nil
		}
		for i := range pr.Sum {
			if pr.Sum[i] != 4 { // (0+1) + (2+1)
				t.Errorf("rank %d sum[%d] = %v", rank, i, pr.Sum[i])
				return nil
			}
		}
		return nil
	})
}

// TestAsyncBusyStream: two collectives on one stream is a launch error, and
// the stream is usable again after the first completes.
func TestAsyncBusyStream(t *testing.T) {
	asyncSPMD(t, 2, func(a *Async, rank int) error {
		v := tensor.New(16)
		h, err := start(a, 1, 0, v, OpSum, Options{})
		if err != nil {
			return err
		}
		if rank == 0 {
			if _, err := start(a, 1, 1, tensor.New(16), OpSum, Options{}); err == nil {
				t.Error("second collective on busy stream accepted")
			}
		}
		if err := h.Wait(); err != nil {
			return err
		}
		// Released: the stream accepts a new collective.
		h2, err := start(a, 1, 1, v, OpSum, Options{})
		if err != nil {
			return err
		}
		return h2.Wait()
	})
}

// TestAsyncBadArgs: negative streams fail cleanly, and — now that streams
// ride a dedicated frame-header field instead of Iter's high bits — the full
// int64 iter range is usable on any stream.
func TestAsyncBadArgs(t *testing.T) {
	net, err := transport.NewLocalNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	a := NewAsync(net.Endpoints()[0])
	if _, err := start(a, -1, 0, tensor.New(4), OpSum, Options{}); err == nil {
		t.Error("negative stream accepted")
	}
	// The failed launch must not leave stream 0 marked busy, and huge iters
	// (formerly rejected as stream-tag overflow) now run end to end.
	for _, iter := range []int64{-1, 0, 1 << 60, math.MaxInt64} {
		h, err := start(a, 0, iter, tensor.New(4), OpSum, Options{})
		if err != nil {
			t.Fatalf("iter %d rejected: %v", iter, err)
		}
		if err := h.Wait(); err != nil {
			t.Fatalf("iter %d failed: %v", iter, err)
		}
		ph, res, err := startPartial(a, 0, iter, tensor.New(4), true)
		if err != nil {
			t.Fatalf("partial iter %d rejected: %v", iter, err)
		}
		if err := ph.Wait(); err != nil {
			t.Fatalf("partial iter %d failed: %v", iter, err)
		}
		res.Release()
	}
}

// TestAsyncTagOverflowGuard: the ring's int32 segment-tag guard still fires
// through the async path.
func TestAsyncTagOverflowGuard(t *testing.T) {
	// 3 ranks x a vector long enough that chunking exceeds the tag space is
	// impractical; call the guard directly and through ringAllReduce's
	// validation to pin the contract.
	if err := checkSegTagSpace(1<<16, 1<<16); !errors.Is(err, ErrTagOverflow) {
		t.Errorf("err = %v, want ErrTagOverflow", err)
	}
	if err := checkSegTagSpace(4, 1024); err != nil {
		t.Errorf("small tag space rejected: %v", err)
	}
}

// TestPartialResultReleaseIdempotent: Release must be safe to call twice —
// the regression is a double PutPayload poisoning the payload pool with the
// same backing array twice.
func TestPartialResultReleaseIdempotent(t *testing.T) {
	pr := PartialResult{Sum: tensor.Vector(transport.GetPayload(64)), Contributors: 3}
	pr.Release()
	if pr.Sum != nil || pr.Contributors != 0 {
		t.Fatalf("release left %+v", pr)
	}
	pr.Release() // second release: must be a no-op
	// If the double release had pushed the same buffer twice, two gets
	// would alias: writing through one would be visible through the other.
	a := transport.GetPayload(64)
	b := transport.GetPayload(64)
	a[0] = 1
	if b[0] == 1 && &a[0] == &b[0] {
		t.Fatal("double release leaked the same buffer to two owners")
	}
	transport.PutPayload(a)
	transport.PutPayload(b)
}
