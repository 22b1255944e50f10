package ps

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/tensor"
	"repro/internal/transport"
)

func TestFirstPushStoresCopy(t *testing.T) {
	s := NewStore(4)
	v := tensor.FromSlice([]float64{1, 2})
	ver, err := s.Push("w", v, Add)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 1 {
		t.Errorf("version = %d, want 1", ver)
	}
	v[0] = 99 // must not affect the store
	got, _, err := s.Pull("w")
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Errorf("store aliased pushed value: %v", got)
	}
}

func TestPullCopies(t *testing.T) {
	s := NewStore(1)
	if _, err := s.Push("w", tensor.FromSlice([]float64{5}), Overwrite); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Pull("w")
	if err != nil {
		t.Fatal(err)
	}
	got[0] = 77
	again, _, _ := s.Pull("w")
	if again[0] != 5 {
		t.Errorf("Pull exposed internal state: %v", again)
	}
}

func TestPullUnknown(t *testing.T) {
	s := NewStore(2)
	if _, _, err := s.Pull("missing"); !errors.Is(err, ErrUnknownKey) {
		t.Errorf("Pull missing = %v, want ErrUnknownKey", err)
	}
}

func TestPushModes(t *testing.T) {
	s := NewStore(2)
	base := tensor.FromSlice([]float64{2, 4})
	if _, err := s.Push("k", base, Overwrite); err != nil {
		t.Fatal(err)
	}

	if _, err := s.Push("k", tensor.FromSlice([]float64{1, 1}), Add); err != nil {
		t.Fatal(err)
	}
	got, ver, _ := s.Pull("k")
	if got[0] != 3 || got[1] != 5 {
		t.Errorf("after Add = %v, want [3 5]", got)
	}
	if ver != 2 {
		t.Errorf("version = %d, want 2", ver)
	}

	// Mode 3, the retired averaging update, is refused and leaves the key alone.
	if _, err := s.Push("k", tensor.FromSlice([]float64{1, 1}), UpdateMode(3)); err == nil {
		t.Error("mode 3 should be refused")
	}
	got, ver, _ = s.Pull("k")
	if got[0] != 3 || got[1] != 5 || ver != 2 {
		t.Errorf("after a refused mode 3 = %v at version %d, want [3 5] at 2", got, ver)
	}

	if _, err := s.Push("k", tensor.FromSlice([]float64{9, 9}), Overwrite); err != nil {
		t.Fatal(err)
	}
	got, _, _ = s.Pull("k")
	if got[0] != 9 {
		t.Errorf("after Overwrite = %v", got)
	}
}

func TestPushShapeMismatch(t *testing.T) {
	s := NewStore(1)
	if _, err := s.Push("k", tensor.New(2), Overwrite); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []UpdateMode{Overwrite, Add} {
		if _, err := s.Push("k", tensor.New(3), mode); !errors.Is(err, tensor.ErrShapeMismatch) {
			t.Errorf("mode %d mismatch error = %v", mode, err)
		}
	}
	if _, _, err := s.PushPull("k", tensor.New(3), Add); !errors.Is(err, tensor.ErrShapeMismatch) {
		t.Errorf("PushPull mismatch error = %v", err)
	}
}

func TestPushUnknownMode(t *testing.T) {
	s := NewStore(1)
	if _, err := s.Push("k", tensor.New(1), Overwrite); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push("k", tensor.New(1), UpdateMode(42)); err == nil {
		t.Error("unknown mode should error")
	}
	if _, _, err := s.PushPull("k", tensor.New(1), UpdateMode(42)); err == nil {
		t.Error("unknown PushPull mode should error")
	}
}

// TestPushPullAtomicAverage: mode 3, the retired averaging update, is refused
// by the store, which keeps the key as it was, and by the server, which ends
// the sender's service with ErrBadRequest.
func TestPushPullAtomicAverage(t *testing.T) {
	s := NewStore(1)
	if _, err := s.Push("g", tensor.FromSlice([]float64{10}), Overwrite); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.PushPull("g", tensor.FromSlice([]float64{0}), UpdateMode(3)); err == nil {
		t.Error("the store accepted a mode-3 push-pull")
	}
	if got, ver, _ := s.Pull("g"); got[0] != 10 || ver != 1 {
		t.Errorf("after a refused push-pull: %v at version %d, want 10 at 1", got, ver)
	}

	net, err := transport.NewLocalNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(net.Endpoints()[1], ServerConfig{Key: "g", Dim: 1, Init: tensor.FromSlice([]float64{10})})
	if err != nil {
		t.Fatal(err)
	}
	view := net.Endpoints()[0].StreamView(PSStream)
	req := transport.Message{Type: transport.MsgPSPushPull, Stream: PSStream, Chunk: psTag(3, 0), Payload: []float64{0}}
	if err := view.Send(1, req); err != nil {
		t.Fatal(err)
	}
	// The in-memory mesh still delivers a queued frame after Close.
	_ = net.Close()
	if err := srv.Wait(); !errors.Is(err, ErrBadRequest) {
		t.Errorf("server stopped with %v, want ErrBadRequest", err)
	}
	if got, ver, _ := srv.Store().Pull("g#0"); got[0] != 10 || ver != 1 {
		t.Errorf("server chunk after a refused request: %v at version %d, want 10 at 1", got, ver)
	}
}

func TestPushPullFirstTouch(t *testing.T) {
	s := NewStore(1)
	got, ver, err := s.PushPull("new", tensor.FromSlice([]float64{3}), Add)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || ver != 1 {
		t.Errorf("first PushPull = (%v,%d)", got, ver)
	}
}

// TestVersionAndPushes: an absent key has no version to pull, every push
// returns the next version, and a pull reads the last.
func TestVersionAndPushes(t *testing.T) {
	s := NewStore(3)
	if _, _, err := s.Pull("k"); !errors.Is(err, ErrUnknownKey) {
		t.Errorf("Pull of an absent key: %v, want ErrUnknownKey", err)
	}
	for i := int64(1); i <= 5; i++ {
		v, err := s.Push("k", tensor.FromSlice([]float64{1}), Add)
		if err != nil {
			t.Fatal(err)
		}
		if v != i {
			t.Errorf("push %d returned version %d", i, v)
		}
	}
	if _, v, err := s.Pull("k"); err != nil || v != 5 {
		t.Errorf("Pull = version %d, %v; want 5", v, err)
	}
}

func TestKeysAndDelete(t *testing.T) {
	s := NewStore(4)
	for _, k := range []string{"a", "b", "c"} {
		if _, err := s.Push(k, tensor.New(1), Overwrite); err != nil {
			t.Fatal(err)
		}
	}
	keys := s.Keys()
	if len(keys) != 3 {
		t.Errorf("Keys = %v", keys)
	}
	if _, _, err := s.Pull("nope"); !errors.Is(err, ErrUnknownKey) {
		t.Error("a key never pushed should be unknown")
	}
}

func TestKeysSorted(t *testing.T) {
	s := NewStore(8)
	for _, k := range []string{"zeta", "alpha", "mid", "beta"} {
		if _, err := s.Push(k, tensor.New(1), Overwrite); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"alpha", "beta", "mid", "zeta"}
	got := s.Keys()
	if len(got) != len(want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys = %v, want sorted %v", got, want)
		}
	}
}

// TestOneKeyHammer drives one key from many goroutines with mixed
// Push/Pull/PushPull under the race detector. The torn-read check relies on
// an invariant every applied mode preserves: all operands are uniform
// vectors, so every correctly published snapshot is uniform — a pull that
// observes two different elements caught a buffer being mutated after
// publication. Versions observed by one goroutine must never regress.
func TestOneKeyHammer(t *testing.T) {
	s := NewStore(4)
	const dim = 512
	if _, err := s.Push("hot", tensor.New(dim), Overwrite); err != nil {
		t.Fatal(err)
	}
	uniform := func(c float64) tensor.Vector {
		v := tensor.New(dim)
		v.Fill(c)
		return v
	}
	check := func(v tensor.Vector, ver, last int64) error {
		if ver < last {
			return fmt.Errorf("version regressed: %d after %d", ver, last)
		}
		if v != nil {
			for i := 1; i < len(v); i++ {
				if v[i] != v[0] {
					return fmt.Errorf("torn read at version %d: v[%d]=%v, v[0]=%v", ver, i, v[i], v[0])
				}
			}
		}
		return nil
	}
	const workers, ops = 8, 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last int64
			for i := 0; i < ops; i++ {
				var (
					v   tensor.Vector
					ver int64
					err error
				)
				switch (w + i) % 3 {
				case 0:
					ver, err = s.Push("hot", uniform(1), Add)
				case 1:
					v, ver, err = s.Pull("hot")
				default:
					v, ver, err = s.PushPull("hot", uniform(float64(w)), Overwrite)
				}
				if err != nil {
					errs <- err
					return
				}
				if err := check(v, ver, last); err != nil {
					errs <- err
					return
				}
				last = ver
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	got, ver, err := s.Pull("hot")
	if err != nil {
		t.Fatal(err)
	}
	if err := check(got, ver, 0); err != nil {
		t.Fatal(err)
	}
	if wantVer := int64(1 + workers*ops*2/3); ver != wantVer {
		t.Fatalf("final version = %d, want %d", ver, wantVer)
	}
}

func TestWaitVersionBlocksUntilPublish(t *testing.T) {
	s := NewStore(2)
	done := make(chan int64, 1)
	go func() { done <- s.WaitVersion("late", 3) }()
	select {
	case v := <-done:
		t.Fatalf("WaitVersion returned %d before key existed", v)
	default:
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Push("late", tensor.FromSlice([]float64{1}), Add); err != nil {
			t.Fatal(err)
		}
	}
	if v := <-done; v < 3 {
		t.Fatalf("WaitVersion = %d, want ≥ 3", v)
	}
}

// An exchange with a version horizon waits for the key to reach it, in
// process through applySnap and over the wire through a server, so the
// exchange started first but due second lands second. (The name is the
// retired Lease API's, which this ordering was first tested through.)
func TestPushPullLeaseMinVersionOrdering(t *testing.T) {
	s := NewStore(1)
	if _, err := s.Push("k", tensor.FromSlice([]float64{0}), Overwrite); err != nil {
		t.Fatal(err)
	}
	minVersionOrdering(t, "applySnap", func(_ int, add float64, minVersion int64) (float64, error) {
		snap, err := s.applySnap("k", tensor.FromSlice([]float64{add}), Add, minVersion)
		if err != nil {
			return 0, err
		}
		defer snap.release()
		return snap.value[0], nil
	})

	net, err := transport.NewLocalNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	eps := net.Endpoints()
	wait := startServers(t, eps, []int{2}, ServerConfig{Key: "k", Dim: 1, Init: tensor.New(1)})
	var clients [2]*Client
	for i := range clients {
		if clients[i], err = NewClient(eps[i], ClientConfig{Servers: []int{2}, Key: "k", Dim: 1}); err != nil {
			t.Fatal(err)
		}
	}
	minVersionOrdering(t, "server", func(i int, add float64, minVersion int64) (float64, error) {
		v, _, err := clients[i].PushPull(tensor.FromSlice([]float64{add}), Add, minVersion)
		if err != nil {
			return 0, err
		}
		return v[0], nil
	})
	_ = net.Close()
	wait()
}

// minVersionOrdering starts an exchange of 10 due at version 2 from caller 1,
// then one of 1 due at version 1 from caller 0, against a key at 0 and
// version 1: the first to land must see 1, the other 11.
func minVersionOrdering(t *testing.T, name string, exchange func(caller int, add float64, minVersion int64) (float64, error)) {
	t.Helper()
	out := make(chan float64, 1)
	go func() {
		v, err := exchange(1, 10, 2)
		if err != nil {
			v = -1
		}
		out <- v
	}()
	if v, err := exchange(0, 1, 1); err != nil || v != 1 {
		t.Fatalf("%s: first exchange = %v, %v", name, v, err)
	}
	if got := <-out; got != 11 {
		t.Fatalf("%s: second exchange saw %v, want 11 (after first)", name, got)
	}
}

func TestZeroShardsClamped(t *testing.T) {
	s := NewStore(0)
	if _, err := s.Push("k", tensor.New(1), Overwrite); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAdds(t *testing.T) {
	s := NewStore(8)
	if _, err := s.Push("sum", tensor.FromSlice([]float64{0}), Overwrite); err != nil {
		t.Fatal(err)
	}
	const workers, pushes = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < pushes; i++ {
				if _, err := s.Push("sum", tensor.FromSlice([]float64{1}), Add); err != nil {
					t.Errorf("push: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, _, err := s.Pull("sum")
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != workers*pushes {
		t.Errorf("concurrent sum = %v, want %d", got[0], workers*pushes)
	}
}

func TestConcurrentDistinctKeys(t *testing.T) {
	s := NewStore(4)
	const n = 32
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("k%d", w)
			for i := 0; i < 50; i++ {
				if _, _, err := s.PushPull(key, tensor.FromSlice([]float64{float64(w)}), Overwrite); err != nil {
					t.Errorf("pushpull: %v", err)
					return
				}
			}
			got, _, err := s.Pull(key)
			if err != nil {
				t.Errorf("pull: %v", err)
				return
			}
			if got[0] != float64(w) {
				t.Errorf("key %s = %v, want %d", key, got[0], w)
			}
		}()
	}
	wg.Wait()
	if len(s.Keys()) != n {
		t.Errorf("Keys count = %d, want %d", len(s.Keys()), n)
	}
}
