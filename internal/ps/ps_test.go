package ps

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/tensor"
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

	if _, err := s.Push("k", tensor.FromSlice([]float64{1, 1}), Average); err != nil {
		t.Fatal(err)
	}
	got, _, _ = s.Pull("k")
	if got[0] != 2 || got[1] != 3 {
		t.Errorf("after Average = %v, want [2 3]", got)
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
	for _, mode := range []UpdateMode{Overwrite, Add, Average} {
		if _, err := s.Push("k", tensor.New(3), mode); !errors.Is(err, tensor.ErrShapeMismatch) {
			t.Errorf("mode %d mismatch error = %v", mode, err)
		}
	}
	if _, _, err := s.PushPull("k", tensor.New(3), Average); !errors.Is(err, tensor.ErrShapeMismatch) {
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

func TestPushPullAtomicAverage(t *testing.T) {
	s := NewStore(1)
	if _, err := s.Push("g", tensor.FromSlice([]float64{10}), Overwrite); err != nil {
		t.Fatal(err)
	}
	got, ver, err := s.PushPull("g", tensor.FromSlice([]float64{0}), Average)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 5 {
		t.Errorf("PushPull average = %v, want 5", got[0])
	}
	if ver != 2 {
		t.Errorf("version = %d, want 2", ver)
	}
}

func TestPushPullFirstTouch(t *testing.T) {
	s := NewStore(1)
	got, ver, err := s.PushPull("new", tensor.FromSlice([]float64{3}), Average)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || ver != 1 {
		t.Errorf("first PushPull = (%v,%d)", got, ver)
	}
}

func TestVersionAndPushes(t *testing.T) {
	s := NewStore(3)
	if s.Version("k") != 0 {
		t.Error("absent key should report zero version")
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Push("k", tensor.FromSlice([]float64{1}), Add); err != nil {
			t.Fatal(err)
		}
	}
	if s.Version("k") != 5 {
		t.Errorf("Version = %d, want 5", s.Version("k"))
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
					v, ver, err = s.PushPull("hot", uniform(float64(w)), Average)
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

func TestPushPullLeaseMinVersionOrdering(t *testing.T) {
	s := NewStore(1)
	if _, err := s.Push("k", tensor.FromSlice([]float64{0}), Overwrite); err != nil {
		t.Fatal(err)
	}
	exchange := func(add float64, minVersion int64) (float64, error) {
		l, err := s.PushPullLease("k", tensor.FromSlice([]float64{add}), Add, minVersion)
		if err != nil {
			return 0, err
		}
		defer l.Release()
		return l.Value[0], nil
	}
	// Start the later exchange first: it must wait for version 2.
	out := make(chan float64, 1)
	go func() {
		v, err := exchange(10, 2)
		if err != nil {
			v = -1
		}
		out <- v
	}()
	if v, err := exchange(1, 1); err != nil || v != 1 {
		t.Fatalf("first exchange = %v, %v", v, err)
	}
	if got := <-out; got != 11 {
		t.Fatalf("second exchange saw %v, want 11 (after first)", got)
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
				if _, _, err := s.PushPull(key, tensor.FromSlice([]float64{float64(w)}), Average); err != nil {
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
