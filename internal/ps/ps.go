// Package ps implements the parameter-server substrate used by RNA's
// hierarchical synchronization (Section 4). It follows the ps-lite model
// the paper builds on: a logically separate store of named parameter
// shards with push / pull / push-pull operations. The store only sums
// what the groups push — exactly the role the paper assigns it — while the
// AllReduce groups do the heavy lifting.
//
// The package has two layers. Store is the in-process engine: a sharded
// key-value map whose entries publish immutable snapshots, so pulls are
// wait-free reads that clone outside every lock while pushes serialize
// only against other pushes on the same key. Server and Client put that
// engine on the wire: chunked push-pull frames of protocol v1 (see wire.go)
// over any transport.Mesh, with request pipelining. A hierarchical group
// member always reaches the global model through a Client; Loopback is a
// whole-key view of a Store, which the benchmark's probe times against one.
package ps

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/tensor"
)

// ErrUnknownKey is returned when pulling a key that was never pushed.
var ErrUnknownKey = errors.New("ps: unknown key")

// UpdateMode selects how a push combines with the stored value.
type UpdateMode int

// Push combination modes.
const (
	// Overwrite replaces the stored value.
	Overwrite UpdateMode = iota + 1
	// Add accumulates into the stored value: a group member pushes the
	// delta of its span since its last pull.
	Add

	// maxUpdateMode bounds the valid mode range for wire tag decoding.
	maxUpdateMode = Add
)

// Store is a sharded, thread-safe key-value parameter store. Keys identify
// parameter shards (e.g. one per AllReduce group or one per tensor).
//
// Every key's state lives in a reference-counted snapshot behind an atomic
// pointer: a push builds the successor value under the key's write lock
// and publishes it with one pointer store, so a concurrent Pull never
// blocks on an in-progress push, never observes a torn vector, and reads
// the snapshot outside any critical section. Once a
// snapshot is superseded and its last reader releases it, its buffer is
// recycled into the key's next publish — the steady-state push-pull loop
// allocates nothing and never pays make's zeroing.
type Store struct {
	shards []storeShard
}

type storeShard struct {
	mu      sync.Mutex
	cond    *sync.Cond
	entries map[string]*entry
	// waiters counts goroutines parked in WaitVersion on this shard;
	// publishes skip the wakeup lock entirely while it is zero.
	waiters atomic.Int64
}

type entry struct {
	// mu serializes writers on this key; readers never take it.
	mu   sync.Mutex
	snap atomic.Pointer[snapshot]

	// freeMu guards free, the recycled publish buffers. A superseded
	// snapshot's buffer lands here once its last reference drains, and the
	// next publish reuses it instead of allocating — which skips both
	// make's zeroing (every apply mode overwrites the whole buffer) and
	// the GC churn of one model-sized allocation per push.
	freeMu sync.Mutex
	free   []tensor.Vector
}

// snapshot is a published state of one key. The value vector is frozen for
// as long as any reference is held: the entry itself holds one reference
// while the snapshot is current, and readers take their own via acquire.
// Only after the snapshot is superseded AND every reader has released does
// the buffer return to the entry's free list for reuse.
type snapshot struct {
	value   tensor.Vector
	version int64
	refs    atomic.Int64
	owner   *entry
}

// release drops one reference. The last release recycles the buffer into
// the owning entry's free list, so it must only run once per acquired
// reference (and once by the publisher when the snapshot is superseded).
func (sn *snapshot) release() {
	if sn.refs.Add(-1) == 0 {
		sn.owner.recycle(sn.value)
	}
}

// acquire takes a read reference on the entry's published snapshot, or nil
// when the key holds none. A snapshot whose count already drained to zero
// was superseded and its buffer possibly recycled, so the CAS refuses to
// resurrect it and retries on the freshly published pointer instead.
func (e *entry) acquire() *snapshot {
	for {
		snap := e.snap.Load()
		if snap == nil {
			return nil
		}
		for n := snap.refs.Load(); n > 0; n = snap.refs.Load() {
			if snap.refs.CompareAndSwap(n, n+1) {
				return snap
			}
		}
	}
}

// maxFreeBufs caps an entry's recycled-buffer list; extras go to the GC.
// Steady state needs one buffer per snapshot being read plus one
// in flight, and chunk entries are hammered by at most a few groups.
const maxFreeBufs = 4

func (e *entry) recycle(buf tensor.Vector) {
	e.freeMu.Lock()
	if len(e.free) < maxFreeBufs {
		e.free = append(e.free, buf)
	}
	e.freeMu.Unlock()
}

// takeBuf returns a recycled publish buffer of length n, or a fresh (zeroed)
// allocation when none fits. Recycled buffers are NOT zeroed — every apply
// mode overwrites all n elements before the buffer is published.
func (e *entry) takeBuf(n int) tensor.Vector {
	e.freeMu.Lock()
	for len(e.free) > 0 {
		buf := e.free[len(e.free)-1]
		e.free = e.free[:len(e.free)-1]
		if len(buf) == n {
			e.freeMu.Unlock()
			return buf
		}
	}
	e.freeMu.Unlock()
	return tensor.New(n)
}

// NewStore returns a Store with the given shard count (rounded up to 1).
// Sharding spreads map and wakeup contention when many groups push
// concurrently; value-level contention is already per-key.
func NewStore(shards int) *Store {
	if shards < 1 {
		shards = 1
	}
	s := &Store{shards: make([]storeShard, shards)}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.entries = make(map[string]*entry)
		sh.cond = sync.NewCond(&sh.mu)
	}
	return s
}

func (s *Store) shardFor(key string) *storeShard {
	// FNV-1a, inlined to avoid the hash.Hash allocation on the hot path.
	var h uint64 = 14695981039346656037
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return &s.shards[h%uint64(len(s.shards))]
}

// lookup returns the key's entry without creating it.
func (s *Store) lookup(key string) (*entry, *storeShard, bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	sh.mu.Unlock()
	return e, sh, ok
}

// ensure returns the key's entry, creating an empty one if absent.
func (s *Store) ensure(key string) (*entry, *storeShard) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	if !ok {
		e = &entry{}
		sh.entries[key] = e
	}
	sh.mu.Unlock()
	return e, sh
}

// wake unblocks WaitVersion waiters after a publish. The waiter counter
// keeps the no-waiter fast path to one atomic load; when a waiter is
// parked, taking the shard lock before broadcasting guarantees it either
// saw the new snapshot or is inside Wait and receives the wakeup.
func (sh *storeShard) wake() {
	if sh.waiters.Load() == 0 {
		return
	}
	sh.mu.Lock()
	sh.cond.Broadcast()
	sh.mu.Unlock()
}

// apply builds and publishes the key's successor snapshot under the write
// lock and returns it holding one caller reference — every caller must
// release() it when done reading. The first push stores a copy regardless
// of mode.
func (e *entry) apply(value tensor.Vector, mode UpdateMode) (*snapshot, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.snap.Load()
	if cur == nil {
		next := &snapshot{value: value.Clone(), version: 1, owner: e}
		next.refs.Store(2) // the published reference + the caller's
		e.snap.Store(next)
		return next, nil
	}
	if len(cur.value) != len(value) {
		return nil, tensor.ErrShapeMismatch
	}
	// Build the successor in a single fused pass (dst = f(cur, pushed))
	// into a recycled buffer: no clone-then-combine sweep, no allocation
	// zeroing, on the only serialized stretch of a push.
	next := &snapshot{value: e.takeBuf(len(value)), version: cur.version + 1, owner: e}
	switch mode {
	case Overwrite:
		copy(next.value, value)
	case Add:
		if err := tensor.SumInto(next.value, cur.value, value); err != nil {
			e.recycle(next.value)
			return nil, err
		}
	default:
		e.recycle(next.value)
		return nil, fmt.Errorf("ps: unknown update mode %d", mode)
	}
	next.refs.Store(2) // the published reference + the caller's
	e.snap.Store(next)
	cur.release() // drop the superseded publish reference
	return next, nil
}

// Push applies value to key under the given mode and returns the key's new
// version. The first push to a key stores a copy regardless of mode.
func (s *Store) Push(key string, value tensor.Vector, mode UpdateMode) (int64, error) {
	snap, err := s.applySnap(key, value, mode, 0)
	if err != nil {
		return 0, err
	}
	version := snap.version
	snap.release()
	return version, nil
}

// Pull returns a copy of the key's value and its version. The copy is made
// from the published snapshot outside every lock, so a pull never contends
// with concurrent pushes.
func (s *Store) Pull(key string) (tensor.Vector, int64, error) {
	e, _, ok := s.lookup(key)
	if !ok {
		return nil, 0, fmt.Errorf("pull %q: %w", key, ErrUnknownKey)
	}
	snap := e.acquire()
	if snap == nil {
		return nil, 0, fmt.Errorf("pull %q: %w", key, ErrUnknownKey)
	}
	out := snap.value.Clone()
	version := snap.version
	snap.release()
	return out, version, nil
}

// PushPull atomically applies value under mode and returns the resulting
// value — the push+pull round trip of ps-lite, and the operation RNA's
// group initiators invoke (Section 6, PSPushPull). The returned vector is
// cloned from the published snapshot outside the write lock.
func (s *Store) PushPull(key string, value tensor.Vector, mode UpdateMode) (tensor.Vector, int64, error) {
	snap, err := s.applySnap(key, value, mode, 0)
	if err != nil {
		return nil, 0, err
	}
	out := snap.value.Clone()
	version := snap.version
	snap.release()
	return out, version, nil
}

// WaitVersion blocks until key exists and its version is at least min,
// returning the version observed.
func (s *Store) WaitVersion(key string, min int64) int64 {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.waiters.Add(1)
	defer sh.waiters.Add(-1)
	for {
		if e, ok := sh.entries[key]; ok {
			if snap := e.snap.Load(); snap != nil && snap.version >= min {
				return snap.version
			}
		}
		sh.cond.Wait()
	}
}

// applySnap applies value to key under mode and returns the published
// snapshot holding one caller reference: the caller reads out of it outside
// every lock, then must release() it. A positive minVersion first waits for
// the key's version to reach it (a request's Iter on the wire): group members
// use it to impose a deterministic global exchange order on an otherwise
// asynchronous hierarchy (core's OrderedPS mode), where a member of group g
// of G waits for version 1 + r·G + g of each of its chunks before its r-th
// exchange, so every run applies the same operation sequence.
func (s *Store) applySnap(key string, value tensor.Vector, mode UpdateMode, minVersion int64) (*snapshot, error) {
	if minVersion > 0 {
		s.WaitVersion(key, minVersion)
	}
	e, sh := s.ensure(key)
	next, err := e.apply(value, mode)
	if err != nil {
		if errors.Is(err, tensor.ErrShapeMismatch) {
			return nil, fmt.Errorf("push %q: %w", key, err)
		}
		return nil, err
	}
	sh.wake()
	return next, nil
}

// Keys returns all stored keys in sorted order, so callers that iterate
// the store (checkpointing, diagnostics) see a deterministic sequence.
func (s *Store) Keys() []string {
	var out []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k := range sh.entries {
			out = append(out, k)
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}
