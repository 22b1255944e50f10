package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/controller"
	"repro/internal/ps"
	"repro/internal/topology"
	"repro/internal/transport"
)

// hierPSGroups is the 2-groups-of-2 layout the end-to-end PS tests run:
// worker ranks 0..3, leaving rank 4 free for a PS server on a 5-rank mesh.
var hierPSGroups = []topology.Group{
	{Members: []int{0, 1}},
	{Members: []int{2, 3}},
}

// hierPSConfig builds a deterministic hierarchical config: AllReady
// controllers and StalenessBound 1 pin the RNA trajectory, OrderedPS pins
// the global exchange order, so two runs differ only in how the members
// reach the parameter server.
func hierPSConfig(t *testing.T) (HierarchicalConfig, []*controller.Controller) {
	t.Helper()
	train, _ := blobConfig(t, 8)
	train.StalenessBound = 1
	cfg := HierarchicalConfig{Train: train, Groups: hierPSGroups, PSEvery: 2, OrderedPS: true}
	return cfg, allReadyControllers(t, cfg.Groups)
}

// allReadyControllers builds one AllReady controller per group.
func allReadyControllers(t *testing.T, groups []topology.Group) []*controller.Controller {
	t.Helper()
	ctrls := make([]*controller.Controller, len(groups))
	for gi, g := range groups {
		var err error
		ctrls[gi], err = controller.New(controller.AllReady, len(g.Members), 0, 1)
		if err != nil {
			t.Fatal(err)
		}
	}
	return ctrls
}

func runHierWorkers(t *testing.T, meshes []transport.Mesh, ctrls []*controller.Controller, cfg HierarchicalConfig) []*Result {
	t.Helper()
	results := make([]*Result, len(meshes))
	errs := make([]error, len(meshes))
	var wg sync.WaitGroup
	for i, m := range meshes {
		i, m := i, m
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = RunHierarchicalWorker(m, ctrls, cfg)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	return results
}

// orderedHierDigest is the digest (digestResults) of the ordered 2×2 run of
// hierPSConfig, loopback and TCP alike, recorded when a group leader still
// exchanged the whole model and broadcast it. At two ranks every ownership
// table gives the same bits, so members that each exchange their own span
// must not move it.
const orderedHierDigest = 0x6f249d79e7840751

// orderedHierDigestEvery1 is the same run's digest at PSEvery=1, the
// benchmark's cadence, recorded while every member still kept a private
// baseline of its span and copied each pull out of it: taking the baseline
// from the published version must not move it.
const orderedHierDigestEvery1 = 0x6e2b3726a73b5e86

// TestHierarchicalTCPBitwiseMatchesLoopback is the end-to-end gate of the
// hierarchical scheme: a run whose members reach a dedicated PS rank over TCP
// at an f64 wire finishes with final parameters and losses bitwise equal to
// the same run against the in-process loopback Store over the same chunks.
// The table covers the ownership geometries over the 28-parameter model:
// groups of one, two, three and four members, over the default 8 chunks and
// over 3, where the four-member group has more members than chunks and one
// member owns none; each at hierPSConfig's PSEvery=2 and, in the rows named
// every=1, at an exchange every synchronization.
func TestHierarchicalTCPBitwiseMatchesLoopback(t *testing.T) {
	layouts := map[string][]topology.Group{
		"1x4": {{Members: []int{0}}, {Members: []int{1}}, {Members: []int{2}}, {Members: []int{3}}},
		"2x2": hierPSGroups,
		"3x2": {{Members: []int{0, 1, 2}}, {Members: []int{3, 4, 5}}},
		"4+1": {{Members: []int{0, 1, 2, 3}}, {Members: []int{4}}},
	}
	digests := map[int]uint64{2: orderedHierDigest, 1: orderedHierDigestEvery1}
	for name, groups := range layouts {
		for _, chunks := range []int{0, 3} {
			for _, every := range []int{2, 1} {
				row := fmt.Sprintf("%s/chunks=%d", name, chunks)
				if every == 1 {
					row += "/every=1"
				}
				t.Run(row, func(t *testing.T) {
					workers := 0
					for _, g := range groups {
						workers += g.Size()
					}
					resA := runLoopbackHier(t, groups, workers, chunks, every)
					resB := runTCPHier(t, groups, workers, chunks, every)
					assertHierEqual(t, resA, resB)
					if name == "2x2" {
						if got := digestResults(resA); got != digests[every] {
							t.Errorf("ordered 2x2 digest at PSEvery=%d %#016x, recorded %#016x", every, got, digests[every])
						}
					}
				})
			}
		}
	}
}

// TestPSExchangeBaseline: a member that exchanges every synchronization takes
// its delta's baseline from the published version and holds no copy of its
// span; one with a longer period keeps its last pull.
func TestPSExchangeBaseline(t *testing.T) {
	cfg, _ := hierPSConfig(t)
	store := ps.NewStore(1)
	if err := SeedStore(store, cfg.Train); err != nil {
		t.Fatal(err)
	}
	init, err := InitialParams(cfg.Train)
	if err != nil {
		t.Fatal(err)
	}
	net, err := transport.NewLocalNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	sub, err := transport.NewSubMesh(net.Endpoints()[0], hierPSGroups[0].Members)
	if err != nil {
		t.Fatal(err)
	}
	for _, every := range []int{1, 4} {
		cfg.PSEvery = every
		e, err := newPSExchange(ps.Loopback(store, HierarchicalPSKey), &cfg, 0, sub)
		if err != nil {
			t.Fatal(err)
		}
		e.seed(init)
		if e.hi == e.lo {
			t.Fatalf("PSEvery=%d: the member owns no span", every)
		}
		want := 0
		if every > 1 {
			want = e.hi - e.lo
		}
		if len(e.base) != want {
			t.Errorf("PSEvery=%d: member owning [%d, %d) holds a %d-element baseline, want %d", every, e.lo, e.hi, len(e.base), want)
		}
	}
}

// runLoopbackHier runs hierPSConfig over groups at PSEvery every against an
// in-process store laid out in chunks chunks (0: the default).
func runLoopbackHier(t *testing.T, groups []topology.Group, workers, chunks, every int) []*Result {
	t.Helper()
	cfg, _ := hierPSConfig(t)
	cfg.Groups, cfg.PSEvery = groups, every
	init, err := InitialParams(cfg.Train)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = ps.NewStore(4)
	if err := ps.Seed(cfg.Store, ps.ServerConfig{Key: HierarchicalPSKey, Dim: len(init), Init: init, Chunks: chunks}); err != nil {
		t.Fatal(err)
	}
	net, err := transport.NewLocalNetwork(workers)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	return runHierWorkers(t, net.Endpoints(), allReadyControllers(t, groups), cfg)
}

// runTCPHier runs hierPSConfig over groups at PSEvery every with one more TCP
// rank serving the model in chunks chunks.
func runTCPHier(t *testing.T, groups []topology.Group, workers, chunks, every int) []*Result {
	t.Helper()
	cfg, _ := hierPSConfig(t)
	cfg.Groups, cfg.PSEvery = groups, every
	cfg.PS = &ps.ClientConfig{Servers: []int{workers}, Chunks: chunks}
	meshes, err := transport.NewTCPCluster(workers + 1)
	if err != nil {
		t.Fatal(err)
	}
	init, err := InitialParams(cfg.Train)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ps.NewServer(meshes[workers], ps.ServerConfig{
		Key: HierarchicalPSKey, Dim: len(init), Init: init, Chunks: chunks,
	})
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]transport.Mesh, workers)
	for i := range eps {
		eps[i] = meshes[i]
	}
	res := runHierWorkers(t, eps, allReadyControllers(t, groups), cfg)
	for _, m := range meshes {
		_ = m.Close()
	}
	if err := srv.Wait(); err != nil {
		t.Fatalf("ps server: %v", err)
	}
	// The exchanges really went through the networked store: every chunk
	// advanced past its seed version.
	for _, key := range srv.Store().Keys() {
		if v := srv.Store().Version(key); v < 2 {
			t.Errorf("chunk %q version = %d, want ≥ 2", key, v)
		}
	}
	return res
}

// assertHierEqual requires two runs' final parameters and losses, rank by
// rank, to be bitwise equal.
func assertHierEqual(t *testing.T, a, b []*Result) {
	t.Helper()
	for r := range a {
		for i := range a[r].Params {
			if math.Float64bits(a[r].Params[i]) != math.Float64bits(b[r].Params[i]) {
				t.Fatalf("rank %d param %d: loopback %v vs tcp %v", r, i, a[r].Params[i], b[r].Params[i])
			}
		}
		if len(a[r].Losses) != len(b[r].Losses) {
			t.Fatalf("rank %d: %d vs %d loss samples", r, len(a[r].Losses), len(b[r].Losses))
		}
		for i := range a[r].Losses {
			if math.Float64bits(a[r].Losses[i]) != math.Float64bits(b[r].Losses[i]) {
				t.Fatalf("rank %d loss %d: loopback %v vs tcp %v", r, i, a[r].Losses[i], b[r].Losses[i])
			}
		}
	}
}

// frameCounter is a Mesh that counts the frames its rank sends, by kind.
type frameCounter struct {
	transport.Mesh
	n                      int32 // group size: the ring pair's tag split
	scatter, gather, other atomic.Int64
}

func (c *frameCounter) Send(to int, m transport.Message) error {
	switch {
	case m.Type == transport.MsgChunk && m.Chunk < c.n:
		c.scatter.Add(1)
	case m.Type == transport.MsgChunk && m.Chunk < 2*c.n:
		c.gather.Add(1)
	default:
		c.other.Add(1)
	}
	return c.Mesh.Send(to, m)
}

// TestHierarchicalExchangeFrames: with an exchange at every synchronization,
// a two-member group sends exactly the ring pair's frames — one scatter and
// one gather frame per member — and nothing else: the pulled model reaches
// the group through the parameter allgather, with no broadcast.
func TestHierarchicalExchangeFrames(t *testing.T) {
	const iters = 12
	cfg, _ := hierPSConfig(t)
	cfg.Train.Iterations, cfg.PSEvery = iters, 1
	store := ps.NewStore(1)
	if err := SeedStore(store, cfg.Train); err != nil {
		t.Fatal(err)
	}
	cfg.Store = store
	net, err := transport.NewLocalNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	counters := make([]*frameCounter, 4)
	meshes := make([]transport.Mesh, 4)
	for r, m := range net.Endpoints() {
		counters[r] = &frameCounter{Mesh: m, n: 2}
		meshes[r] = counters[r]
	}
	runHierWorkers(t, meshes, allReadyControllers(t, cfg.Groups), cfg)
	for gi, g := range cfg.Groups {
		var scatter, gather, other int64
		for _, r := range g.Members {
			scatter += counters[r].scatter.Load()
			gather += counters[r].gather.Load()
			other += counters[r].other.Load()
		}
		if scatter != 2*iters || gather != 2*iters || other != 0 {
			t.Errorf("group %d over %d exchange syncs: %d scatter, %d gather, %d other frames; want %d, %d, 0",
				gi, iters, scatter, gather, other, 2*iters, 2*iters)
		}
	}
	if v := store.Version(HierarchicalPSKey + "#0"); v != 1+2*iters {
		t.Errorf("chunk 0 at version %d, want %d", v, 1+2*iters)
	}
}

// TestHierarchicalOrderedLoopbackDeterministic: two ordered loopback runs
// are bitwise identical — the determinism baseline the TCP gate builds on.
func TestHierarchicalOrderedLoopbackDeterministic(t *testing.T) {
	run := func() []*Result {
		cfg, ctrls := hierPSConfig(t)
		store := ps.NewStore(1)
		if err := SeedStore(store, cfg.Train); err != nil {
			t.Fatal(err)
		}
		cfg.Store = store
		net, err := transport.NewLocalNetwork(4)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = net.Close() }()
		return runHierWorkers(t, net.Endpoints(), ctrls, cfg)
	}
	a, b := run(), run()
	for r := range a {
		for i := range a[r].Params {
			if math.Float64bits(a[r].Params[i]) != math.Float64bits(b[r].Params[i]) {
				t.Fatalf("rank %d param %d differs across identical runs", r, i)
			}
		}
	}
}
