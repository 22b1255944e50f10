package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/controller"
	"repro/internal/ps"
	"repro/internal/tensor"
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
// the global exchange order, so two runs differ only in the mesh the
// members reach the parameter server over.
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
// hierPSConfig, in memory and over TCP alike, recorded when a group leader still
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
// the same run against a PS rank of the in-memory mesh over the same chunks.
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
					resA := runHier(t, memMeshes(t, workers+1), groups, chunks, every)
					resB := runHier(t, tcpMeshes(t, workers+1), groups, chunks, every)
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
	meshes := memMeshes(t, 5)
	startPS(t, &cfg, meshes, 0)
	init, err := InitialParams(cfg.Train)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := transport.NewSubMesh(meshes[0], hierPSGroups[0].Members)
	if err != nil {
		t.Fatal(err)
	}
	for _, every := range []int{1, 4} {
		cfg.PSEvery = every
		client, err := cfg.client(meshes[0], sub.Size())
		if err != nil {
			t.Fatal(err)
		}
		e, err := newPSExchange(client, &cfg, 0, sub)
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

// memMeshes returns the n endpoints of an in-memory mesh.
func memMeshes(t *testing.T, n int) []transport.Mesh {
	t.Helper()
	net, err := transport.NewLocalNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	return net.Endpoints()
}

// tcpMeshes returns the n endpoints of a localhost TCP mesh.
func tcpMeshes(t *testing.T, n int) []transport.Mesh {
	t.Helper()
	tcp, err := transport.NewTCPCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	meshes := make([]transport.Mesh, n)
	for i, m := range tcp {
		meshes[i] = m
	}
	return meshes
}

// startPS starts a PS server on the last of meshes, seeded with cfg.Train's
// initial model in chunks chunks (0: the default), and points cfg.PS at it.
// When t ends, every mesh closes and a protocol error the server saw fails t.
func startPS(t *testing.T, cfg *HierarchicalConfig, meshes []transport.Mesh, chunks int) *ps.Server {
	t.Helper()
	rank := len(meshes) - 1
	closeAll := func() {
		for _, m := range meshes {
			_ = m.Close()
		}
	}
	init, err := InitialParams(cfg.Train)
	if err != nil {
		closeAll()
		t.Fatal(err)
	}
	srv, err := ps.NewServer(meshes[rank], ps.ServerConfig{Key: HierarchicalPSKey, Dim: len(init), Init: init, Chunks: chunks})
	if err != nil {
		closeAll()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		closeAll()
		if err := srv.Wait(); err != nil {
			t.Errorf("ps server: %v", err)
		}
	})
	cfg.PS = &ps.ClientConfig{Servers: []int{rank}, Chunks: chunks}
	return srv
}

// runHier runs hierPSConfig over groups at PSEvery every on all but the last
// of meshes, the last serving the model in chunks chunks. The exchanges
// really go through the server: every chunk advances past its seed version.
func runHier(t *testing.T, meshes []transport.Mesh, groups []topology.Group, chunks, every int) []*Result {
	t.Helper()
	cfg, _ := hierPSConfig(t)
	cfg.Groups, cfg.PSEvery = groups, every
	srv := startPS(t, &cfg, meshes, chunks)
	res := runHierWorkers(t, meshes[:len(meshes)-1], allReadyControllers(t, groups), cfg)
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
				t.Fatalf("rank %d param %d: in memory %v vs tcp %v", r, i, a[r].Params[i], b[r].Params[i])
			}
		}
		if len(a[r].Losses) != len(b[r].Losses) {
			t.Fatalf("rank %d: %d vs %d loss samples", r, len(a[r].Losses), len(b[r].Losses))
		}
		for i := range a[r].Losses {
			if math.Float64bits(a[r].Losses[i]) != math.Float64bits(b[r].Losses[i]) {
				t.Fatalf("rank %d loss %d: in memory %v vs tcp %v", r, i, a[r].Losses[i], b[r].Losses[i])
			}
		}
	}
}

// frameCounter is a Mesh that counts the frames its rank sends, by kind:
// the ring pair's scatter and gather frames, parameter-server frames on
// ps.PSStream, and anything else.
type frameCounter struct {
	transport.Mesh
	n                          int32 // group size: the ring pair's tag split
	scatter, gather, ps, other atomic.Int64
}

func (c *frameCounter) Send(to int, m transport.Message) error {
	c.count(m)
	return c.Mesh.Send(to, m)
}

func (c *frameCounter) count(m transport.Message) {
	switch {
	case m.Stream == ps.PSStream:
		c.ps.Add(1)
	case m.Type == transport.MsgChunk && m.Chunk < c.n:
		c.scatter.Add(1)
	case m.Type == transport.MsgChunk && m.Chunk < 2*c.n:
		c.gather.Add(1)
	default:
		c.other.Add(1)
	}
}

// StreamView counts what the view sends too: the parameter-server client
// sends on a view of its mesh.
func (c *frameCounter) StreamView(id int32) transport.Mesh {
	return streamCounter{Mesh: c.Mesh.StreamView(id), c: c}
}

type streamCounter struct {
	transport.Mesh
	c *frameCounter
}

func (s streamCounter) Send(to int, m transport.Message) error {
	s.c.count(m)
	return s.Mesh.Send(to, m)
}

// TestHierarchicalExchangeFrames: with an exchange at every synchronization,
// a two-member group sends exactly the ring pair's frames — one scatter and
// one gather frame per member — and, on ps.PSStream, one request per chunk of
// each member's run, and nothing else: the pulled model reaches the group
// through the parameter allgather, with no broadcast.
func TestHierarchicalExchangeFrames(t *testing.T) {
	const iters = 12
	cfg, _ := hierPSConfig(t)
	cfg.Train.Iterations, cfg.PSEvery = iters, 1
	meshes := memMeshes(t, 5)
	srv := startPS(t, &cfg, meshes, 0)
	counters := make([]*frameCounter, 4)
	workers := make([]transport.Mesh, 4)
	for r := range workers {
		counters[r] = &frameCounter{Mesh: meshes[r], n: 2}
		workers[r] = counters[r]
	}
	runHierWorkers(t, workers, allReadyControllers(t, cfg.Groups), cfg)
	for gi, g := range cfg.Groups {
		var scatter, gather, other int64
		for i, r := range g.Members {
			scatter += counters[r].scatter.Load()
			gather += counters[r].gather.Load()
			other += counters[r].other.Load()
			first, last, _ := tensor.ChunkBounds(ps.DefaultChunks, len(g.Members), (i+1)%len(g.Members))
			if got, want := counters[r].ps.Load(), int64(iters*(last-first)); got != want {
				t.Errorf("rank %d over %d exchange syncs: %d PS frames, want %d (chunks [%d, %d) each)", r, iters, got, want, first, last)
			}
		}
		if scatter != 2*iters || gather != 2*iters || other != 0 {
			t.Errorf("group %d over %d exchange syncs: %d scatter, %d gather, %d other frames; want %d, %d, 0",
				gi, iters, scatter, gather, other, 2*iters, 2*iters)
		}
	}
	if v := srv.Store().Version(HierarchicalPSKey + "#0"); v != 1+2*iters {
		t.Errorf("chunk 0 at version %d, want %d", v, 1+2*iters)
	}
}

// TestHierarchicalOrderedLoopbackDeterministic: two ordered runs against a PS
// rank of the in-memory mesh are bitwise identical — the determinism
// baseline the TCP gate builds on.
func TestHierarchicalOrderedLoopbackDeterministic(t *testing.T) {
	a := runHier(t, memMeshes(t, 5), hierPSGroups, 0, 2)
	b := runHier(t, memMeshes(t, 5), hierPSGroups, 0, 2)
	for r := range a {
		for i := range a[r].Params {
			if math.Float64bits(a[r].Params[i]) != math.Float64bits(b[r].Params[i]) {
				t.Fatalf("rank %d param %d differs across identical runs", r, i)
			}
		}
	}
}
