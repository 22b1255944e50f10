package ps

import (
	"math"
	"testing"

	"repro/internal/transport"
)

// TestServerAndLoopbackShareStore: a Server and a Loopback over one Store
// serve the same chunks. The loopback reads the server's layout (3 chunks,
// not the default), and chunk exchanges through the server's client and
// through the loopback interleave — the two owning complementary runs, then
// swapping — with every chunk's version advancing by one per exchange and the
// bits of the same sequence run against a loopback alone.
func TestServerAndLoopbackShareStore(t *testing.T) {
	const dim, chunks = 101, 3
	init := seq(dim)
	store := NewStore(2)
	meshes, err := transport.NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	eps := []transport.Mesh{meshes[0], meshes[1]}
	wait := startServers(t, eps, []int{1}, ServerConfig{Key: "m", Dim: dim, Chunks: chunks, Init: init, Store: store})
	defer func() {
		for _, m := range meshes {
			_ = m.Close()
		}
		wait()
	}()
	cli, err := NewClient(eps[0], ClientConfig{Servers: []int{1}, Key: "m", Dim: dim, Chunks: chunks})
	if err != nil {
		t.Fatal(err)
	}
	shared := Loopback(store, "m")
	offsets, err := shared.ChunkOffsets()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := cli.ChunkOffsets()
	for c := range want {
		if len(offsets) != len(want) || offsets[c] != want[c] {
			t.Fatalf("loopback reads chunk table %v, server serves %v", offsets, want)
		}
	}

	refStore := NewStore(1)
	if err := Seed(refStore, ServerConfig{Key: "m", Dim: dim, Chunks: chunks, Init: init}); err != nil {
		t.Fatal(err)
	}
	ref := Loopback(refStore, "m")

	// Each side keeps its own baseline, as a group member does.
	base, refBase := init.Clone(), init.Clone()
	runs := [][2]int{{0, 1}, {1, chunks}}
	for round := 0; round < 6; round++ {
		latest := base.Clone()
		for i := range latest {
			latest[i] += math.Cos(float64(3*i+round)) * 0.05
		}
		for i, run := range runs {
			side := []GlobalStore{cli, shared}[(round+i)%2]
			lo, hi := offsets[run[0]], offsets[run[1]]
			ver, err := side.PushPullDeltaChunks(run[0], run[1], base[lo:hi], base[lo:hi], latest[lo:hi], int64(round+1))
			if err != nil {
				t.Fatal(err)
			}
			refVer, err := ref.PushPullDeltaChunks(run[0], run[1], refBase[lo:hi], refBase[lo:hi], latest[lo:hi], 0)
			if err != nil {
				t.Fatal(err)
			}
			if ver != int64(round+2) || refVer != ver {
				t.Errorf("round %d chunks %v: version %d (alone: %d), want %d", round, run, ver, refVer, round+2)
			}
		}
		for i := range base {
			if math.Float64bits(base[i]) != math.Float64bits(refBase[i]) {
				t.Fatalf("round %d: base[%d] = %v, alone %v", round, i, base[i], refBase[i])
			}
		}
	}
	// The store holds the result under the server's keys, which the client
	// pulls.
	pulled, ver, err := cli.Pull()
	if err != nil {
		t.Fatal(err)
	}
	if ver != 7 {
		t.Errorf("pulled version %d, want 7", ver)
	}
	if !pulled.Equal(base, 0) {
		t.Error("the client pulls a model other than the exchanges left")
	}
}
