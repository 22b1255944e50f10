package ps

import (
	"math"
	"sync"
	"testing"

	"repro/internal/tensor"
	"repro/internal/transport"
)

// startServers runs NewServer on each server endpoint and returns a Wait
// that propagates handler errors after the meshes close.
func startServers(t *testing.T, meshes []transport.Mesh, servers []int, cfg ServerConfig) func() {
	t.Helper()
	waits := make([]*Server, 0, len(servers))
	for _, r := range servers {
		srv, err := NewServer(meshes[r], cfg)
		if err != nil {
			t.Fatal(err)
		}
		waits = append(waits, srv)
	}
	return func() {
		for _, s := range waits {
			if err := s.Wait(); err != nil {
				t.Errorf("server: %v", err)
			}
		}
	}
}

// storedModel reads the model store holds under key's chunks, the layout a
// Server lays out: the chunks' values in order and the least of their
// versions.
func storedModel(t *testing.T, store *Store, key string, chunks int) (tensor.Vector, int64) {
	t.Helper()
	var model tensor.Vector
	version := int64(math.MaxInt64)
	for _, k := range chunkKeys(key, chunks) {
		v, ver, err := store.Pull(k)
		if err != nil {
			t.Fatal(err)
		}
		model = append(model, v...)
		version = min(version, ver)
	}
	return model, version
}

func seq(dim int) tensor.Vector {
	v := tensor.New(dim)
	for i := range v {
		v[i] = float64(i%17) - 3.5
	}
	return v
}

func TestClientServerInMemory(t *testing.T) {
	const dim = 100
	net, err := transport.NewLocalNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	eps := net.Endpoints()
	init := seq(dim)
	srv, err := NewServer(eps[1], ServerConfig{Key: "m", Dim: dim, Init: init})
	if err != nil {
		t.Fatal(err)
	}

	cli, err := NewClient(eps[0], ClientConfig{Servers: []int{1}, Key: "m", Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	// The server holds the seeded model at version 1.
	got, ver := storedModel(t, srv.Store(), "m", DefaultChunks)
	if ver != 1 {
		t.Errorf("stored version = %d, want 1", ver)
	}
	for i := range got {
		if got[i] != init[i] {
			t.Fatalf("stored[%d] = %v, want %v", i, got[i], init[i])
		}
	}
	// PushPull(Add) returns init+delta at version 2, bit-identical to the
	// whole-vector op.
	delta := seq(dim)
	delta.Scale(0.25)
	got, ver, err = cli.PushPull(delta, Add, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 2 {
		t.Errorf("push-pull version = %d, want 2", ver)
	}
	want := init.Clone()
	if err := want.Add(delta); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("push-pull[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// PushPull(Overwrite) returns and leaves the pushed model at version 3.
	got, ver, err = cli.PushPull(init, Overwrite, 0)
	if err != nil || ver != 3 {
		t.Fatalf("push-pull overwrite: ver %d, %v", ver, err)
	}
	stored, storedVer := storedModel(t, srv.Store(), "m", DefaultChunks)
	if storedVer != 3 {
		t.Errorf("stored version after overwrite = %d, want 3", storedVer)
	}
	for i := range init {
		if got[i] != init[i] || stored[i] != init[i] {
			t.Fatalf("overwritten model [%d]: returned %v, stored %v, want %v", i, got[i], stored[i], init[i])
		}
	}
	_ = net.Close()
	if err := srv.Wait(); err != nil {
		t.Errorf("server: %v", err)
	}
}

func TestClientServerTCPMultiServer(t *testing.T) {
	const dim = 257 // odd: uneven chunk spans
	meshes, err := transport.NewTCPCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]transport.Mesh, len(meshes))
	for i, m := range meshes {
		eps[i] = m
	}
	init := seq(dim)
	scfg := ServerConfig{Key: "m", Dim: dim, Chunks: 6, Init: init}
	wait := startServers(t, eps, []int{1, 2}, scfg)

	cli, err := NewClient(eps[0], ClientConfig{Servers: []int{1, 2}, Key: "m", Dim: dim, Chunks: 6, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	delta := seq(dim)
	delta.Scale(0.5)
	got, ver, err := cli.PushPull(delta, Add, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 2 {
		t.Errorf("version = %d, want 2", ver)
	}
	for i := range got {
		want := init[i] + delta[i]
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("sum[%d] = %v, want %v", i, got[i], want)
		}
	}
	for _, m := range meshes {
		_ = m.Close()
	}
	wait()
}

// TestNetworkedOrderedExchanges: two clients with interlocking version
// horizons produce a deterministic global operation order over the network,
// exactly like applySnap's minVersion in process.
func TestNetworkedOrderedExchanges(t *testing.T) {
	const dim = 32
	net, err := transport.NewLocalNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	eps := net.Endpoints()
	init := tensor.New(dim)
	wait := startServers(t, eps, []int{2}, ServerConfig{Key: "m", Dim: dim, Init: init})

	const rounds = 4
	results := make([][]tensor.Vector, 2)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli, err := NewClient(eps[g], ClientConfig{Servers: []int{2}, Key: "m", Dim: dim})
			if err != nil {
				t.Error(err)
				return
			}
			one := tensor.New(dim)
			one.Fill(1)
			for r := 0; r < rounds; r++ {
				// Exchange i = r*2+g must see version 1+i and publish 2+i.
				min := int64(1 + r*2 + g)
				out, ver, err := cli.PushPull(one, Add, min)
				if err != nil {
					t.Error(err)
					return
				}
				if ver != min+1 {
					t.Errorf("client %d round %d: version %d, want %d", g, r, ver, min+1)
				}
				results[g] = append(results[g], out)
			}
		}()
	}
	wg.Wait()
	// Exchange i leaves the model at (i+1)·ones regardless of scheduling.
	for g := 0; g < 2; g++ {
		for r := 0; r < rounds; r++ {
			want := float64(r*2 + g + 1)
			if got := results[g][r][dim-1]; got != want {
				t.Errorf("client %d round %d saw %v, want %v", g, r, got, want)
			}
		}
	}
	_ = net.Close()
	wait()
}
