package ps

import (
	"errors"
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
	wait := startServers(t, eps, []int{1}, ServerConfig{Key: "m", Dim: dim, Init: init})

	cli, err := NewClient(eps[0], ClientConfig{Servers: []int{1}, Key: "m", Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	// Pull returns the seeded model at version 1.
	got, ver, err := cli.Pull()
	if err != nil {
		t.Fatal(err)
	}
	if ver != 1 {
		t.Errorf("pulled version = %d, want 1", ver)
	}
	for i := range got {
		if got[i] != init[i] {
			t.Fatalf("pulled[%d] = %v, want %v", i, got[i], init[i])
		}
	}
	// PushPull(Add) returns init+delta at version 2, bit-identical to the
	// whole-vector loopback op.
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
	// Push(Overwrite) then Pull round-trips.
	if _, err := cli.Push(init, Overwrite); err != nil {
		t.Fatal(err)
	}
	got, ver, err = cli.Pull()
	if err != nil || ver != 3 {
		t.Fatalf("pull after push: ver %d, %v", ver, err)
	}
	if got[7] != init[7] {
		t.Errorf("overwritten model diverged: %v vs %v", got[7], init[7])
	}
	_ = net.Close()
	wait()
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
	got, ver, err := cli.PushPull(delta, Average, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 2 {
		t.Errorf("version = %d, want 2", ver)
	}
	for i := range got {
		want := (init[i] + delta[i]) / 2
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("avg[%d] = %v, want %v", i, got[i], want)
		}
	}
	for _, m := range meshes {
		_ = m.Close()
	}
	wait()
}

// TestClientServerCompressedParity: an f16 exchange over the in-memory mesh
// and over TCP produce bit-identical results — the in-memory transport
// simulates the same quantize→dequantize round trip the wire performs, and
// both EF residuals live outside the transport.
func TestClientServerCompressedParity(t *testing.T) {
	const dim = 96
	run := func(mkMeshes func() ([]transport.Mesh, func())) []tensor.Vector {
		eps, closeAll := mkMeshes()
		init := seq(dim)
		wait := startServers(t, eps, []int{1}, ServerConfig{Key: "m", Dim: dim, Init: init})
		cli, err := NewClient(eps[0], ClientConfig{Servers: []int{1}, Key: "m", Dim: dim, Wire: tensor.F16})
		if err != nil {
			t.Fatal(err)
		}
		var outs []tensor.Vector
		for k := 0; k < 3; k++ {
			delta := seq(dim)
			delta.Scale(0.1 * float64(k+1))
			out, _, err := cli.PushPull(delta, Add, 0)
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, out)
		}
		closeAll()
		wait()
		return outs
	}
	mem := run(func() ([]transport.Mesh, func()) {
		net, err := transport.NewLocalNetwork(2)
		if err != nil {
			t.Fatal(err)
		}
		return net.Endpoints(), func() { _ = net.Close() }
	})
	tcp := run(func() ([]transport.Mesh, func()) {
		meshes, err := transport.NewTCPCluster(2)
		if err != nil {
			t.Fatal(err)
		}
		eps := make([]transport.Mesh, len(meshes))
		for i, m := range meshes {
			eps[i] = m
		}
		return eps, func() {
			for _, m := range meshes {
				_ = m.Close()
			}
		}
	})
	for k := range mem {
		for i := range mem[k] {
			if math.Float64bits(mem[k][i]) != math.Float64bits(tcp[k][i]) {
				t.Fatalf("exchange %d elem %d: mem %v vs tcp %v", k, i, mem[k][i], tcp[k][i])
			}
		}
	}
	// The EF carry keeps the compressed chain close to the exact one.
	exact := seq(dim)
	for k := 0; k < 3; k++ {
		d := seq(dim)
		d.Scale(0.1 * float64(k+1))
		if err := exact.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	final := mem[len(mem)-1]
	for i := range exact {
		if diff := math.Abs(final[i] - exact[i]); diff > 0.05*(math.Abs(exact[i])+1) {
			t.Fatalf("EF drift at %d: %v vs %v", i, final[i], exact[i])
		}
	}
}

func TestClientPullUnknownKey(t *testing.T) {
	net, err := transport.NewLocalNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	eps := net.Endpoints()
	wait := startServers(t, eps, []int{1}, ServerConfig{Key: "m", Dim: 16}) // no Init
	cli, err := NewClient(eps[0], ClientConfig{Servers: []int{1}, Key: "m", Dim: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cli.Pull(); !errors.Is(err, ErrUnknownKey) {
		t.Errorf("pull of unseeded key = %v, want ErrUnknownKey", err)
	}
	_ = net.Close()
	wait()
}

// TestNetworkedOrderedExchanges: two clients with interlocking version
// horizons produce a deterministic global operation order over the network,
// exactly like Store.PushPullLease's minVersion in process.
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
