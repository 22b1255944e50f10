package ps

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/race"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// intoStores builds the two GlobalStore implementations over a model seeded
// with init: the in-process loopback and a client of a one-server TCP mesh.
func intoStores(t *testing.T, init tensor.Vector) map[string]GlobalStore {
	t.Helper()
	store := NewStore(1)
	if _, err := store.Push("m", init, Overwrite); err != nil {
		t.Fatal(err)
	}
	meshes, err := transport.NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	eps := []transport.Mesh{meshes[0], meshes[1]}
	wait := startServers(t, eps, []int{1}, ServerConfig{Key: "m", Dim: len(init), Init: init})
	t.Cleanup(func() {
		for _, m := range meshes {
			_ = m.Close()
		}
		wait()
	})
	cli, err := NewClient(eps[0], ClientConfig{Servers: []int{1}, Key: "m", Dim: len(init)})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]GlobalStore{"loopback": Loopback(store, "m"), "client": cli}
}

// TestPushPullIntoMatchesPushPull: the Into form leaves in the caller's
// buffer the bits PushPull returns, at the same version, on both stores;
// a mis-sized buffer is refused.
func TestPushPullIntoMatchesPushPull(t *testing.T) {
	const dim = 4099
	delta := seq(dim)
	delta.Scale(0.125)
	for name, gs := range intoStores(t, seq(dim)) {
		want, v1, err := gs.PushPull(delta, Add, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The same delta again moves the model by the same amount.
		if err := want.Add(delta); err != nil {
			t.Fatal(err)
		}
		out := tensor.New(dim)
		out.Fill(math.NaN())
		v2, err := gs.PushPullInto(out, delta, Add, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v2 != v1+1 {
			t.Errorf("%s: versions %d then %d", name, v1, v2)
		}
		for i := range want {
			if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: out[%d] = %v, want %v", name, i, out[i], want[i])
			}
		}
		if _, err := gs.PushPullInto(tensor.New(dim-1), delta, Add, 0); !errors.Is(err, tensor.ErrShapeMismatch) {
			t.Errorf("%s: short output buffer: %v", name, err)
		}
	}
}

// TestClientPullInto: PullInto fills the caller's buffer with what Pull
// returns.
func TestClientPullInto(t *testing.T) {
	const dim = 300
	cli := intoStores(t, seq(dim))["client"].(*Client)
	want, v1, err := cli.Pull()
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.New(dim)
	v2, err := cli.PullInto(out)
	if err != nil || v2 != v1 {
		t.Fatalf("PullInto: version %d (Pull saw %d), %v", v2, v1, err)
	}
	for i := range want {
		if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
			t.Fatalf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	if _, err := cli.PullInto(tensor.New(dim + 1)); !errors.Is(err, tensor.ErrShapeMismatch) {
		t.Errorf("long output buffer: %v", err)
	}
}

// TestPushPullIntoAllocs: an exchange into a persistent buffer allocates
// less than dim bytes — an eighth of the model-sized vector PushPull
// returns — on the loopback and, client and server sides together, over TCP.
func TestPushPullIntoAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const dim, rounds = 1 << 16, 20
	delta := seq(dim)
	out := tensor.New(dim)
	for name, gs := range intoStores(t, seq(dim)) {
		exchange := func() {
			if _, err := gs.PushPullInto(out, delta, Add, 0); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		for i := 0; i < 5; i++ {
			exchange() // warm the payload pools and the store's publish buffers
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			exchange()
		}
		runtime.ReadMemStats(&after)
		per := float64(after.TotalAlloc-before.TotalAlloc) / rounds
		t.Logf("%s: %.0f bytes per exchange at dim %d", name, per, dim)
		if per >= dim {
			t.Errorf("%s: %.0f bytes allocated per exchange, want < dim = %d", name, per, dim)
		}
	}
}
