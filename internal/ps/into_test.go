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
// with init: the in-process loopback (whole key and default chunk layout) and
// a client of a one-server TCP mesh.
func intoStores(t *testing.T, init tensor.Vector) map[string]GlobalStore {
	t.Helper()
	store := NewStore(1)
	if _, err := store.Push("m", init, Overwrite); err != nil {
		t.Fatal(err)
	}
	if err := Seed(store, ServerConfig{Key: "m", Dim: len(init), Init: init}); err != nil {
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

// TestPushPullDeltaChunksMatchesPushPullInto: a member's exchange, latest −
// base formed chunk by chunk in out over a run of chunks and the result landed
// over it, leaves in out the bits and the version of forming the delta whole
// and calling PushPullInto, on both stores, when runs that partition the
// chunks (one of them empty) exchange in turn; whether out is latest, base or
// a span of its own, and nothing but out is written. A mis-sized out, base or
// latest and a range outside the table are refused.
func TestPushPullDeltaChunksMatchesPushPullInto(t *testing.T) {
	const dim = 4099
	for _, into := range []string{"latest", "base", "separate"} {
		pairs := map[string][2]GlobalStore{}
		for name, gs := range intoStores(t, seq(dim)) {
			pairs[name] = [2]GlobalStore{gs}
		}
		for name, gs := range intoStores(t, seq(dim)) {
			p := pairs[name]
			p[1] = gs
			pairs[name] = p
		}
		for name, p := range pairs {
			name := name + "/out=" + into
			offsets, err := p[1].ChunkOffsets()
			if err != nil {
				t.Fatal(err)
			}
			chunks := len(offsets) - 1
			if chunks != DefaultChunks || offsets[chunks] != dim {
				t.Fatalf("%s: chunk table %v", name, offsets)
			}
			runs := [][2]int{{0, 3}, {3, 3}, {3, chunks}}
			base := seq(dim)
			want := base.Clone()
			for round := 0; round < 3; round++ {
				latest := base.Clone()
				for i := range latest {
					latest[i] += math.Sin(float64(i+round)) * 0.01
				}
				delta := tensor.New(dim)
				if err := tensor.DiffInto(delta, latest, want); err != nil {
					t.Fatal(err)
				}
				wantVer, err := p[0].PushPullInto(want, delta, Add, 0)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				out := tensor.New(dim)
				out.Fill(math.NaN())
				switch into {
				case "latest":
					out = latest
				case "base":
					out = base
				}
				baseBefore, latestBefore := base.Clone(), latest.Clone()
				for _, run := range runs {
					lo, hi := offsets[run[0]], offsets[run[1]]
					ver, err := p[1].PushPullDeltaChunks(run[0], run[1], out[lo:hi], base[lo:hi], latest[lo:hi], 0)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if run[0] == run[1] {
						if ver != 0 {
							t.Errorf("%s round %d: empty run at version %d", name, round, ver)
						}
					} else if ver != wantVer {
						t.Errorf("%s round %d chunks %v: version %d, want %d", name, round, run, ver, wantVer)
					}
				}
				for i := range want {
					if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s round %d: out[%d] = %v, want %v", name, round, i, out[i], want[i])
					}
					if into != "base" && math.Float64bits(base[i]) != math.Float64bits(baseBefore[i]) {
						t.Fatalf("%s round %d: base[%d] written", name, round, i)
					}
					if into != "latest" && math.Float64bits(latest[i]) != math.Float64bits(latestBefore[i]) {
						t.Fatalf("%s round %d: latest[%d] written", name, round, i)
					}
				}
				base = out
			}
			span := base[:offsets[1]]
			short := tensor.New(offsets[1] - 1)
			for i, args := range [][3]tensor.Vector{{short, span, span}, {span, short, span}, {span, span, short}} {
				if _, err := p[1].PushPullDeltaChunks(0, 1, args[0], args[1], args[2], 0); !errors.Is(err, tensor.ErrShapeMismatch) {
					t.Errorf("%s: short %s: %v", name, []string{"out", "base", "latest"}[i], err)
				}
			}
			if _, err := p[1].PushPullDeltaChunks(chunks, chunks+1, nil, nil, nil, 0); err == nil {
				t.Errorf("%s: a range past the table was accepted", name)
			}
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
// returns — on the loopback and, client and server sides together, over TCP;
// so does the chunk exchange of a member's delta, whose chunks are formed in
// the caller's out and sent from there.
func TestPushPullIntoAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const dim, rounds = 1 << 16, 20
	delta := seq(dim)
	out := tensor.New(dim)
	for name, gs := range intoStores(t, seq(dim)) {
		for _, form := range []string{"into", "delta"} {
			name := name + "/" + form
			exchange := func() {
				var err error
				if form == "into" {
					_, err = gs.PushPullInto(out, delta, Add, 0)
				} else {
					_, err = gs.PushPullDeltaChunks(0, DefaultChunks, out, out, delta, 0)
				}
				if err != nil {
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
}
