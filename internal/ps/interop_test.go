package ps

import (
	"math"
	"testing"

	"repro/internal/tensor"
	"repro/internal/transport"
)

// TestServerAndLoopbackShareStore: a Loopback over a Store holding the model
// under one key and a Client of a Server holding it in 3 chunks agree bit for
// bit, value and version, on every whole-key PushPull of a sequence of Add and
// Overwrite exchanges — the comparison the benchmark's parameter-server probe
// makes between the in-process store and the wire.
func TestServerAndLoopbackShareStore(t *testing.T) {
	const dim, chunks = 101, 3
	init := seq(dim)
	meshes, err := transport.NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	eps := []transport.Mesh{meshes[0], meshes[1]}
	wait := startServers(t, eps, []int{1}, ServerConfig{Key: "m", Dim: dim, Chunks: chunks, Init: init})
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
	store := NewStore(2)
	if _, err := store.Push("m", init, Overwrite); err != nil {
		t.Fatal(err)
	}
	loop := Loopback(store, "m")
	for round := 0; round < 6; round++ {
		value := tensor.New(dim)
		for i := range value {
			value[i] = math.Cos(float64(3*i+round)) * 0.05
		}
		mode := Add
		if round == 3 {
			mode = Overwrite
		}
		got, ver, err := cli.PushPull(value, mode, int64(round+1))
		if err != nil {
			t.Fatal(err)
		}
		want, wantVer, err := loop.PushPull(value, mode, int64(round+1))
		if err != nil {
			t.Fatal(err)
		}
		if ver != int64(round+2) || wantVer != ver {
			t.Errorf("round %d: client at version %d, loopback at %d, want %d", round, ver, wantVer, round+2)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("round %d: client [%d] = %v, loopback %v", round, i, got[i], want[i])
			}
		}
	}
}
