package ps

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Fuzz geometry: a ragged model over a few chunks, so spans differ.
const (
	fuzzDim    = 23
	fuzzChunks = 4
)

// FuzzServerRequests drives a Server with request sequences from two client
// ranks, four bytes per request: sender, frame type (a push-pull request, an
// ack, or the push-only and pull-only types 5 and 6 earlier builds sent) and
// dtype (f64, or one of the narrower encodings earlier builds shipped); chunk
// (or a forged negative tag); update mode (Overwrite, Add, or none: 0, 4 and
// 3, the retired averaging mode) and whether to name the current
// version as the horizon; payload length (right, or off by a little). The
// horizon is never above the chunk's version, so nothing waits. Every request
// the protocol admits must be acked with the chunk's tag, its new version and
// its values — checked against a model the harness keeps with the store's own
// kernels — and every other one must end the sender's service with
// ErrBadRequest while the other rank is still served. Then the same bytes pick
// a split and deltas, and two clients exchanging complementary chunk runs
// must leave the bits one whole-vector client leaves.
func FuzzServerRequests(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 1, 2, 0, 5, 2, 1, 0, 2, 0, 0, 0})    // push-pull Add, push-pull Overwrite from rank 2, a type-6 pull
	f.Add([]byte{2, 3, 0, 0, 4, 0, 17, 0, 7, 9, 0, 0})   // a type-6 pull, push-pull Add at the horizon, an ack from rank 2
	f.Add([]byte{4, 4, 2, 0, 5, 1, 3, 0, 4, 0, 2, 1})    // chunk past the table, push-pull in the retired mode 3 from rank 2
	f.Add([]byte{0, 0x90, 1, 0, 1, 2, 4, 0, 4, 1, 0, 0}) // type-5 pushes with a negative tag and with mode 4
	f.Add([]byte{0x1a, 1, 0, 0, 3, 1, 0, 0})             // a type-6 pull asking for an f16 ack, one from rank 2
	f.Add([]byte{4, 2, 0, 0, 5, 1, 4, 0})                // push-pulls without a mode, and with mode 4
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		fuzzRequests(t, ops)
		fuzzChunkRuns(t, ops)
	})
}

// fuzzRequests is FuzzServerRequests' request phase: rank 0 serves, ranks 1
// and 2 send raw frames on the PS stream.
func fuzzRequests(t *testing.T, ops []byte) {
	net, err := transport.NewLocalNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	eps := net.Endpoints()
	init := seq(fuzzDim)
	srv, err := NewServer(eps[0], ServerConfig{Key: "m", Dim: fuzzDim, Chunks: fuzzChunks, Init: init})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			_ = net.Close()
		}
	}()
	offsets, err := collective.ShardOffsets(fuzzDim, fuzzChunks)
	if err != nil {
		t.Fatal(err)
	}
	model := init.Clone()
	versions := make([]int64, fuzzChunks)
	for c := range versions {
		versions[c] = 1
	}
	views := [2]transport.Mesh{
		eps[1].StreamView(PSStream),
		eps[2].StreamView(PSStream),
	}
	var rejected [2]bool
	for i := 0; i+4 <= len(ops); i += 4 {
		op := ops[i : i+4]
		sender := int(op[0] & 1)
		if rejected[sender] {
			continue
		}
		typ := []transport.MsgType{5, 6, transport.MsgPSPushPull, transport.MsgPSAck}[(op[0]>>1)&3]
		chunk := int(op[1]&0x7f) % (fuzzChunks + 1) // fuzzChunks is past the table
		mode := UpdateMode(op[2] % 5)               // 0, 3 (retired) and 4 are no mode
		tag := psTag(mode, chunk)
		if op[1]&0x80 != 0 {
			tag = -1 - int32(op[1]&0x7f)
		}
		valid := typ == transport.MsgPSPushPull && tag >= 0 && mode >= Overwrite && mode <= maxUpdateMode && chunk < fuzzChunks
		var dtype tensor.Dtype
		if op[0]&8 != 0 {
			dtype = tensor.Dtype(1 + (op[0]>>4)%3) // f32, f16 or i8
			valid = false
		}
		span := 0
		if chunk < fuzzChunks {
			span = offsets[chunk+1] - offsets[chunk]
		}
		length := span
		if skew := int(op[3] % 4); skew != 0 {
			valid = false
			length = max(0, length+skew-2)
			if length == span {
				length++
			}
		}
		var horizon int64
		if op[2]&0x10 != 0 && chunk < fuzzChunks {
			horizon = versions[chunk]
		}
		payload := make([]float64, length)
		for j := range payload {
			payload[j] = float64(int(op[j%4])-j) / 8
		}
		msg := transport.Message{Type: typ, Stream: PSStream, Iter: horizon, Chunk: tag, Dtype: dtype, Payload: payload}
		if err := views[sender].Send(0, msg); err != nil {
			t.Fatal(err)
		}
		if !valid {
			rejected[sender] = true
			continue
		}
		lo, hi := offsets[chunk], offsets[chunk+1]
		applyMode(model[lo:hi], payload, mode)
		versions[chunk]++
		ack := recvAck(t, views[sender])
		if ack.Type != transport.MsgPSAck || ack.Chunk != tag || ack.Iter != versions[chunk] {
			t.Fatalf("request %d (%v chunk %d): ack type %d tag %d version %d, want tag %d version %d",
				i/4, typ, chunk, ack.Type, ack.Chunk, ack.Iter, tag, versions[chunk])
		}
		want := model[lo:hi]
		if len(ack.Payload) != len(want) {
			t.Fatalf("request %d: ack of %d elems, want %d", i/4, len(ack.Payload), len(want))
		}
		for j := range want {
			if math.Float64bits(ack.Payload[j]) != math.Float64bits(want[j]) {
				t.Fatalf("request %d: chunk %d elem %d = %v, want %v", i/4, chunk, j, ack.Payload[j], want[j])
			}
		}
		transport.PutPayload(ack.Payload)
	}
	_ = net.Close()
	closed = true
	err = srv.Wait()
	if rejected[0] || rejected[1] {
		if !errors.Is(err, ErrBadRequest) {
			t.Fatalf("server stopped with %v, want ErrBadRequest", err)
		}
	} else if err != nil {
		t.Fatalf("server: %v", err)
	}
}

// applyMode is the store's combination rule over one chunk.
func applyMode(cur, pushed tensor.Vector, mode UpdateMode) {
	switch mode {
	case Overwrite:
		copy(cur, pushed)
	case Add:
		_ = tensor.SumInto(cur, cur, pushed)
	}
}

// recvAck receives the next frame on view, failing the test instead of
// hanging when the server sends none.
func recvAck(t *testing.T, view transport.Mesh) transport.Message {
	t.Helper()
	type result struct {
		msg transport.Message
		err error
	}
	got := make(chan result, 1)
	go func() {
		msg, err := view.Recv(0)
		got <- result{msg, err}
	}()
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r.msg
	case <-time.After(5 * time.Second):
		t.Fatal("no ack within 5 s")
		return transport.Message{}
	}
}

// fuzzChunkRuns is FuzzServerRequests' model phase: two clients exchanging
// chunk runs [0, split) and [split, fuzzChunks) against one server leave the
// model one client's whole-vector exchanges leave against another.
func fuzzChunkRuns(t *testing.T, ops []byte) {
	split := 0
	if len(ops) > 0 {
		split = int(ops[0]) % (fuzzChunks + 1)
	}
	init := seq(fuzzDim)
	cfg := ServerConfig{Key: "m", Dim: fuzzDim, Chunks: fuzzChunks, Init: init}
	ccfg := ClientConfig{Servers: []int{0}, Key: "m", Dim: fuzzDim, Chunks: fuzzChunks}
	runs, err := transport.NewLocalNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := transport.NewLocalNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	var waits []*Server
	for _, net := range []*transport.LocalNetwork{runs, whole} {
		srv, err := NewServer(net.Endpoints()[0], cfg)
		if err != nil {
			t.Fatal(err)
		}
		waits = append(waits, srv)
	}
	defer func() {
		_ = runs.Close()
		_ = whole.Close()
		for _, s := range waits {
			if err := s.Wait(); err != nil {
				t.Errorf("server: %v", err)
			}
		}
	}()
	var members [2]*Client
	for i := range members {
		if members[i], err = NewClient(runs.Endpoints()[i+1], ccfg); err != nil {
			t.Fatal(err)
		}
	}
	one, err := NewClient(whole.Endpoints()[1], ccfg)
	if err != nil {
		t.Fatal(err)
	}
	offsets, _ := one.ChunkOffsets()
	base, out := init.Clone(), init.Clone()
	delta := tensor.New(fuzzDim)
	for round := 0; round < 3; round++ {
		latest := base.Clone()
		for i := range latest {
			b := byte(round)
			if len(ops) > 0 {
				b = ops[(i+round)%len(ops)]
			}
			latest[i] += float64(int(b)-128) / 64
		}
		for i, run := range [][2]int{{0, split}, {split, fuzzChunks}} {
			lo, hi := offsets[run[0]], offsets[run[1]]
			if _, err := members[i].PushPullDeltaChunks(run[0], run[1], base[lo:hi], base[lo:hi], latest[lo:hi], 0); err != nil {
				t.Fatal(err)
			}
		}
		_ = tensor.DiffInto(delta, latest, out)
		if _, err := one.PushPullInto(out, delta, Add, 0); err != nil {
			t.Fatal(err)
		}
	}
	stored, _ := storedModel(t, waits[0].Store(), "m", fuzzChunks)
	for i := range out {
		if math.Float64bits(stored[i]) != math.Float64bits(out[i]) || math.Float64bits(base[i]) != math.Float64bits(out[i]) {
			t.Fatalf("split %d elem %d: chunk runs leave %v (stored %v), one client %v", split, i, base[i], stored[i], out[i])
		}
	}
}
