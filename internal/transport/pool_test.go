package transport

import "testing"

func TestPoolClass(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3},
		{64, 6}, {65, 7}, {1 << 20, 20}, {1<<20 + 1, 21},
	}
	for _, c := range cases {
		if got := poolClass(c.n); got != c.want {
			t.Errorf("poolClass(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestCapClass(t *testing.T) {
	cases := []struct{ c, want int }{
		{0, -1}, {63, -1}, // below minPooledElems: not poolable
		{64, 6}, {127, 6}, {128, 7},
		{1 << 24, 24}, {1 << 25, -1}, // above maxPoolClass: not poolable
	}
	for _, c := range cases {
		if got := capClass(c.c); got != c.want {
			t.Errorf("capClass(%d) = %d, want %d", c.c, got, c.want)
		}
	}
}

func TestGetPayloadShape(t *testing.T) {
	if p := GetPayload(0); p != nil {
		t.Errorf("GetPayload(0) = %v, want nil", p)
	}
	for _, n := range []int{1, 63, 64, 65, 100, 1 << 10, 1<<10 + 1} {
		p := GetPayload(n)
		if len(p) != n {
			t.Fatalf("GetPayload(%d) len = %d", n, len(p))
		}
		if n >= minPooledElems {
			if c := cap(p); c&(c-1) != 0 {
				t.Errorf("GetPayload(%d) cap = %d, want power of two", n, c)
			}
		}
		PutPayload(p)
	}
	// Put of unpoolable slices must be a safe no-op.
	PutPayload(nil)
	PutPayload(make([]float64, 3))
}

// TestGetPutRoundTrip checks that a released buffer can serve any request
// that fits its class, at the requested length.
func TestGetPutRoundTrip(t *testing.T) {
	p := GetPayload(100) // class 7, cap 128
	for i := range p {
		p[i] = float64(i)
	}
	PutPayload(p)
	q := GetPayload(128)
	if len(q) != 128 || cap(q) < 128 {
		t.Fatalf("recycled Get len=%d cap=%d", len(q), cap(q))
	}
	PutPayload(q)
}

// TestSendDoesNotAliasPayload locks in the ownership contract for plain
// Send on every mesh: the sender keeps its buffer, so scribbling over it
// once Send returns must not reach the receiver. Payloads sit below and
// above zeroCopyMin (copied into the TCP writer's arena, or written from the
// caller's buffer itself), and one frame carries a tail.
func TestSendDoesNotAliasPayload(t *testing.T) {
	local, err := NewLocalNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = local.Close() }()
	tcp, err := NewTCPCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, m := range tcp {
			_ = m.Close()
		}
	}()
	// A SubMesh of ranks 1 and 2 on each side of a pair.
	subPair := func(a, b Mesh) (Mesh, Mesh) {
		t.Helper()
		sa, err := NewSubMesh(a, []int{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		sb, err := NewSubMesh(b, []int{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		return sa, sb
	}
	eps := local.Endpoints()
	localSub0, localSub1 := subPair(eps[1], eps[2])
	tcpSub0, tcpSub1 := subPair(tcp[1], tcp[2])
	meshes := []struct {
		name     string
		from, to Mesh // sender and receiver, local ranks 0 and 1 of their mesh
	}{
		{"in-memory", eps[0], eps[1]},
		{"in-memory stream view", eps[0].StreamView(3), eps[1].StreamView(3)},
		{"in-memory SubMesh", localSub0, localSub1},
		{"TCP", tcp[0], tcp[1]},
		{"TCP stream view", tcp[0].StreamView(3), tcp[1].StreamView(3)},
		{"TCP SubMesh", tcpSub0, tcpSub1},
	}
	payloads := []struct {
		name  string
		elems int
		tail  bool
	}{
		{"below zeroCopyMin", zeroCopyMin/8 - 1, false},
		{"above zeroCopyMin", 4 * zeroCopyMin / 8, false},
		{"with a tail", 4 * zeroCopyMin / 8, true},
	}
	for _, mc := range meshes {
		for _, pc := range payloads {
			t.Run(mc.name+"/"+pc.name, func(t *testing.T) {
				buf := make([]float64, pc.elems)
				for i := range buf {
					buf[i] = float64(i)
				}
				msg := Message{Type: MsgChunk, Payload: buf, Tail: -2, HasTail: pc.tail}
				if err := mc.from.Send(1, msg); err != nil {
					t.Fatal(err)
				}
				for i := range buf {
					buf[i] = -1 // sender scribbles over its buffer after Send
				}
				got, err := mc.to.Recv(0)
				if err != nil {
					t.Fatal(err)
				}
				want := msg.elems()
				if len(got.Payload) != want {
					t.Fatalf("received %d elems, sent %d", len(got.Payload), want)
				}
				for i, x := range got.Payload[:pc.elems] {
					if x != float64(i) {
						t.Fatalf("payload[%d] = %v after sender mutation, want %v", i, x, float64(i))
					}
				}
				if pc.tail && got.Payload[pc.elems] != -2 {
					t.Fatalf("tail = %v, want -2", got.Payload[pc.elems])
				}
				PutPayload(got.Payload)
			})
		}
	}
}
