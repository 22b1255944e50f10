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
// Send: the sender keeps its buffer, so mutating it after Send must not be
// visible to the receiver.
func TestSendDoesNotAliasPayload(t *testing.T) {
	net, err := NewLocalNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	ep0, _ := net.Endpoint(0)
	ep1, _ := net.Endpoint(1)

	buf := make([]float64, 100)
	for i := range buf {
		buf[i] = float64(i)
	}
	if err := ep0.Send(1, Message{Type: MsgChunk, Payload: buf}); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = -1 // sender scribbles over its buffer after Send
	}
	msg, err := ep1.Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range msg.Payload {
		if x != float64(i) {
			t.Fatalf("payload[%d] = %v after sender mutation, want %v", i, x, float64(i))
		}
	}
	PutPayload(msg.Payload)
}

// TestSendOwnedTransfersBuffer: the in-memory mesh must deliver the very
// buffer passed to SendOwned, with no copy in between.
func TestSendOwnedTransfersBuffer(t *testing.T) {
	net, err := NewLocalNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	ep0, _ := net.Endpoint(0)
	ep1, _ := net.Endpoint(1)

	buf := GetPayload(100)
	for i := range buf {
		buf[i] = float64(2 * i)
	}
	if err := SendOwned(ep0, 1, Message{Type: MsgChunk, Payload: buf}); err != nil {
		t.Fatal(err)
	}
	msg, err := ep1.Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Payload) != 100 || &msg.Payload[0] != &buf[0] {
		t.Fatalf("SendOwned copied the payload (got len %d)", len(msg.Payload))
	}
	PutPayload(msg.Payload)
}

// TestSendOwnedFallback: the generic SendOwned helper must work (and release
// the buffer) on meshes without a native ownership-transfer path.
func TestSendOwnedFallback(t *testing.T) {
	net, err := NewLocalNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	ep0, _ := net.Endpoint(0)
	ep1, _ := net.Endpoint(1)

	buf := GetPayload(64)
	for i := range buf {
		buf[i] = float64(i)
	}
	// copyOnlyMesh hides the OwnedSender capability.
	if err := SendOwned(copyOnlyMesh{ep0}, 1, Message{Type: MsgChunk, Payload: buf}); err != nil {
		t.Fatal(err)
	}
	msg, err := ep1.Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range msg.Payload {
		if x != float64(i) {
			t.Fatalf("payload[%d] = %v, want %v", i, x, float64(i))
		}
	}
	PutPayload(msg.Payload)
}

// copyOnlyMesh wraps a Mesh and exposes only the base interface, so the
// SendOwned helper must take its copying fallback.
type copyOnlyMesh struct{ m Mesh }

func (c copyOnlyMesh) Rank() int                      { return c.m.Rank() }
func (c copyOnlyMesh) Size() int                      { return c.m.Size() }
func (c copyOnlyMesh) Send(to int, m Message) error   { return c.m.Send(to, m) }
func (c copyOnlyMesh) Recv(from int) (Message, error) { return c.m.Recv(from) }
func (c copyOnlyMesh) Close() error                   { return c.m.Close() }
func (c copyOnlyMesh) StreamView(id int32) Mesh       { return c.m.StreamView(id) }
