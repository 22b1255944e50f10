package collective

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/tensor"
	"repro/internal/transport"
)

// TestProtocolViolationDetected injects an out-of-band message into the
// ring stream and checks the collective reports ErrProtocol rather than
// silently corrupting data.
func TestProtocolViolationDetected(t *testing.T) {
	net, err := transport.NewLocalNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	ep0, _ := net.Endpoint(0)
	ep1, _ := net.Endpoint(1)

	// Rank 1 sends a rogue chunk with the wrong iteration before joining.
	if err := ep1.Send(0, transport.Message{
		Type: transport.MsgChunk, Iter: 999, Chunk: 0, Payload: []float64{1},
	}); err != nil {
		t.Fatal(err)
	}
	err0Ch := make(chan error, 1)
	err1Ch := make(chan error, 1)
	go func() { err0Ch <- RingAllReduce(ep0, 1, tensor.New(2), OpSum) }()
	go func() { err1Ch <- RingAllReduce(ep1, 1, tensor.New(2), OpSum) }()
	// Rank 0 sees the rogue message first and must fail with a protocol
	// error; then unblock rank 1 (stuck in recv) by closing its endpoint.
	err0 := <-err0Ch
	_ = ep1.Close()
	<-err1Ch // rank 1 fails with a closed-mesh error; exact value untested
	if !errors.Is(err0, ErrProtocol) {
		t.Errorf("rank 0 error = %v, want ErrProtocol", err0)
	}
}

// TestRingAllReduceClosedMesh checks clean error propagation when the mesh
// dies mid-collective.
func TestRingAllReduceClosedMesh(t *testing.T) {
	net, err := transport.NewLocalNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	ep0, _ := net.Endpoint(0)
	_ = net.Close()
	if err := RingAllReduce(ep0, 0, tensor.New(4), OpSum); err == nil {
		t.Error("allreduce on closed mesh should error")
	}
	if _, err := PartialAllReduceOpts(ep0, 0, tensor.New(4), true, Options{Algorithm: AlgoRing}); err == nil {
		t.Error("partial allreduce on closed mesh should error")
	}
	if err := Broadcast(ep0, 0, tensor.New(4), 0); err == nil {
		t.Error("broadcast on closed mesh should error")
	}
}

// TestBroadcastShapeMismatch: the receiver's buffer must match the payload.
func TestBroadcastShapeMismatch(t *testing.T) {
	net, err := transport.NewLocalNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	var wg sync.WaitGroup
	var rootErr, leafErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		ep, _ := net.Endpoint(0)
		rootErr = Broadcast(ep, 0, tensor.New(4), 0)
	}()
	go func() {
		defer wg.Done()
		ep, _ := net.Endpoint(1)
		leafErr = Broadcast(ep, 0, tensor.New(3), 0) // wrong size
	}()
	wg.Wait()
	if rootErr != nil {
		t.Errorf("root error = %v", rootErr)
	}
	if leafErr == nil {
		t.Error("mismatched receiver should error")
	}
}

// TestProtocolErrorFields: a protocol violation must carry enough context to
// debug it — expected vs received iteration, tag, type, and the peer rank.
func TestProtocolErrorFields(t *testing.T) {
	net, err := transport.NewLocalNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	ep0, _ := net.Endpoint(0)
	ep1, _ := net.Endpoint(1)

	// Rank 1 injects a chunk with a stale iteration before joining.
	if err := ep1.Send(0, transport.Message{
		Type: transport.MsgChunk, Iter: 999, Chunk: 7, Payload: []float64{1},
	}); err != nil {
		t.Fatal(err)
	}
	err0Ch := make(chan error, 1)
	err1Ch := make(chan error, 1)
	go func() { err0Ch <- RingAllReduce(ep0, 3, tensor.New(2), OpSum) }()
	go func() { err1Ch <- RingAllReduce(ep1, 3, tensor.New(2), OpSum) }()
	err0 := <-err0Ch
	_ = ep1.Close()
	<-err1Ch

	var pe *ProtocolError
	if !errors.As(err0, &pe) {
		t.Fatalf("error %v does not unwrap to *ProtocolError", err0)
	}
	if !errors.Is(err0, ErrProtocol) {
		t.Errorf("ProtocolError must keep matching errors.Is(_, ErrProtocol); got %v", err0)
	}
	if pe.Op != "reduce-scatter" {
		t.Errorf("Op = %q, want %q", pe.Op, "reduce-scatter")
	}
	if pe.From != 1 {
		t.Errorf("From = %d, want 1", pe.From)
	}
	if pe.WantIter != 3 || pe.GotIter != 999 {
		t.Errorf("iter = want %d got %d; expected want 3 got 999", pe.WantIter, pe.GotIter)
	}
	if pe.GotTag != 7 {
		t.Errorf("GotTag = %d, want 7", pe.GotTag)
	}
	if pe.GotType != transport.MsgChunk {
		t.Errorf("GotType = %v, want MsgChunk", pe.GotType)
	}
	msg := pe.Error()
	for _, frag := range []string{"reduce-scatter", "iter", "tag"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("error text %q missing %q", msg, frag)
		}
	}
}

// TestProtocolErrorWrongType: a message of the wrong kind (control traffic
// leaking into a broadcast stream) is reported with both type fields set.
func TestProtocolErrorWrongType(t *testing.T) {
	net, err := transport.NewLocalNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	ep0, _ := net.Endpoint(0)
	ep1, _ := net.Endpoint(1)

	// Root's slot in rank 1's inbox gets a rogue control message.
	if err := ep0.Send(1, transport.Message{
		Type: transport.MsgControl, Iter: 0, Payload: []float64{0},
	}); err != nil {
		t.Fatal(err)
	}
	leafErr := make(chan error, 1)
	go func() {
		leafErr <- Broadcast(ep1, 0, tensor.New(1), 0)
	}()
	err1 := <-leafErr
	var pe *ProtocolError
	if !errors.As(err1, &pe) {
		t.Fatalf("error %v does not unwrap to *ProtocolError", err1)
	}
	if pe.Op != "broadcast" {
		t.Errorf("Op = %q, want %q", pe.Op, "broadcast")
	}
	if pe.WantType != transport.MsgBroadcast || pe.GotType != transport.MsgControl {
		t.Errorf("types = want %v got %v; expected MsgBroadcast/MsgControl", pe.WantType, pe.GotType)
	}

	// A broadcast frame of the right type and iteration but with a stray
	// tag (a dense broadcast never sets one) is a violation naming both.
	if err := ep0.Send(1, transport.Message{
		Type: transport.MsgBroadcast, Iter: 0, Chunk: 5, Payload: []float64{0},
	}); err != nil {
		t.Fatal(err)
	}
	go func() {
		leafErr <- Broadcast(ep1, 0, tensor.New(1), 0)
	}()
	if err1 = <-leafErr; !errors.As(err1, &pe) {
		t.Fatalf("stray-tag broadcast: error %v does not unwrap to *ProtocolError", err1)
	}
	if pe.WantTag != 0 || pe.GotTag != 5 {
		t.Errorf("tags = want %d got %d; expected 0/5", pe.WantTag, pe.GotTag)
	}
}

// hugeMesh claims a rank count whose ring tags overflow int32 and fails the
// test on any Send: the guard must fire before traffic.
type hugeMesh struct {
	transport.Mesh
	t *testing.T
}

func (h hugeMesh) Size() int { return 1<<30 + 1 }

func (h hugeMesh) Send(int, transport.Message) error {
	h.t.Error("Send before the tag-space check")
	return nil
}

// TestSegTagOverflowRejected: a rank count whose 2n ring tags exceed int32
// must fail fast with ErrTagOverflow, before any Send, instead of colliding
// tags mid-flight — for the whole ring and for each half.
func TestSegTagOverflowRejected(t *testing.T) {
	net, err := transport.NewLocalNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	ep0, _ := net.Endpoint(0)
	huge := hugeMesh{Mesh: ep0, t: t}
	for name, call := range map[string]func() error{
		"allreduce":      func() error { return RingAllReduce(huge, 0, tensor.New(8), OpSum) },
		"reduce-scatter": func() error { return RingReduceScatter(huge, 0, tensor.New(8), OpAverage) },
		"allgather":      func() error { return RingAllGather(huge, 0, tensor.New(8)) },
		"partial": func() error {
			_, err := PartialRingReduceScatter(huge, 0, tensor.New(9), 1)
			return err
		},
	} {
		if err := call(); !errors.Is(err, ErrTagOverflow) {
			t.Errorf("%s: error = %v, want ErrTagOverflow", name, err)
		}
	}
	// The largest rank count that fits passes the check.
	if err := checkTagSpace(math.MaxInt32 / 2); err != nil {
		t.Errorf("n = MaxInt32/2: %v", err)
	}
	// The guard fires before any traffic, so the mesh stays usable.
	runDone := make(chan error, 2)
	ep1, _ := net.Endpoint(1)
	go func() { runDone <- RingAllReduce(ep0, 1, tensor.New(8), OpSum) }()
	go func() { runDone <- RingAllReduce(ep1, 1, tensor.New(8), OpSum) }()
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
}
