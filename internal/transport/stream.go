package transport

// Tag streams.
//
// A mesh delivers one FIFO per (peer, stream). Plain Send/Recv speak stream
// 0, which is exactly right for one collective at a time; concurrent users
// of one mesh each take their own stream, so two in-flight exchanges never
// steal each other's messages. The parameter-server client shares a mesh
// with the collectives this way (ps.PSStream). The id travels in the
// Message.Stream field (a header field of the v1 frame), so the full int64
// iteration space belongs to the collective.
//
// The mesh that carries the frames routes them: the in-memory mesh files
// each message under (sender, stream) as it is sent, and the TCP mesh files
// each frame under its header's stream id as it leaves the socket (see
// TCPMesh). No wrapper layer and no second set of queues exists, so a raw
// Recv and any number of stream views may run side by side.

// StreamRouter is the part of Mesh that hands out stream views: StreamView
// returns a Mesh whose traffic travels on logical stream id (id ≥ 0), fully
// isolated from other streams' traffic on the same mesh. Stream 0 is the
// stream plain Send/Recv already speak.
type StreamRouter interface {
	StreamView(id int32) Mesh
}

// streamMesh is a mesh that routes its own streams: what a streamView needs
// of the endpoint it views.
type streamMesh interface {
	Mesh
	// receive returns the next message rank `from` sent on stream; with a
	// Landing (see land.go) the mesh lands the frame when it can, and landed
	// reports that msg is the frame's header, its body in l.Dst.
	receive(from int, stream int32, l *Landing) (msg Message, landed bool, err error)
}

// streamView is one logical stream's view of a mesh, for either mesh.
// Views are cheap and stateless.
type streamView struct {
	m  streamMesh
	id int32
}

var (
	_ Mesh   = (*streamView)(nil)
	_ lander = (*streamView)(nil)
)

func (s *streamView) Rank() int { return s.m.Rank() }
func (s *streamView) Size() int { return s.m.Size() }

// Send stamps the view's stream id on the message and delivers it.
func (s *streamView) Send(to int, msg Message) error {
	msg.Stream = s.id
	return s.m.Send(to, msg)
}

// Recv returns the next message rank `from` sent on this stream.
func (s *streamView) Recv(from int) (Message, error) {
	msg, _, err := s.m.receive(from, s.id, nil)
	return msg, err
}

// recvInto implements lander on the view's stream.
func (s *streamView) recvInto(from int, l Landing) (Message, bool, error) {
	return s.m.receive(from, s.id, &l)
}

// StreamView implements StreamRouter: stream ids name streams of the
// underlying mesh, whichever view asks.
func (s *streamView) StreamView(id int32) Mesh { return s.m.StreamView(id) }

// Close closes the underlying mesh (all streams share its lifecycle).
func (s *streamView) Close() error { return s.m.Close() }
