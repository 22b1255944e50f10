package transport

import (
	"fmt"
	"sync"
)

// SubMesh presents a contiguous view over a subset of a parent mesh's
// ranks: local rank i maps to parent rank members[i]. Collectives run
// unmodified inside the subset — the hierarchical scheme runs one ring
// AllReduce per speed-homogeneous group this way — while the parent mesh
// remains usable for cross-group traffic on ranks outside the subset.
type SubMesh struct {
	parent  Mesh
	members []int
	local   int

	// demuxOnce/demux back StreamView when the parent lacks native stream
	// routing.
	demuxOnce sync.Once
	demux     *StreamDemux
}

var (
	_ Mesh         = (*SubMesh)(nil)
	_ OwnedSender  = (*SubMesh)(nil)
	_ StreamRouter = (*SubMesh)(nil)
	_ lander       = (*SubMesh)(nil)
)

// NewSubMesh wraps parent so that only `members` (distinct parent ranks,
// one of which must be the parent's own rank) are visible. Traffic from
// parent ranks outside the subset is NOT filtered — the caller must
// partition message kinds so group traffic and cross-group traffic cannot
// interleave on the same peer pairs.
func NewSubMesh(parent Mesh, members []int) (*SubMesh, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("transport: empty submesh")
	}
	seen := make(map[int]bool, len(members))
	local := -1
	for i, m := range members {
		if m < 0 || m >= parent.Size() {
			return nil, fmt.Errorf("transport: member %d outside parent size %d", m, parent.Size())
		}
		if seen[m] {
			return nil, fmt.Errorf("transport: duplicate member %d", m)
		}
		seen[m] = true
		if m == parent.Rank() {
			local = i
		}
	}
	if local < 0 {
		return nil, fmt.Errorf("transport: parent rank %d not in submesh %v", parent.Rank(), members)
	}
	out := &SubMesh{parent: parent, members: append([]int(nil), members...), local: local}
	return out, nil
}

// Rank implements Mesh (the local rank within the subset).
func (s *SubMesh) Rank() int { return s.local }

// Size implements Mesh (the subset size).
func (s *SubMesh) Size() int { return len(s.members) }

// Parent returns the wrapped mesh.
func (s *SubMesh) Parent() Mesh { return s.parent }

// GlobalRank maps a local rank to the parent rank.
func (s *SubMesh) GlobalRank(local int) (int, error) {
	if local < 0 || local >= len(s.members) {
		return 0, fmt.Errorf("transport: local rank %d of %d", local, len(s.members))
	}
	return s.members[local], nil
}

// Send implements Mesh.
func (s *SubMesh) Send(to int, m Message) error {
	g, err := s.GlobalRank(to)
	if err != nil {
		return err
	}
	return s.parent.Send(g, m)
}

// SendOwned implements OwnedSender by delegating to the parent's
// ownership-transfer path (or the copying fallback when the parent lacks
// one). Either way the caller relinquishes m.Payload.
func (s *SubMesh) SendOwned(to int, m Message) error {
	g, err := s.GlobalRank(to)
	if err != nil {
		PutPayload(m.Payload)
		return err
	}
	return SendOwned(s.parent, g, m)
}

// Recv implements Mesh.
func (s *SubMesh) Recv(from int) (Message, error) {
	g, err := s.GlobalRank(from)
	if err != nil {
		return Message{}, err
	}
	return s.parent.Recv(g)
}

// recvInto implements lander: the parent lands the frame when it can.
func (s *SubMesh) recvInto(from int, l Landing) (Message, bool, error) {
	g, err := s.GlobalRank(from)
	if err != nil {
		return Message{}, false, err
	}
	return recvLanding(s.parent, g, l)
}

// StreamView implements StreamRouter. When the parent routes streams
// natively (TCPMesh, or another SubMesh over one), the view is the parent's
// native stream re-windowed to this subset — so a collective on a stream
// view of a SubMesh still demultiplexes in the transport, one frame-header
// compare per message. A wrapper demux over a native parent would deadlock
// instead: the parent files stream frames under its own per-stream queues,
// so the wrapper's parent.Recv (stream 0) would never observe them.
// Non-native parents get a lazily created cooperative demux over this
// SubMesh.
func (s *SubMesh) StreamView(id int32) Mesh {
	if sr, ok := s.parent.(StreamRouter); ok {
		view, err := NewSubMesh(sr.StreamView(id), s.members)
		if err == nil {
			return view
		}
		// Unreachable in practice: members were validated against this same
		// parent geometry at construction. Fall through to the demux.
	}
	s.demuxOnce.Do(func() { s.demux = NewStreamDemux(s) })
	return s.demux.Stream(id)
}

// Close implements Mesh. Closing a SubMesh closes the parent endpoint,
// because the per-peer queues are shared; close only when the whole rank is
// done.
func (s *SubMesh) Close() error { return s.parent.Close() }
