package transport

import "fmt"

// SubMesh presents a contiguous view over a subset of a parent mesh's
// ranks: local rank i maps to parent rank members[i]. Collectives run
// unmodified inside the subset — the hierarchical scheme runs one ring
// AllReduce per speed-homogeneous group this way — while the parent mesh
// remains usable for cross-group traffic on ranks outside the subset.
type SubMesh struct {
	parent  Mesh
	members []int
	local   int
}

var (
	_ Mesh        = (*SubMesh)(nil)
	_ OwnedSender = (*SubMesh)(nil)
	_ lander      = (*SubMesh)(nil)
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

// StreamView implements StreamRouter: the parent's stream view re-windowed
// to this subset, so a collective on a stream view of a SubMesh is still
// routed by the mesh that carries its frames.
func (s *SubMesh) StreamView(id int32) Mesh {
	return &SubMesh{parent: s.parent.StreamView(id), members: s.members, local: s.local}
}

// Close implements Mesh. Closing a SubMesh closes the parent endpoint,
// because the per-peer queues are shared; close only when the whole rank is
// done.
func (s *SubMesh) Close() error { return s.parent.Close() }
