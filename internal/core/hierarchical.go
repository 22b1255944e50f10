package core

import (
	"errors"
	"fmt"

	"repro/internal/collective"
	"repro/internal/controller"
	"repro/internal/ps"
	"repro/internal/tensor"
	"repro/internal/topology"
	"repro/internal/transport"
)

// HierarchicalConfig configures one worker of the hierarchical scheme
// (Section 4) on the goroutine runtime: speed-homogeneous groups each run
// RNA internally; periodically every member of a group exchanges the span of
// the model it owns with a shared parameter server, and the group's parameter
// allgather then ships the pulled global model.
type HierarchicalConfig struct {
	// Train carries the per-worker training configuration. A group always
	// runs the owner-computes update on the ring pair, so Algorithm must be
	// AlgoAuto (ErrHierarchicalSchedule).
	Train TrainConfig
	// Groups partitions the worker ranks (e.g. from
	// topology.PartitionByObservations). Every worker rank must appear
	// exactly once; PS server ranks (see PS) appear in no group.
	Groups []topology.Group
	// PS is the parameter-server client every group member speaks the PS
	// wire protocol with; it is required. Key defaults to
	// HierarchicalPSKey and Dim to the model dimension; each member keeps
	// Window/n requests in flight (at least one) for a group of n, so a
	// group keeps one client's. The server ranks must run ps.NewServer on
	// the same mesh with matching geometry, seeded with InitialParams, and
	// must not be members of any group.
	PS *ps.ClientConfig
	// PSEvery is the PS exchange period in group synchronizations
	// (default 4).
	PSEvery int
	// OrderedPS imposes a deterministic global exchange order: group g's
	// r-th PS exchange waits until the global model's version reaches
	// 1 + r·G + g (G = len(Groups)), so every run — in memory or over
	// TCP — applies the identical operation sequence and finals are
	// bitwise reproducible at f64. Requires every group to perform the
	// same number of exchanges (equal Iterations and PSEvery).
	OrderedPS bool
}

// ErrHierarchicalSchedule is returned for a hierarchical configuration that
// pins the group's schedule: a group member always runs the owner-computes
// update on the ring pair, because the span it exchanges is the span it owns.
var ErrHierarchicalSchedule = errors.New("core: a hierarchical group runs the owner-computes ring pair; Algorithm cannot be set")

// errNoPS is returned for a hierarchical configuration without a PS client.
var errNoPS = errors.New("core: a hierarchical configuration needs a parameter server (PS)")

// HierarchicalPSKey is the key holding the hierarchical global model: the
// PS server's ServerConfig.Key, and a member's ClientConfig.Key by default.
const HierarchicalPSKey = "hierarchical-global"

func (c *HierarchicalConfig) psEvery() int {
	if c.PSEvery < 1 {
		return 4
	}
	return c.PSEvery
}

// InitialParams returns the deterministic initial global model the
// hierarchical scheme starts from, the vector its ps.Server is seeded with
// (ServerConfig.Init).
func InitialParams(cfg TrainConfig) (tensor.Vector, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("core: nil model")
	}
	params, _ := cfg.newRank(0)
	return params, nil
}

// groupOf finds the group containing the global rank.
func groupOf(groups []topology.Group, rank int) (int, *topology.Group, error) {
	for gi := range groups {
		for _, m := range groups[gi].Members {
			if m == rank {
				return gi, &groups[gi], nil
			}
		}
	}
	return 0, nil, fmt.Errorf("core: rank %d not in any group", rank)
}

// client builds a member's PS client from cfg.PS; n is the member's group
// size, which splits the request window.
func (c *HierarchicalConfig) client(mesh transport.Mesh, n int) (*ps.Client, error) {
	ccfg := *c.PS
	if ccfg.Key == "" {
		ccfg.Key = HierarchicalPSKey
	}
	if ccfg.Dim == 0 {
		ccfg.Dim = c.Train.Model.Dim()
	}
	if ccfg.Window < 1 {
		ccfg.Window = ps.DefaultWindow
	}
	ccfg.Window = max(1, ccfg.Window/n)
	return ps.NewClient(mesh, ccfg)
}

// RunHierarchicalWorker trains one rank of a hierarchical cluster. All
// ranks share one mesh; each group's RNA traffic runs over a SubMesh of its
// members, with its own controller (ctrls[gi], sized to the group). Every
// member runs the owner-computes update over the parameter server's chunk
// table and owns a run of its chunks; on an exchange synchronization it
// pushes its span's delta since its last pull and pulls its span of the
// global model from the PS server ranks, between its optimizer step and the
// parameter allgather, which then hands the group the whole pulled model.
func RunHierarchicalWorker(mesh transport.Mesh, ctrls []*controller.Controller, cfg HierarchicalConfig) (*Result, error) {
	if cfg.PS == nil {
		return nil, errNoPS
	}
	if cfg.Train.Algorithm != collective.AlgoAuto {
		return nil, ErrHierarchicalSchedule
	}
	if err := cfg.Train.validate(); err != nil {
		return nil, err
	}
	gi, group, err := groupOf(cfg.Groups, mesh.Rank())
	if err != nil {
		return nil, err
	}
	if gi >= len(ctrls) || ctrls[gi] == nil {
		return nil, fmt.Errorf("core: no controller for group %d", gi)
	}
	sub, err := transport.NewSubMesh(mesh, group.Members)
	if err != nil {
		return nil, err
	}
	client, err := cfg.client(mesh, sub.Size())
	if err != nil {
		return nil, err
	}
	ex, err := newPSExchange(client, &cfg, gi, sub)
	if err != nil {
		return nil, err
	}
	res, err := runRNA(sub, ctrls[gi], cfg.Train, ex)
	if err != nil {
		return nil, fmt.Errorf("group %d: %w", gi, err)
	}
	return res, nil
}

// exchanger is a hierarchical member's share of the parameter-server
// exchange. The owner-computes update (shardedReducer) owns the parameters by
// its table and, on the synchronizations due, runs exchange on the span it
// owns between the optimizer step and the parameter allgather.
type exchanger interface {
	// table is the ownership table over the parameters (nil: uniform).
	table() []int
	// seed takes the first exchange's baseline from the initial parameters.
	seed(initial tensor.Vector)
	// due reports whether synchronization k exchanges.
	due(k int64) bool
	// exchange sends latest, the owned span, to the parameter server and
	// writes the pulled span to out, the version under construction;
	// published is the owned span of the published version, which is not
	// written. latest may be out or published.
	exchange(k int64, published, latest, out tensor.Vector) error
}

// psExchange is the exchanger over a ps.Client. Ownership follows the
// server's chunk table: part i of a group of n is the chunk run
// tensor.ChunkBounds(C, n, i) of the server's C chunks, so member r, which
// the ring pair makes the owner of part (r+1) mod n, exchanges whole chunks.
type psExchange struct {
	client      *ps.Client
	owners      []int // n+1 parameter offsets, from the chunk table
	first, last int   // the member's chunk run
	lo, hi      int   // its parameter span
	// base is the span as of the member's last pull (the initial parameters
	// before the first), the next delta's baseline. At period 1 that is the
	// published version's span, which no step has moved since, and base is nil.
	base tensor.Vector

	period        int64
	ordered       bool
	groups, group int64
	done          int64 // exchanges completed
}

func newPSExchange(client *ps.Client, cfg *HierarchicalConfig, gi int, sub transport.Mesh) (*psExchange, error) {
	offsets, err := client.ChunkOffsets()
	if err != nil {
		return nil, err
	}
	chunks, dim := len(offsets)-1, cfg.Train.Model.Dim()
	if offsets[chunks] != dim {
		return nil, fmt.Errorf("core: parameter server holds %d elements, model has %d", offsets[chunks], dim)
	}
	n := sub.Size()
	e := &psExchange{
		client: client, owners: make([]int, n+1), period: int64(cfg.psEvery()),
		ordered: cfg.OrderedPS, groups: int64(len(cfg.Groups)), group: int64(gi),
	}
	for i := 0; i < n; i++ {
		first, _, _ := tensor.ChunkBounds(chunks, n, i)
		e.owners[i] = offsets[first]
	}
	e.owners[n] = dim
	e.first, e.last, _ = tensor.ChunkBounds(chunks, n, (sub.Rank()+1)%n)
	e.lo, e.hi = offsets[e.first], offsets[e.last]
	return e, nil
}

func (e *psExchange) table() []int { return e.owners }

func (e *psExchange) seed(initial tensor.Vector) {
	if e.period > 1 {
		e.base = initial[e.lo:e.hi].Clone()
	}
}

func (e *psExchange) due(k int64) bool { return (k+1)%e.period == 0 }

// exchange pushes latest − baseline over the member's chunks, the delta
// formed in out, and lands the pulled chunks in out, the version under
// construction; a kept base is refreshed from it. Under OrderedPS the
// member's r-th exchange waits for version 1 + r·G + g on each of its chunks:
// the seed publish is version 1, and every group's exchange advances every
// chunk once, whichever member sends it.
func (e *psExchange) exchange(_ int64, published, latest, out tensor.Vector) error {
	var minVersion int64
	if e.ordered {
		minVersion = 1 + e.done*e.groups + e.group
	}
	base := e.base
	if base == nil {
		base = published
	}
	if _, err := e.client.PushPullDeltaChunks(e.first, e.last, out, base, latest, minVersion); err != nil {
		return err
	}
	e.done++
	copy(e.base, out) // a kept baseline is the pull
	return nil
}
