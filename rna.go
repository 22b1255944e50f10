// Package rna is a Go implementation of RNA — Randomized Non-blocking
// AllReduce — the straggler-tolerant decentralized synchronization protocol
// of "Mitigating Stragglers in the Decentralized Training on Heterogeneous
// Clusters" (Middleware 2020), together with every substrate the paper
// depends on: a ring AllReduce collective layer over in-memory and TCP
// transports, the probe-based central controller (power-of-two-choices
// initiator selection), the cross-iteration worker runtime with
// staleness-weighted gradient accumulation, a parameter server for the
// hierarchical scheme, the baselines it is evaluated against (Horovod-style
// BSP, eager-SGD, AD-PSGD), and a deterministic virtual-time cluster
// simulator that regenerates all of the paper's tables and figures.
//
// Three entry points:
//
//   - Train / TrainCluster run real concurrent training on the goroutine
//     runtime (in-memory or TCP transport).
//   - Simulate runs a protocol on the virtual-time engine at any cluster
//     scale, returning both system metrics (per-iteration times,
//     breakdowns) and statistical metrics (loss curves, accuracy).
//   - RunExperiment reproduces a specific paper table or figure.
package rna

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/ps"
	"repro/internal/tensor"
	"repro/internal/topology"
	"repro/internal/trainsim"
	"repro/internal/transport"
)

// Strategy selects a synchronization protocol for simulation.
type Strategy = trainsim.Strategy

// The protocols under evaluation.
const (
	// Horovod is the bulk-synchronous ring AllReduce baseline.
	Horovod = trainsim.Horovod
	// RNA is the paper's randomized non-blocking AllReduce.
	RNA = trainsim.RNA
	// RNAHierarchical adds the grouped parameter-server scheme.
	RNAHierarchical = trainsim.RNAHierarchical
	// EagerSGD is the majority partial collective baseline.
	EagerSGD = trainsim.EagerSGD
	// EagerSGDSolo is eager-SGD's solo variant.
	EagerSGDSolo = trainsim.EagerSGDSolo
	// ADPSGD is asynchronous decentralized parallel SGD.
	ADPSGD = trainsim.ADPSGD
)

// SimulationConfig configures a virtual-time training run.
type SimulationConfig = trainsim.Config

// SimulationResult reports a virtual-time training run.
type SimulationResult = trainsim.Result

// Simulate executes a virtual-time training run; see trainsim.Config for
// the knobs (strategy, workers, workload, heterogeneity, termination).
func Simulate(cfg SimulationConfig) (*SimulationResult, error) {
	return trainsim.Run(cfg)
}

// TrainConfig configures a real (goroutine-runtime) training worker.
type TrainConfig = core.TrainConfig

// TrainResult reports a real training worker's outcome.
type TrainResult = core.Result

// Participation summarizes who fed the synchronizations of one AllReduce
// domain (all ranks of a flat run, or one group): the share of (rank,
// synchronization) slots filled with a null gradient, the mean number of
// contributors, the synchronizations nobody contributed to, the gradients the
// staleness bound discarded, the gradients taken by τ, the synchronizations
// published since the parameters they were computed from, and the most
// model-sized buffers, gradients and parameter versions alike, one rank's
// pool allocated.
func Participation(results []*TrainResult) string {
	var contributed, null, dropped, buffers int
	var tau []int
	for _, r := range results {
		contributed += r.Contributed
		null += r.NullContribs
		dropped += r.StaleDropped
		buffers = max(buffers, r.GradBuffers)
		if tau == nil {
			tau = make([]int, len(r.Staleness))
		}
		for i, c := range r.Staleness {
			tau[i] += c
		}
	}
	syncs := float64(contributed+null) / float64(len(results))
	return fmt.Sprintf("null share %.2f, %.2f contributors per synchronization, %d of %.0f empty, %d gradients dropped, taken by τ %v, ≤ %d model-sized buffers per rank",
		float64(null)/float64(contributed+null), float64(contributed)/syncs, results[0].EmptySyncs, syncs, dropped, tau, buffers)
}

// Policy selects the controller's trigger rule for the real runtime.
type Policy = controller.Policy

// Controller trigger policies for the real runtime.
const (
	// PolicyAllReady is the BSP barrier (Horovod semantics).
	PolicyAllReady = controller.AllReady
	// PolicyRandom probes one random worker per iteration.
	PolicyRandom = controller.RandomInitiator
	// PolicyPowerOfChoices probes q random workers (RNA's default, q=2).
	PolicyPowerOfChoices = controller.PowerOfChoices
	// PolicyMajority fires on ⌊n/2⌋+1 ready workers (eager-SGD).
	PolicyMajority = controller.Majority
	// PolicySolo fires on the first ready worker.
	PolicySolo = controller.Solo
)

// TrainCluster runs `workers` concurrent training workers in-process over
// an in-memory mesh under the given trigger policy: PolicyAllReady runs the
// BSP worker, PolicyMajority/PolicySolo run the eager-SGD worker (newest
// gradient or a stale duplicate, no accumulation), and the probe policies
// run the RNA worker (decoupled compute/communication, staleness-weighted
// accumulation). It returns one result per rank; all ranks finish with
// identical parameters.
func TrainCluster(workers, probes int, policy Policy, cfg TrainConfig) ([]*TrainResult, error) {
	if workers < 1 {
		return nil, fmt.Errorf("rna: %d workers", workers)
	}
	net, err := transport.NewLocalNetwork(workers)
	if err != nil {
		return nil, err
	}
	defer func() { _ = net.Close() }()
	return trainCluster(net.Endpoints(), probes, policy, cfg)
}

// TrainClusterTCP is TrainCluster over real localhost TCP connections.
func TrainClusterTCP(workers, probes int, policy Policy, cfg TrainConfig) ([]*TrainResult, error) {
	if workers < 1 {
		return nil, fmt.Errorf("rna: %d workers", workers)
	}
	tcp, err := transport.NewTCPCluster(workers)
	if err != nil {
		return nil, err
	}
	meshes := make([]transport.Mesh, workers)
	for i, m := range tcp {
		meshes[i] = m
		defer func() { _ = m.Close() }()
	}
	return trainCluster(meshes, probes, policy, cfg)
}

// trainCluster runs one worker per mesh under policy's controller: the BSP,
// eager-SGD or RNA worker, as TrainCluster describes.
func trainCluster(meshes []transport.Mesh, probes int, policy Policy, cfg TrainConfig) ([]*TrainResult, error) {
	ctrl, err := controller.New(policy, len(meshes), probes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return runRanks(meshes, func(mesh transport.Mesh) (*TrainResult, error) {
		switch policy {
		case controller.AllReady:
			return core.RunBSPWorker(mesh, ctrl, cfg)
		case controller.Majority, controller.Solo:
			return core.RunEagerWorker(mesh, ctrl, cfg)
		default:
			return core.RunRNAWorker(mesh, ctrl, cfg)
		}
	})
}

// runRanks runs run on every mesh concurrently and returns, once all have
// returned, their results in rank order or the lowest failing rank's error.
func runRanks[R any](meshes []transport.Mesh, run func(transport.Mesh) (R, error)) ([]R, error) {
	results := make([]R, len(meshes))
	errs := make([]error, len(meshes))
	var wg sync.WaitGroup
	for i, mesh := range meshes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = run(mesh)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rna: worker %d: %w", i, err)
		}
	}
	return results, nil
}

// ExperimentOptions tunes a paper-experiment run.
type ExperimentOptions = experiment.Options

// ExperimentReport is a rendered paper table/figure plus its key metrics.
type ExperimentReport = experiment.Report

// RunExperiment reproduces one of the paper's tables or figures by ID (see
// ExperimentIDs).
func RunExperiment(id string, opts ExperimentOptions) (*ExperimentReport, error) {
	return experiment.Run(id, opts)
}

// ExperimentIDs lists the reproducible tables and figures.
func ExperimentIDs() []string { return experiment.IDs() }

// ExperimentTitle returns the display title of an experiment ID.
func ExperimentTitle(id string) (string, error) { return experiment.Title(id) }

// ADPSGDResult reports one gossip worker's outcome on the real runtime.
type ADPSGDResult = core.ADPSGDResult

// TrainClusterADPSGD runs `workers` AD-PSGD gossip workers in-process over
// an in-memory mesh: each worker alternates local SGD with atomic pairwise
// model averaging against a random peer. Unlike the collective protocols,
// ranks end with approximately (not exactly) consensual models; use
// ConsensusModel to average them.
func TrainClusterADPSGD(workers int, cfg TrainConfig) ([]*ADPSGDResult, error) {
	if workers < 2 {
		return nil, fmt.Errorf("rna: AD-PSGD needs at least 2 workers, got %d", workers)
	}
	net, err := transport.NewLocalNetwork(workers)
	if err != nil {
		return nil, err
	}
	// runRanks returns after every worker: responders serve peers'
	// averaging requests until the mesh closes.
	defer func() { _ = net.Close() }()
	return runRanks(net.Endpoints(), func(mesh transport.Mesh) (*ADPSGDResult, error) {
		return core.RunADPSGDWorker(mesh, cfg)
	})
}

// ConsensusModel averages the final models of an AD-PSGD run.
func ConsensusModel(results []*ADPSGDResult) (tensor.Vector, error) {
	return core.ConsensusParams(results)
}

// Group is one speed-homogeneous worker group of the hierarchical scheme.
type Group = topology.Group

// PartitionWorkers applies the paper's ζ > v grouping rule to profiled
// per-task times: obs[w] holds worker w's observed step durations. See
// topology.PartitionByObservations.
func PartitionWorkers(obs [][]time.Duration) ([]Group, error) {
	return topology.PartitionByObservations(obs)
}

// TrainClusterHierarchical runs the Section 4 hierarchical scheme on the
// real runtime: each group runs RNA internally over its own sub-mesh and
// controller; periodically (every psEvery group synchronizations; 0 selects
// the default) every member exchanges its span of the group's update with a
// parameter server, and the group's parameter allgather hands all its
// members the pulled global model. The groups must partition the ranks
// 0..n−1; the server runs on rank n of the in-memory mesh.
func TrainClusterHierarchical(groups []Group, probes, psEvery int, cfg TrainConfig) ([]*TrainResult, error) {
	workers, err := partitionSize(groups)
	if err != nil {
		return nil, err
	}
	init, err := core.InitialParams(cfg)
	if err != nil {
		return nil, err
	}
	ctrls := make([]*controller.Controller, len(groups))
	for gi, g := range groups {
		ctrls[gi], err = controller.New(controller.PowerOfChoices, g.Size(), probes, cfg.Seed+int64(gi))
		if err != nil {
			return nil, err
		}
	}
	net, err := transport.NewLocalNetwork(workers + 1)
	if err != nil {
		return nil, err
	}
	meshes := net.Endpoints()
	srv, err := ps.NewServer(meshes[workers], ps.ServerConfig{Key: core.HierarchicalPSKey, Dim: len(init), Init: init})
	if err != nil {
		_ = net.Close()
		return nil, err
	}
	hcfg := core.HierarchicalConfig{Train: cfg, Groups: groups, PSEvery: psEvery, PS: &ps.ClientConfig{Servers: []int{workers}}}
	results, err := runRanks(meshes[:workers], func(mesh transport.Mesh) (*TrainResult, error) {
		return core.RunHierarchicalWorker(mesh, ctrls, hcfg)
	})
	_ = net.Close() // ends the server's handlers
	if srvErr := srv.Wait(); err == nil && srvErr != nil {
		return nil, fmt.Errorf("rna: parameter server: %w", srvErr)
	}
	return results, err
}

// partitionSize returns n, the number of ranks groups hold, when every rank
// 0..n−1 is in exactly one group.
func partitionSize(groups []Group) (int, error) {
	n := 0
	for _, g := range groups {
		n += g.Size()
	}
	if n < 1 {
		return 0, fmt.Errorf("rna: empty groups")
	}
	seen := make([]bool, n)
	for _, g := range groups {
		for _, r := range g.Members {
			if r < 0 || r >= n || seen[r] {
				return 0, fmt.Errorf("rna: groups %v do not partition ranks 0..%d", groups, n-1)
			}
			seen[r] = true
		}
	}
	return n, nil
}
