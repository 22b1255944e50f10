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

	ctrl, err := controller.New(policy, workers, probes, cfg.Seed)
	if err != nil {
		return nil, err
	}

	results := make([]*TrainResult, workers)
	errs := make([]error, workers)
	done := make(chan int)
	for i, mesh := range net.Endpoints() {
		i, mesh := i, mesh
		go func() {
			results[i], errs[i] = runWorker(mesh, ctrl, policy, cfg)
			done <- i
		}()
	}
	for range results {
		<-done
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rna: worker %d: %w", i, err)
		}
	}
	return results, nil
}

// runWorker dispatches a rank to the worker implementation matching the
// trigger policy.
func runWorker(mesh transport.Mesh, ctrl *controller.Controller, policy Policy, cfg TrainConfig) (*TrainResult, error) {
	switch policy {
	case controller.AllReady:
		return core.RunBSPWorker(mesh, ctrl, cfg)
	case controller.Majority, controller.Solo:
		return core.RunEagerWorker(mesh, ctrl, cfg)
	default:
		return core.RunRNAWorker(mesh, ctrl, cfg)
	}
}

// TrainClusterTCP is TrainCluster over real localhost TCP connections.
func TrainClusterTCP(workers, probes int, policy Policy, cfg TrainConfig) ([]*TrainResult, error) {
	if workers < 1 {
		return nil, fmt.Errorf("rna: %d workers", workers)
	}
	meshes, err := transport.NewTCPCluster(workers)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, m := range meshes {
			_ = m.Close()
		}
	}()

	ctrl, err := controller.New(policy, workers, probes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	results := make([]*TrainResult, workers)
	errs := make([]error, workers)
	done := make(chan int)
	for i, mesh := range meshes {
		i, mesh := i, mesh
		go func() {
			results[i], errs[i] = runWorker(mesh, ctrl, policy, cfg)
			done <- i
		}()
	}
	for range results {
		<-done
	}
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
	results := make([]*ADPSGDResult, workers)
	errs := make([]error, workers)
	done := make(chan int)
	for i, mesh := range net.Endpoints() {
		i, mesh := i, mesh
		go func() {
			results[i], errs[i] = core.RunADPSGDWorker(mesh, cfg)
			done <- i
		}()
	}
	for range results {
		<-done
	}
	// Close only after every worker returned: responders serve peers'
	// averaging requests until the mesh closes.
	_ = net.Close()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rna: worker %d: %w", i, err)
		}
	}
	return results, nil
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
// shared parameter server, and the group's parameter allgather hands all its
// members the pulled global model.
func TrainClusterHierarchical(groups []Group, probes, psEvery int, cfg TrainConfig) ([]*TrainResult, error) {
	workers := 0
	for _, g := range groups {
		workers += g.Size()
	}
	if workers < 1 {
		return nil, fmt.Errorf("rna: empty groups")
	}
	net, err := transport.NewLocalNetwork(workers)
	if err != nil {
		return nil, err
	}
	defer func() { _ = net.Close() }()

	store := ps.NewStore(1)
	if err := core.SeedStore(store, cfg); err != nil {
		return nil, err
	}
	ctrls := make([]*controller.Controller, len(groups))
	for gi, g := range groups {
		ctrls[gi], err = controller.New(controller.PowerOfChoices, g.Size(), probes, cfg.Seed+int64(gi))
		if err != nil {
			return nil, err
		}
	}
	hcfg := core.HierarchicalConfig{Train: cfg, Groups: groups, Store: store, PSEvery: psEvery}

	results := make([]*TrainResult, workers)
	errs := make([]error, workers)
	done := make(chan int)
	for i, mesh := range net.Endpoints() {
		i, mesh := i, mesh
		go func() {
			results[i], errs[i] = core.RunHierarchicalWorker(mesh, ctrls, hcfg)
			done <- i
		}()
	}
	for range results {
		<-done
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rna: worker %d: %w", i, err)
		}
	}
	return results, nil
}
