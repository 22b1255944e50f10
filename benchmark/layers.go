package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/topology"
)

// layerStats derives the in-situ per-layer metrics of a traced repetition
// from its spans, and checks that the parts sum: on every rank the spans a
// step (or a sync) contains must not cover more than the step (or sync)
// itself, within 2 %.
//
// The identity, on the compute-and-sync path of a BSP rank:
//
//	core.step = model.gradient + hetero.injected + hetero.oversleep
//	          + transport.send + transport.recv_wait + core.residual
//
// core.residual is what no wrapper covers: the controller barrier, fold
// arithmetic, the optimizer and the loop itself. The pipelined ring sends
// from a goroutine of its own while the worker blocks in Recv, so send and
// recv spans overlap in time: the identity takes their union (the time the
// rank spent in the transport at all), and send_ms and recv_wait_ms are each
// reported whole. An RNA rank runs compute and communication on separate
// goroutines, so there the step holds only the first three parts plus its
// residual (snapshot copy, accumulator, bound wait), and the transport union
// is checked against the communication path instead.
func layerStats(d *repData) (*insitu, error) {
	s := d.spec
	m := map[string]float64{}
	n := map[string]int{}

	var steps, syncs, grads, leaderSyncs []float64 // ms, all ranks pooled
	var stepSum, gradSum, injSum, overSum, sendSum, recvSum, psSum, unionSum float64
	var msgs, wire float64
	var nSteps int
	var elapsed []float64
	for r, rec := range d.recs {
		var rankStep, rankCompute, rankComm float64
		for k := range rec.stamps {
			end := rec.end
			if k+1 < len(rec.stamps) {
				end = rec.stamps[k+1]
			}
			steps = append(steps, ms(end-rec.stamps[k]))
			rankStep += ms(end - rec.stamps[k])
		}
		nSteps += len(rec.stamps)
		for _, sp := range rec.compute {
			dur := ms(sp.End - sp.Start)
			rankCompute += dur
			switch sp.Kind {
			case kGradient:
				grads = append(grads, dur)
				gradSum += dur
			case kSleep:
				injSum += ms(sp.Arg)
				overSum += dur - ms(sp.Arg)
			}
		}
		leader := r == s.groups[0].members[0]
		var first, last int64
		var prevIter, prevStart int64 = -1, 0
		var psFrom, psTo int64 // the exchange in progress: first PS frame start, last PS frame end
		for i, sp := range rec.comm {
			dur := ms(sp.End - sp.Start)
			if i == 0 {
				first = sp.Start
			}
			// rankComm is the union of the spans: overlap counts once.
			if from := max(sp.Start, last); sp.End > from {
				rankComm += ms(sp.End - from)
				last = sp.End
			}
			switch sp.Kind {
			case kSend, kBcastSend:
				sendSum += dur
			case kRecv, kBcastRecv:
				recvSum += dur
			case kPSSend, kPSRecv:
				if psTo == 0 {
					psFrom = sp.Start
				}
				psTo = sp.End
			}
			if sp.Kind == kSend || sp.Kind == kBcastSend || sp.Kind == kPSSend {
				msgs++
				wire += float64(sp.Arg)
			}
			// A sync starts at the rank's first collective frame of
			// iteration k and lasts until its first frame of k+1.
			if (sp.Kind == kSend || sp.Kind == kRecv) && sp.Iter > prevIter {
				if prevIter >= 0 {
					syncs = append(syncs, ms(sp.Start-prevStart))
					if leader {
						leaderSyncs = append(leaderSyncs, ms(sp.Start-prevStart))
					}
				}
				prevIter, prevStart = sp.Iter, sp.Start
				if leader {
					psSum += ms(psTo - psFrom)
				}
				psFrom, psTo = 0, 0
			}
		}
		if leader {
			psSum += ms(psTo - psFrom)
		}
		elapsed = append(elapsed, d.results[r].Elapsed.Seconds())
		unionSum += rankComm

		covered, whole := rankCompute, rankStep
		if s.bsp() {
			covered += rankComm
		} else if path := ms(last - first); rankComm > 1.02*path {
			return nil, fmt.Errorf("rank %d: mesh spans cover %.3f ms of a %.3f ms communication path", r, rankComm, path)
		}
		if covered > 1.02*whole {
			return nil, fmt.Errorf("rank %d: parts cover %.3f ms of %.3f ms of steps", r, covered, whole)
		}
		stepSum += rankStep
	}

	total := float64(s.totalSyncs())
	perRankSync := 0.0 // Σ over ranks of the syncs each took part in
	for _, g := range s.groups {
		perRankSync += float64(g.syncs * len(g.members))
	}
	m["transport.send_ms_per_sync"] = sendSum / perRankSync
	m["transport.recv_wait_ms_per_sync"] = recvSum / perRankSync
	m["transport.msgs_per_sync"] = msgs / total
	m["transport.bytes_per_sync"] = wire / total
	// Group A's leader exchanges once a sync (PSEvery=1); an exchange lasts
	// from its first PS frame entering the mesh to its last ack leaving it.
	m["ps.leader_ms_per_exchange"] = psSum / float64(s.groups[0].syncs)

	var contributed, null float64
	for _, res := range d.results {
		contributed += float64(res.Contributed)
		null += float64(res.NullContribs)
	}
	m["controller.null_contrib_share"] = null / (contributed + null)
	m["controller.contributors_per_sync"] = contributed / total

	m["core.step_ms_p50"], m["core.step_ms_p99"] = percentile(steps, 50), percentile(steps, 99)
	m["core.sync_ms_p50"], m["core.sync_ms_p99"] = percentile(syncs, 50), percentile(syncs, 99)
	n["core.step_ms_p50"], n["core.step_ms_p99"] = len(steps), len(steps)
	n["core.sync_ms_p50"], n["core.sync_ms_p99"] = len(syncs), len(syncs)
	m["model.gradient_ms_p50"] = percentile(grads, 50)
	n["model.gradient_ms_p50"] = len(grads)

	covered := gradSum + injSum + overSum
	if s.bsp() {
		covered += unionSum
	}
	m["core.residual_ms_per_step"] = (stepSum - covered) / float64(nSteps)
	m["core.residual_share"] = (stepSum - covered) / stepSum
	m["hetero.injected_ms_per_step"] = injSum / float64(nSteps)
	m["hetero.oversleep_ms_per_step"] = overSum / float64(nSteps)

	// Steady-state allocation, process-wide: from the last rank passing its
	// warm-up step to the last worker returning.
	steady := total - float64(len(s.groups))
	m["core.allocs_per_sync"] = float64(d.mem1.Mallocs-d.mem0.Mallocs) / steady
	m["core.alloc_bytes_per_sync"] = float64(d.mem1.TotalAlloc-d.mem0.TotalAlloc) / steady
	m["core.rank_elapsed_spread"] = (percentile(elapsed, 100) - percentile(elapsed, 0)) / percentile(elapsed, 50)

	out := &insitu{Metrics: m, Counts: n}
	out.stressChecks(s, stressInputs{
		stepMs:     stepSum / float64(nSteps),
		gradientMs: gradSum / float64(nSteps),
		criticalMs: criticalInjected(d),
		groupASync: percentile(leaderSyncs, 50),
	})
	return out, nil
}

// insitu is what a traced repetition reports beside its end-to-end numbers.
type insitu struct {
	Metrics map[string]float64 `json:"metrics"`
	// Counts holds the sample count behind each percentile metric.
	Counts map[string]int `json:"counts"`
	Stress []stressCheck  `json:"stress"`
}

// stressCheck states whether the traced pass shows a workload stressing what
// it was chosen for. The checks judge the benchmark's definition, not the
// program: a later optimisation may legitimately move one, so they fail only
// the -traced command and never a run's `correct`.
type stressCheck struct {
	Met  bool   `json:"met"`
	Text string `json:"text"`
}

func (c stressCheck) String() string {
	if c.Met {
		return "stress ok      " + c.Text
	}
	return "stress NOT MET " + c.Text
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// criticalInjected is the injected delay on a step's critical path, per
// step. BSP ranks move in lockstep, so step k lasts as long as its slowest
// rank's delay and the critical share is the per-step maximum over ranks;
// RNA ranks wait for nobody, so it is each rank's own delay.
func criticalInjected(d *repData) float64 {
	byIter := map[int64]float64{}
	var sum float64
	var n int
	for _, rec := range d.recs {
		n += len(rec.stamps)
		for _, sp := range rec.compute {
			if sp.Kind != kSleep {
				continue
			}
			if d.spec.bsp() {
				byIter[sp.Iter] = max(byIter[sp.Iter], ms(sp.Arg))
			} else {
				sum += ms(sp.Arg)
			}
		}
	}
	if d.spec.bsp() {
		for _, v := range byIter {
			sum += v * ranks
		}
	}
	return sum / float64(n)
}

// checkPartition feeds the observed step times of a hierarchical run to the
// paper's grouping rule and requires it to recover the workload's groups.
func checkPartition(d *repData) error {
	obs := make([][]time.Duration, ranks)
	for r, rec := range d.recs {
		for k := 1; k < len(rec.stamps); k++ {
			obs[r] = append(obs[r], time.Duration(rec.stamps[k]-rec.stamps[k-1]))
		}
	}
	got, err := topology.PartitionByObservations(obs)
	if err != nil {
		return err
	}
	var want, have []string
	for _, g := range d.spec.groups {
		want = append(want, fmt.Sprint(g.members))
	}
	for _, g := range got {
		have = append(have, fmt.Sprint(g.Members))
	}
	if strings.Join(want, " ") != strings.Join(have, " ") {
		return fmt.Errorf("topology: observed step times partition into %v, workload groups are %v", have, want)
	}
	return nil
}

// stressInputs are the per-step means the stress checks compare against.
type stressInputs struct {
	stepMs, gradientMs, criticalMs, groupASync float64
}

func (o *insitu) check(met bool, format string, args ...any) {
	o.Stress = append(o.Stress, stressCheck{Met: met, Text: fmt.Sprintf(format, args...)})
}

func (o *insitu) stressChecks(s *spec, in stressInputs) {
	l := o.Metrics
	switch s.name {
	case "hetero_rna", "hetero_bsp":
		share := in.criticalMs / in.stepMs
		o.check(share >= 0.70, "injected delay on the critical path is %.0f%% of a step (>= 70%%)", 100*share)
	case "dense_bsp":
		share := (l["transport.send_ms_per_sync"] + l["transport.recv_wait_ms_per_sync"]) / in.stepMs
		o.check(share >= 1.0/3, "transport+collective time is %.0f%% of a step (>= 33%%)", 100*share)
	case "latency_bsp":
		share := in.gradientMs / in.stepMs
		o.check(share <= 1.0/3, "model gradient is %.0f%% of a step (<= 33%%)", 100*share)
	case "hier_ps":
		share := l["ps.leader_ms_per_exchange"] / in.groupASync
		o.check(share >= 0.25, "PS exchange is %.0f%% of group A's median sync (>= 25%%)", 100*share)
	}
	if s.bsp() {
		null := l["controller.null_contrib_share"]
		o.check(null == 0, "null contribution share is %g on a BSP workload (exactly 0)", null)
	}
}

// traceDir is where a traced repetition leaves its spans, relative to the
// checkout root the benchmark is run from.
const traceDir = "benchmark/out"

// traceFileSyncs bounds how much of a repetition goes to the trace file:
// latency_bsp records about a million spans, and the first syncs show who
// waited for whom as well as all of them do. Metrics use every span.
const traceFileSyncs = 256

// traceFile is the on-disk form of one traced repetition.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Host     hostInfo           `json:"host"`
	Note     string             `json:"note"`
	Columns  []string           `json:"columns"`
	Layers   map[string]float64 `json:"layers"`
	Spans    [][]any            `json:"spans"`
}

// writeTrace writes benchmark/out/trace_<workload>.json: one row per span,
// (rank, iter, layer, name, start_ns, end_ns, arg), times relative to the
// first worker launch, rows of one synchronization sharing `iter`.
func writeTrace(dir string, d *repData, seed int64, layers map[string]float64) (string, error) {
	tf := traceFile{
		Workload: d.spec.name, Seed: seed, Host: host(),
		Note:    fmt.Sprintf("spans of the first %d iterations of every rank; layers summarises all of them; arg is wire bytes of a frame or requested ns of a sleep", traceFileSyncs),
		Columns: []string{"rank", "iter", "layer", "name", "start_ns", "end_ns", "arg"},
		Layers:  layers,
	}
	row := func(sp span) {
		if sp.Iter < traceFileSyncs {
			names := kindNames[sp.Kind]
			tf.Spans = append(tf.Spans, []any{sp.Rank, sp.Iter, names[0], names[1], sp.Start, sp.End, sp.Arg})
		}
	}
	for _, rec := range d.recs {
		for k := 0; k+1 < len(rec.stamps) && k < traceFileSyncs; k++ {
			row(span{Rank: int32(rec.rank), Kind: kStep, Iter: int64(k), Start: rec.stamps[k], End: rec.stamps[k+1]})
		}
		for _, sp := range rec.compute {
			row(sp)
		}
		var prev span
		for _, sp := range rec.comm {
			if (sp.Kind == kSend || sp.Kind == kRecv) && (prev.End == 0 || sp.Iter > prev.Iter) {
				if prev.End != 0 {
					prev.End = sp.Start
					row(prev)
				}
				prev = span{Rank: sp.Rank, Kind: kSync, Iter: sp.Iter, Start: sp.Start, End: sp.Start}
			}
			row(sp)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+d.spec.name+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(&tf); err != nil {
		f.Close()
		return "", err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
