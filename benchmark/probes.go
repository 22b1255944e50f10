package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/collective"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/ps"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/topology"
	"repro/internal/transport"
)

// The probes time stand-alone calls into each layer's public functions at
// the workload's own geometry: its rank count, its model dimension and the
// TCP transport. They complement the in-situ spans, which see a layer only
// through the interfaces the workers are handed: a probe prices a layer with
// nothing else running, the spans price it under the workload's contention.

type probes struct {
	s      *spec
	in     *inputs
	dim    int
	scale  float64 // 1 when measuring; the smoke test shrinks every loop
	m      map[string]float64
	counts map[string]int
}

// n scales a probe's full iteration count.
func (p *probes) n(full int) int { return max(2, int(float64(full)*p.scale)) }

// rounds sizes a probe so it runs a few hundred milliseconds whatever the
// model dimension.
func (p *probes) rounds() int { return p.n(min(2000, max(50, 15_000_000/p.dim))) }

// percentiles stores a timing's p50 (and p99 when asked) with its count.
func (p *probes) percentiles(name string, samples []float64, p99 bool) {
	p.m[name+"_p50"] = percentile(samples, 50)
	p.counts[name+"_p50"] = len(samples)
	if p99 {
		p.m[name+"_p99"] = percentile(samples, 99)
		p.counts[name+"_p99"] = len(samples)
	}
}

func runProbes(s *spec, seed int64, scale float64) (map[string]float64, map[string]int, error) {
	in, err := makeInputs(s, seed, 0)
	if err != nil {
		return nil, nil, err
	}
	p := &probes{s: s, in: in, dim: in.model.Dim(), scale: scale, m: map[string]float64{}, counts: map[string]int{}}
	for _, probe := range []func() error{
		p.transport, p.collective, p.controller, p.core, p.kernels, p.ps, p.topology,
	} {
		if err := probe(); err != nil {
			return nil, nil, err
		}
	}
	return p.m, p.counts, nil
}

// lockstep runs `rounds` rounds of op on n goroutines and returns, per
// round, the slowest rank's time in the given unit (ns per unit).
func lockstep(n, rounds int, unit float64, op func(rank int, round int64) error) ([]float64, error) {
	took := make([][]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		took[r] = make([]float64, rounds)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				t0 := time.Now()
				if errs[r] = op(r, int64(k)); errs[r] != nil {
					return
				}
				took[r][k] = float64(time.Since(t0)) / unit
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	slowest := took[0]
	for _, t := range took[1:] {
		for k := range t {
			slowest[k] = max(slowest[k], t[k])
		}
	}
	return slowest, nil
}

func tcpCluster(n int) ([]transport.Mesh, func(), error) {
	tcp, err := transport.NewTCPCluster(n)
	if err != nil {
		return nil, nil, err
	}
	meshes := make([]transport.Mesh, n)
	for i, m := range tcp {
		meshes[i] = m
	}
	return meshes, func() {
		for _, m := range tcp {
			_ = m.Close() // probe teardown
		}
	}, nil
}

func (p *probes) transport() error {
	// Dial: build and drop the workload's mesh a few times.
	var dials []float64
	for i := 0; i < p.n(5); i++ {
		t0 := time.Now()
		_, closeAll, err := tcpCluster(p.s.meshSize())
		if err != nil {
			return err
		}
		dials = append(dials, ms(int64(time.Since(t0))))
		closeAll()
	}
	p.m["transport.dial_ms"] = percentile(dials, 50)

	meshes, closeAll, err := tcpCluster(2)
	if err != nil {
		return err
	}
	defer closeAll()

	// Round trip of an empty control frame, rank 0 ↔ rank 1.
	pings := p.n(2000)
	echoErr := make(chan error, 1)
	go func() {
		for i := 0; i < pings; i++ {
			msg, err := meshes[1].Recv(0)
			if err == nil {
				err = meshes[1].Send(0, msg)
			}
			if err != nil {
				echoErr <- err
				return
			}
		}
		echoErr <- nil
	}()
	rtts := make([]float64, pings)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range rtts {
		t0 := time.Now()
		if err := meshes[0].Send(1, transport.Message{Type: transport.MsgControl, Iter: int64(i)}); err != nil {
			return err
		}
		if _, err := meshes[0].Recv(1); err != nil {
			return err
		}
		rtts[i] = float64(time.Since(t0)) / 1e3
	}
	runtime.ReadMemStats(&m1)
	if err := <-echoErr; err != nil {
		return err
	}
	p.percentiles("transport.rtt_us", rtts, true)
	p.m["transport.allocs_per_msg"] = float64(m1.Mallocs-m0.Mallocs) / float64(2*pings)

	// One-way stream of ring-chunk-sized frames (dim/ranks elements), sent
	// with ownership transfer as the ring sends them.
	chunk := max(1, p.dim/ranks)
	frames := p.n(min(20000, max(200, (32<<20)/(8*chunk))))
	go func() {
		for i := 0; i < frames; i++ {
			msg, err := meshes[1].Recv(0)
			if err != nil {
				echoErr <- err
				return
			}
			transport.PutPayload(msg.Payload)
		}
		echoErr <- meshes[1].Send(0, transport.Message{Type: transport.MsgControl})
	}()
	t0 := time.Now()
	for i := 0; i < frames; i++ {
		msg := transport.Message{Type: transport.MsgChunk, Iter: int64(i), Payload: transport.GetPayload(chunk)}
		if err := transport.SendOwned(meshes[0], 1, msg); err != nil {
			return err
		}
	}
	if _, err := meshes[0].Recv(1); err != nil {
		return err
	}
	p.m["transport.stream_mb_per_s"] = float64(frames*chunk*8) / 1e6 / time.Since(t0).Seconds()
	return <-echoErr
}

func (p *probes) collective() error {
	rounds := p.rounds()
	tcp, closeTCP, err := tcpCluster(ranks)
	if err != nil {
		return err
	}
	defer closeTCP()
	local, err := transport.NewLocalNetwork(ranks)
	if err != nil {
		return err
	}
	defer local.Close()

	bufs := make([]tensor.Vector, ranks)
	for r := range bufs {
		bufs[r] = tensor.New(p.dim)
		bufs[r].Fill(float64(r + 1))
	}
	allreduce := func(meshes []transport.Mesh) func(int, int64) error {
		return func(r int, k int64) error {
			return collective.AllReduceOpts(meshes[r], k, bufs[r], collective.OpAverage, collective.Options{})
		}
	}
	onTCP, err := lockstep(ranks, rounds, 1e6, allreduce(tcp))
	if err != nil {
		return err
	}
	p.percentiles("collective.allreduce_ms", onTCP, true)
	inMem, err := lockstep(ranks, rounds, 1e6, allreduce(local.Endpoints()))
	if err != nil {
		return err
	}
	p.percentiles("collective.allreduce_mem_ms", inMem, false)

	// One contributor of four: the straggler-heavy shape of an RNA sync.
	partial, err := lockstep(ranks, rounds, 1e6, func(r int, k int64) error {
		res, err := collective.PartialAllReduceOpts(tcp[r], int64(rounds)+k, bufs[r], r == 0, collective.Options{})
		res.Release()
		return err
	})
	if err != nil {
		return err
	}
	p.percentiles("collective.partial_allreduce_ms", partial, false)
	bcast, err := lockstep(ranks, rounds, 1e6, func(r int, k int64) error {
		return collective.Broadcast(tcp[r], 2*int64(rounds)+k, bufs[r], 0)
	})
	if err != nil {
		return err
	}
	p.percentiles("collective.broadcast_ms", bcast, false)

	// Which schedule AlgoAuto ran above, and how the active cost model
	// prices it against what was measured.
	algo := collective.SelectAlgorithmWire(ranks, p.dim, tensor.F64)
	p.m["collective.algo_id"] = float64(algo)
	predicted := collective.ActiveCostModel().PredictWireNs(algo, ranks, p.dim, tensor.F64)
	p.m["collective.predicted_over_measured"] = predicted / (p.m["collective.allreduce_ms_p50"] * 1e6)
	return nil
}

func (p *probes) controller() error {
	for name, policy := range map[string]controller.Policy{
		"controller.ready_await_us":     controller.AllReady,
		"controller.ready_await_poc_us": controller.PowerOfChoices,
	} {
		ctrl, err := controller.New(policy, ranks, 2, p.in.ctrlSeed)
		if err != nil {
			return err
		}
		took, err := lockstep(ranks, p.n(2000), 1e3, func(r int, k int64) error {
			if err := ctrl.Ready(r, k); err != nil {
				return err
			}
			fired, _ := ctrl.Await(k)
			<-fired
			if r == 0 {
				ctrl.Forget(k - 10)
			}
			return nil
		})
		if err != nil {
			return err
		}
		p.percentiles(name, took, false)
	}
	return nil
}

func (p *probes) core() error {
	acc, err := core.NewAccumulator(p.dim, 8)
	if err != nil {
		return err
	}
	g := tensor.New(p.dim)
	g.Fill(1)
	rounds := p.rounds()
	t0 := time.Now()
	for k := int64(0); k < int64(rounds); k++ {
		if err := acc.Put(k, g); err != nil {
			return err
		}
		if _, _, err := acc.Take(k); err != nil {
			return err
		}
	}
	p.m["core.accumulator_put_take_us"] = float64(time.Since(t0)) / 1e3 / float64(rounds)

	// The plain one-worker baseline: the same task, rank 0's delay stream,
	// a tenth of the budget, nobody to synchronise with.
	syncs := p.n(p.s.groups[0].syncs / 10)
	meshes, closeAll, err := tcpCluster(1)
	if err != nil {
		return err
	}
	defer closeAll()
	ctrl, err := controller.New(controller.AllReady, 1, 0, p.in.ctrlSeed)
	if err != nil {
		return err
	}
	rec := &rankRec{rank: 0, stamps: make([]int64, 0, syncs), epoch: time.Now()}
	res, err := core.RunBSPWorker(meshes[0], ctrl, core.TrainConfig{
		Model: p.in.model, LR: p.s.lr, Momentum: p.s.momentum, Seed: p.in.trainSeed,
		Iterations: syncs, Batch: rec.batchFunc(p.in, p.s.batch, &warmup{}), SlowDown: rec.slowDownFunc(p.s, p.in),
	})
	if err != nil {
		return fmt.Errorf("single-rank baseline: %w", err)
	}
	p.m["core.single_rank_samples_per_s"] = float64(syncs*p.s.batch) / res.Elapsed.Seconds()
	return nil
}

// kernels times the model, optimizer and tensor kernels alone on one
// goroutine.
func (p *probes) kernels() error {
	rounds := p.rounds()
	params, grad := tensor.New(p.dim), tensor.New(p.dim)
	p.in.model.Init(rng.New(p.in.trainSeed), params)
	src := rng.New(p.in.trainSeed)
	solo := make([]float64, rounds)
	for i := range solo {
		batch := p.in.ds.Batch(src, p.s.batch)
		t0 := time.Now()
		if _, err := p.in.model.Gradient(params, grad, batch); err != nil {
			return err
		}
		solo[i] = ms(int64(time.Since(t0)))
	}
	p.percentiles("model.gradient_solo_ms", solo, false)

	sgd, err := opt.NewSGD(p.dim, p.s.lr, p.s.momentum, 0)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := sgd.Step(params, grad, 1); err != nil {
			return err
		}
	}
	p.m["opt.step_ns_per_elem"] = float64(time.Since(t0)) / float64(rounds*p.dim)

	// Vector.Add at one ring chunk: the fold a reduce-scatter step does.
	chunk := max(1, p.dim/ranks)
	a, b := tensor.New(chunk), tensor.New(chunk)
	b.Fill(1e-9)
	adds := rounds * ranks
	t0 = time.Now()
	for i := 0; i < adds; i++ {
		if err := a.Add(b); err != nil {
			return err
		}
	}
	p.m["tensor.add_ns_per_elem"] = float64(time.Since(t0)) / float64(adds*chunk)
	return nil
}

func (p *probes) ps() error {
	rounds := min(500, p.rounds())
	init := tensor.New(p.dim)
	delta := tensor.New(p.dim)
	delta.Fill(1e-6)

	meshes, closeAll, err := tcpCluster(2)
	if err != nil {
		return err
	}
	srv, err := ps.NewServer(meshes[1], ps.ServerConfig{Key: core.HierarchicalPSKey, Dim: p.dim, Init: init})
	if err != nil {
		closeAll()
		return err
	}
	client, err := ps.NewClient(meshes[0], ps.ClientConfig{Servers: []int{1}, Key: core.HierarchicalPSKey, Dim: p.dim})
	if err != nil {
		closeAll()
		return err
	}
	exchange := func(store ps.GlobalStore) ([]float64, error) {
		took := make([]float64, rounds)
		for i := range took {
			t0 := time.Now()
			if _, _, err := store.PushPull(delta, ps.Add, 0); err != nil {
				return nil, err
			}
			took[i] = ms(int64(time.Since(t0)))
		}
		return took, nil
	}
	overTCP, err := exchange(client)
	closeAll()
	if err == nil {
		err = srv.Wait()
	}
	if err != nil {
		return err
	}
	p.percentiles("ps.pushpull_ms", overTCP, true)

	store := ps.NewStore(1)
	if _, err := store.Push(core.HierarchicalPSKey, init, ps.Overwrite); err != nil {
		return err
	}
	inProc, err := exchange(ps.Loopback(store, core.HierarchicalPSKey))
	if err != nil {
		return err
	}
	p.percentiles("ps.store_pushpull_ms", inProc, false)
	return nil
}

// topology times the paper's grouping rule on a synthetic two-speed
// profile of the workload's rank count.
func (p *probes) topology() error {
	src := rng.New(p.in.ctrlSeed)
	obs := make([][]time.Duration, ranks)
	for r := range obs {
		base := 5 * time.Millisecond
		if r >= ranks/2 {
			base = 25 * time.Millisecond
		}
		for i := 0; i < 64; i++ {
			obs[r] = append(obs[r], base+time.Duration(src.Uniform(0, float64(time.Millisecond))))
		}
	}
	calls := p.n(2000)
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		if _, err := topology.PartitionByObservations(obs); err != nil {
			return err
		}
	}
	p.m["topology.partition_us"] = float64(time.Since(t0)) / 1e3 / float64(calls)
	return nil
}
