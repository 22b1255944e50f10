package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// AD-PSGD wire subtypes carried in Message.Chunk.
const (
	adpsgdRequest int32 = iota + 1
	adpsgdReply
	adpsgdBusy
)

// ADPSGDResult reports one gossip worker's outcome.
type ADPSGDResult struct {
	// Params is the worker's final (locally held) model.
	Params tensor.Vector
	// Losses holds per-iteration batch losses.
	Losses []float64
	// Averagings counts successful pairwise averagings; Conflicts counts
	// busy rejections that forced a retry with another peer — the
	// scheduling conflicts the paper attributes to AD-PSGD.
	Averagings int
	Conflicts  int
	// Elapsed is the worker's wall-clock training time.
	Elapsed time.Duration
}

// adpsgdState is the lock-protected model shared between the training loop
// and the averaging responders.
type adpsgdState struct {
	mu     sync.Mutex
	params tensor.Vector
}

// RunADPSGDWorker trains with asynchronous decentralized parallel SGD on
// the goroutine runtime: each iteration the worker computes a gradient,
// atomically averages models with one uniformly chosen peer (retrying
// another peer on conflict — both sides averaging simultaneously would
// deadlock, which is the coordination cost the paper criticizes), and
// applies its gradient locally. Responder goroutines keep serving peers'
// averaging requests until the mesh closes, so the caller must close the
// mesh only after every rank's RunADPSGDWorker has returned.
func RunADPSGDWorker(mesh transport.Mesh, cfg TrainConfig) (*ADPSGDResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := mesh.Size()
	if n < 2 {
		return nil, errors.New("core: AD-PSGD needs at least 2 workers")
	}
	rank := mesh.Rank()
	dim := cfg.Model.Dim()
	start := time.Now()

	params, batchSrc := cfg.newRank(rank)
	st := &adpsgdState{params: params}
	optim, err := cfg.newOptimizer(dim)
	if err != nil {
		return nil, err
	}
	peerSrc := rng.New(cfg.Seed).Split(1000 + rank)

	// Replies to this worker's own averaging requests. Buffered so a
	// late reply after a retry decision cannot block the reader.
	replies := make(chan transport.Message, n)

	// One reader per peer: demultiplex incoming traffic into averaging
	// requests (served here) and replies to our requests.
	var readers sync.WaitGroup
	for p := 0; p < n; p++ {
		if p == rank {
			continue
		}
		p := p
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				msg, err := mesh.Recv(p)
				if err != nil {
					return // mesh closed
				}
				switch msg.Chunk {
				case adpsgdRequest:
					serveAveraging(mesh, st, p, msg)
				case adpsgdReply, adpsgdBusy:
					replies <- msg
				}
			}
		}()
	}

	res := &ADPSGDResult{Losses: make([]float64, 0, cfg.Iterations)}
	grad := tensor.New(dim)
	snapshot := tensor.New(dim)
	for k := int64(0); k < int64(cfg.Iterations); k++ {
		st.mu.Lock()
		copy(snapshot, st.params)
		st.mu.Unlock()
		batch := cfg.Batch(batchSrc)
		loss, err := cfg.Model.Gradient(snapshot, grad, batch)
		if err != nil {
			return nil, fmt.Errorf("rank %d iter %d: %w", rank, k, err)
		}
		res.Losses = append(res.Losses, loss)
		cfg.slowDown(rank, k)

		// Atomic pairwise averaging with retry-on-conflict.
		averaged := false
		for attempt := 0; attempt < 4*n && !averaged; attempt++ {
			peer := peerSrc.Choice(n, rank)
			st.mu.Lock()
			mine := st.params.Clone()
			st.mu.Unlock()
			if err := mesh.Send(peer, transport.Message{
				Type: transport.MsgControl, Iter: k, Chunk: adpsgdRequest, Payload: mine,
			}); err != nil {
				return nil, fmt.Errorf("rank %d iter %d: %w", rank, k, err)
			}
			msg, ok := <-replies
			if !ok {
				return nil, errors.New("core: reply channel closed")
			}
			if msg.Chunk == adpsgdBusy {
				res.Conflicts++
				continue
			}
			st.mu.Lock()
			if err := st.params.CopyFrom(msg.Payload); err != nil {
				st.mu.Unlock()
				return nil, fmt.Errorf("rank %d iter %d: %w", rank, k, err)
			}
			st.mu.Unlock()
			res.Averagings++
			averaged = true
		}

		// Apply the local gradient to the (possibly averaged) model.
		st.mu.Lock()
		if _, err := optim.Step(st.params, grad, 1); err != nil {
			st.mu.Unlock()
			return nil, fmt.Errorf("rank %d iter %d: %w", rank, k, err)
		}
		st.mu.Unlock()
	}

	st.mu.Lock()
	res.Params = st.params.Clone()
	st.mu.Unlock()
	res.Elapsed = time.Since(start)
	// Responders keep serving until the caller closes the mesh; do not
	// wait for them here.
	go func() {
		readers.Wait()
		close(replies)
	}()
	return res, nil
}

// serveAveraging handles one peer's averaging request: atomically average
// the local model with the received one and reply with the result, or
// report busy when the local lock cannot be taken immediately (the
// requester retries elsewhere, avoiding the symmetric-request deadlock).
func serveAveraging(mesh transport.Mesh, st *adpsgdState, from int, req transport.Message) {
	if !st.mu.TryLock() {
		_ = mesh.Send(from, transport.Message{
			Type: transport.MsgControl, Iter: req.Iter, Chunk: adpsgdBusy,
		})
		return
	}
	avg := st.params.Clone()
	ok := len(req.Payload) == len(avg)
	if ok {
		for i := range avg {
			avg[i] = (avg[i] + req.Payload[i]) / 2
		}
		copy(st.params, avg)
	}
	st.mu.Unlock()
	if !ok {
		_ = mesh.Send(from, transport.Message{
			Type: transport.MsgControl, Iter: req.Iter, Chunk: adpsgdBusy,
		})
		return
	}
	_ = mesh.Send(from, transport.Message{
		Type: transport.MsgControl, Iter: req.Iter, Chunk: adpsgdReply, Payload: avg,
	})
}

// ConsensusParams averages the final models of a set of AD-PSGD results —
// the consensus model gossip converges toward.
func ConsensusParams(results []*ADPSGDResult) (tensor.Vector, error) {
	if len(results) == 0 {
		return nil, errors.New("core: no results")
	}
	vs := make([]tensor.Vector, len(results))
	for i, r := range results {
		vs[i] = r.Params
	}
	return tensor.Mean(vs)
}
