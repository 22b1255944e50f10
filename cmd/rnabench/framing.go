package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"testing"

	"repro/internal/transport"
)

// Framing sweep: the v1 wire protocol measured in isolation (codec cost,
// header overhead, message rate). Two acceptance gates ride on it:
//
//   - gate_framing_allocs_per_op  == 0  — steady-state encode+decode of a
//     frame allocates nothing (pooled payloads, zero-copy f64 views);
//   - gate_framing_header_pct    <= 1  — header bytes are <= 1% of the
//     frame at a 256 KiB payload.

// framingRow is one payload-size point of the codec sweep.
type framingRow struct {
	// PayloadBytes is the logical f64 payload size (8·elems).
	PayloadBytes int `json:"payload_bytes"`
	// FrameBytes is the full v1 frame size for that payload.
	FrameBytes int `json:"frame_bytes"`
	// HeaderPct is the framing overhead: 100·(FrameBytes−PayloadBytes)/FrameBytes.
	HeaderPct float64 `json:"header_pct"`
	// EncodeDecodeNs is the steady-state cost of one encode+decode cycle.
	EncodeDecodeNs int64 `json:"encode_decode_ns"`
	// AllocsPerOp is the allocation count per encode+decode cycle.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// MsgsPerSec is the sustained one-way message rate over a real TCP
	// connection (sender flooding, receiver draining).
	MsgsPerSec float64 `json:"msgs_per_sec"`
	// MBPerSec is the corresponding payload throughput.
	MBPerSec float64 `json:"mb_per_sec"`
}

// framingPayloadElems sweeps 64 B → 8 MiB payloads (f64 elements).
var framingPayloadElems = []int{8, 64, 512, 4096, 32768, 262144, 1048576}

// benchFramingCodec measures steady-state encode+decode of one frame and its
// allocation count. The decode side runs the production zero-copy path (a
// bufio reader over the encoded bytes) and returns the pooled buffers after
// each cycle, so the pools reach steady state immediately.
func benchFramingCodec(elems int) (nsPerOp int64, allocs int64, err error) {
	msg := transport.Message{Type: transport.MsgChunk, Iter: 1, Payload: make([]float64, elems)}
	for i := range msg.Payload {
		msg.Payload[i] = float64(i) * 1e-3
	}
	buf, err := transport.Encode(nil, msg)
	if err != nil {
		return 0, 0, err
	}
	rd := bytes.NewReader(buf)
	br := bufio.NewReaderSize(rd, 1<<16)
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf, benchErr = transport.Encode(buf[:0], msg)
			if benchErr != nil {
				return
			}
			rd.Reset(buf)
			br.Reset(rd)
			out, err := transport.ReadMessage(br)
			if err != nil {
				benchErr = err
				return
			}
			transport.PutPayload(out.Payload)
			transport.PutIndices(out.Indices)
		}
	})
	if benchErr != nil {
		return 0, 0, benchErr
	}
	return res.NsPerOp(), res.AllocsPerOp(), nil
}

// benchFramingRate measures the sustained one-way message rate between two
// TCP mesh ranks: the sender floods SendOwned frames (exercising frame
// coalescing and the writev path), the receiver drains and recycles.
func benchFramingRate(elems int) (msgsPerSec, mbPerSec float64, err error) {
	meshes, err := transport.NewTCPCluster(2)
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		for _, m := range meshes {
			_ = m.Close()
		}
	}()
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.SetBytes(int64(elems * 8))
		b.ResetTimer()
		errCh := make(chan error, 1)
		go func() {
			for i := 0; i < b.N; i++ {
				p := transport.GetPayload(elems)
				for j := range p {
					p[j] = float64(j)
				}
				if err := meshes[0].SendOwned(1, transport.Message{
					Type: transport.MsgChunk, Iter: int64(i), Payload: p,
				}); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}()
		for i := 0; i < b.N; i++ {
			msg, err := meshes[1].Recv(0)
			if err != nil {
				benchErr = err
				break
			}
			transport.PutPayload(msg.Payload)
		}
		if err := <-errCh; err != nil && benchErr == nil {
			benchErr = err
		}
	})
	if benchErr != nil {
		return 0, 0, benchErr
	}
	if s := res.T.Seconds(); s > 0 {
		msgsPerSec = float64(res.N) / s
		mbPerSec = float64(res.Bytes) * float64(res.N) / 1e6 / s
	}
	return msgsPerSec, mbPerSec, nil
}

// runFramingSweep fills the framing section of the report and derives its
// two gates.
func runFramingSweep(rep *collectiveBenchReport) error {
	const reps = 3
	for _, elems := range framingPayloadElems {
		fmt.Fprintf(os.Stderr, "collective bench: framing codec %dB payload...\n", elems*8)
		row := framingRow{
			PayloadBytes: elems * 8,
			FrameBytes:   transport.FrameBytes(elems),
		}
		row.HeaderPct = 100 * float64(row.FrameBytes-row.PayloadBytes) / float64(row.FrameBytes)
		for r := 0; r < reps; r++ {
			ns, allocs, err := benchFramingCodec(elems)
			if err != nil {
				return err
			}
			if r == 0 || ns < row.EncodeDecodeNs {
				row.EncodeDecodeNs = ns
			}
			if r == 0 || allocs > row.AllocsPerOp {
				row.AllocsPerOp = allocs // keep the WORST rep: the gate is 0
			}
		}
		for r := 0; r < reps; r++ {
			msgs, mb, err := benchFramingRate(elems)
			if err != nil {
				return err
			}
			if msgs > row.MsgsPerSec {
				row.MsgsPerSec = msgs
				row.MBPerSec = mb
			}
		}
		rep.Framing = append(rep.Framing, row)
		if row.PayloadBytes == 256<<10 {
			rep.GateFramingHeaderPct = row.HeaderPct
		}
		if row.AllocsPerOp > rep.GateFramingAllocsPerOp {
			rep.GateFramingAllocsPerOp = row.AllocsPerOp
		}
	}
	return nil
}
