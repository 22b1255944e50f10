package transport

import (
	"bufio"
	"bytes"
	"strconv"
	"testing"

	"repro/internal/race"
)

// TestFrameCodecSteadyStateAllocs: one steady-state cycle of a dense f64
// frame through the production paths — Encode into a reused buffer,
// ReadMessage from a bufio.Reader over it, PutPayload of the pooled payload —
// allocates nothing at any payload size from 64 B to 8 MiB, tiny payloads
// (which round up into the smallest pool class) included.
func TestFrameCodecSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	for _, elems := range []int{8, 64, 512, 4096, 32768, 262144, 1048576} {
		msg := Message{Type: MsgChunk, Iter: 1, Payload: make([]float64, elems)}
		for i := range msg.Payload {
			msg.Payload[i] = float64(i) * 1e-3
		}
		buf, err := Encode(nil, msg)
		if err != nil {
			t.Fatal(err)
		}
		rd := bytes.NewReader(buf)
		br := bufio.NewReaderSize(rd, 1<<16)
		allocs := testing.AllocsPerRun(20, func() {
			if buf, err = Encode(buf[:0], msg); err != nil {
				t.Fatal(err)
			}
			rd.Reset(buf)
			br.Reset(rd)
			out, err := ReadMessage(br)
			if err != nil {
				t.Fatal(err)
			}
			PutPayload(out.Payload)
		})
		if allocs != 0 {
			t.Errorf("%d-element frame: %v allocations per encode/decode cycle, want 0", elems, allocs)
		}
	}
}

// TestFrameHeaderOverhead: the v1 header is at most 1 % of the frame that
// carries a 256 KiB payload.
func TestFrameHeaderOverhead(t *testing.T) {
	const elems = 32768
	frame := FrameBytes(elems)
	if pct := 100 * float64(frame-8*elems) / float64(frame); pct > 1 {
		t.Errorf("header is %.3f %% of a %d-byte frame, want at most 1 %%", pct, frame)
	}
}

// BenchmarkCodecSteadyState measures one encode+decode cycle of a v1 frame
// through the production zero-copy paths (Encode → bufio → ReadMessage with
// pooled payload recycling); TestFrameCodecSteadyStateAllocs holds it at 0
// allocs/op.
func BenchmarkCodecSteadyState(b *testing.B) {
	for _, elems := range []int{8, 64, 4096, 32768} {
		b.Run(strconv.Itoa(elems), func(b *testing.B) {
			msg := Message{Type: MsgChunk, Iter: 1, Payload: make([]float64, elems)}
			buf, err := Encode(nil, msg)
			if err != nil {
				b.Fatal(err)
			}
			rd := bytes.NewReader(buf)
			br := bufio.NewReaderSize(rd, 1<<16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, err = Encode(buf[:0], msg)
				if err != nil {
					b.Fatal(err)
				}
				rd.Reset(buf)
				br.Reset(rd)
				out, err := ReadMessage(br)
				if err != nil {
					b.Fatal(err)
				}
				PutPayload(out.Payload)
			}
		})
	}
}
