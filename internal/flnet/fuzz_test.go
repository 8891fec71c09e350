package flnet

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"ecofl/internal/fl/robust"
	"ecofl/internal/flnet/wire"
	"ecofl/internal/obs"
)

// FuzzQuantizeRoundTrip checks the quantization error bound on arbitrary
// 4-element vectors (runs the seed corpus under plain `go test`; use
// `go test -fuzz=FuzzQuantizeRoundTrip` for continuous fuzzing).
// FuzzRequestDecode throws arbitrary byte streams at the server's
// post-hello request loop: frames are read with the server's reader limits
// and decoded by the server's own requestDecoder, and whatever survives is
// fed through the push aggregation (including the seq-dedup window) and
// telemetry ingest, which must not panic and must hold their invariants —
// duplicate sequence numbers are never re-applied, the seq high-water mark
// never moves backwards, the model version advances exactly once per
// accepted push, and no weight ever turns non-finite — no matter what kinds,
// payloads, metric names, or span batches the frames claim to carry.
// Truncated streams (a connection severed mid-frame) must decode cleanly up
// to the cut and reject the rest.
func FuzzRequestDecode(f *testing.F) {
	frame := func(h wire.Header, payload []byte, tel *TelemetrySnapshot) []byte {
		var trailer bytes.Buffer
		if tel != nil {
			if err := gob.NewEncoder(&trailer).Encode(tel); err != nil {
				f.Fatal(err)
			}
			h.Flags |= wire.FlagTelemetry
		}
		var buf bytes.Buffer
		w := wire.Writer{W: &buf}
		if err := w.WriteFrame(&h, payload, trailer.Bytes()); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	raw := func(clientID int32, seq uint64, w ...float64) []byte {
		return frame(wire.Header{Kind: wire.KindPush, Codec: wire.CodecRaw, A: clientID, B: 1, Seq: seq},
			wire.AppendRaw(nil, w), nil)
	}
	quant := func(min, scale float64, data ...uint8) []byte {
		return frame(wire.Header{Kind: wire.KindPush, Codec: wire.CodecQuant, A: 4, B: 1, Seq: 1},
			wire.AppendQuant(nil, min, scale, data), nil)
	}
	sparse := func(denseLen int, idx []uint32, vals ...float64) []byte {
		return frame(wire.Header{Kind: wire.KindPush, Codec: wire.CodecSparse, A: 1, B: 1, Seq: 1},
			wire.AppendSparse(nil, denseLen, idx, vals), nil)
	}
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }

	f.Add(frame(wire.Header{Kind: wire.KindTelemetry, A: 1}, nil, &TelemetrySnapshot{
		NodeID: 1, Proc: "portal", NodeNow: 1.5,
		Metrics: []MetricPoint{
			{Family: "ecofl_x_total", Kind: "counter", Value: 3},
			{Family: "ecofl_step_seconds", Labels: []string{"stage", "0"},
				Kind: "histogram", Count: 2, Sum: 0.2, P50: 0.1, P99: 0.19},
		},
		Spans: []obs.Event{{Name: "train", Cat: "portal", Start: 0.5, Dur: 0.25}},
	}))
	f.Add(frame(wire.Header{Kind: wire.KindTelemetry, A: -7}, nil, &TelemetrySnapshot{
		NodeID: -7, NodeNow: math.Inf(1),
		Metrics: []MetricPoint{{Family: `bad{family`, Labels: []string{"odd"}, Kind: "gauge"}},
	}))
	f.Add(frame(wire.Header{Kind: wire.KindPush, Codec: wire.CodecRaw, B: 3},
		wire.AppendRaw(nil, []float64{1, 2}), nil))
	// Sparse-overlay pushes: a well-formed overlay (rejected only for the
	// missing ack window), and hostile ones the codec must refuse or
	// applyPush's own gate must stop — unsorted and out-of-range indices,
	// NaN/Inf values, a dense-length lie, mismatched pair counts.
	f.Add(sparse(2, []uint32{0}, 1.5))
	f.Add(sparse(2, []uint32{1, 0}, 1, 2))
	f.Add(sparse(2, []uint32{7}, 1))
	f.Add(sparse(2, []uint32{0}, math.NaN()))
	f.Add(sparse(2, []uint32{0, 1}, math.Inf(1), 0))
	f.Add(sparse(1<<30, []uint32{0}, 1))
	f.Add(sparse(2, []uint32{0, 1}, 1))
	// Semantic poison the codecs carry or reject: non-finite dense and
	// quantized payloads, quant parameters finite on the wire but
	// overflowing once dequantized (min + 255·scale), and an oversized-norm
	// dense update for the adaptive gate.
	f.Add(raw(4, 1, math.NaN(), 0))
	f.Add(raw(4, 1, math.Inf(-1), 1))
	f.Add(quant(math.NaN(), 1, 1, 2))
	f.Add(quant(1e308, 1e306, 255, 255))
	f.Add(raw(5, 1, 1e30, -1e30))
	// The retry wire patterns: the same Seq pushed twice back to back (an ack
	// lost in flight), and a stale straggler Seq after a newer one landed.
	f.Add(cat(raw(2, 5, 1, 2), raw(2, 5, 1, 2)))
	f.Add(cat(raw(1, 9, 3, 4), raw(1, 2, 8, 8), frame(wire.Header{Kind: wire.KindPull, A: 1}, nil, nil)))
	// Connections severed mid-frame: a lone truncated request, and a valid
	// request followed by a truncated one (decode succeeds, then fails).
	whole := raw(3, 1, 5, 6)
	f.Add(whole[:len(whole)/2])
	f.Add(cat(whole, whole[:2*len(whole)/3]))
	f.Add([]byte("\x7fthis is not a frame stream, only bytes on the wire"))
	f.Add([]byte{})
	// What a pre-binary portal sends: a gob-encoded request. Its first bytes
	// are no frame magic, so nothing of it is applied.
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(&request{Kind: "push", ClientID: 6, Seq: 1,
		Weights: []float64{9, 9}, NumSamples: 1}); err != nil {
		f.Fatal(err)
	}
	f.Add(legacy.Bytes())
	// Protocol violations after a valid push: a hello mid-stream, and a
	// telemetry flag over a trailer that is not a snapshot.
	f.Add(cat(raw(7, 1, 1, 1), frame(wire.Header{Kind: wire.KindHello, A: 7}, nil, nil), raw(7, 2, 2, 2)))
	var bogusTel bytes.Buffer
	if err := (&wire.Writer{W: &bogusTel}).WriteFrame(&wire.Header{Kind: wire.KindTelemetry, A: 8,
		Flags: wire.FlagTelemetry}, nil, []byte("not gob")); err != nil {
		f.Fatal(err)
	}
	f.Add(cat(raw(8, 1, 1, 1), bogusTel.Bytes()))
	f.Fuzz(func(t *testing.T, stream []byte) {
		// A bare in-package server: applyPush and telemetry ingest never
		// touch the listener, the mixer or the connection set.
		s := &Server{
			Alpha: 0.5, StalenessExp: 1,
			fleet:    newFleet(),
			weights:  []float64{0, 0},
			lastSeq:  make(map[int]uint64),
			lastAck:  make(map[int]reply),
			normGate: robust.NewNormTracker(8, 4, 6),
		}
		fr := wire.Reader{R: bytes.NewReader(stream)}
		var (
			dec requestDecoder
			req request
		)
		for n := 0; n < 64; n++ {
			h, payload, trailer, err := fr.Next()
			if err != nil {
				break // malformed or truncated: the server drops the conn
			}
			if dec.decode(h, payload, trailer, &req) != nil {
				break // protocol violation: the server drops the conn
			}
			if req.Kind == "push" {
				prev := s.lastSeq[req.ClientID]
				_, applied := s.applyPush(&req)
				if applied && req.Seq > 0 && req.Seq <= prev {
					t.Fatalf("duplicate seq %d (high-water %d) was re-applied", req.Seq, prev)
				}
				if s.lastSeq[req.ClientID] < prev {
					t.Fatalf("seq high-water mark moved backwards: %d -> %d", prev, s.lastSeq[req.ClientID])
				}
			}
			if req.Telemetry != nil {
				s.fleet.ingest(req.Telemetry)
				s.fleet.observePush(req.ClientID)
			}
		}
		if s.version != s.pushes {
			t.Fatalf("version %d != accepted pushes %d", s.version, s.pushes)
		}
		// The semantic gate's core invariant: no byte stream, via any codec,
		// leaves a non-finite value in the model.
		for i, v := range s.weights {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("model weight %d is non-finite (%v) after fuzz input", i, v)
			}
		}
	})
}

func FuzzQuantizeRoundTrip(f *testing.F) {
	f.Add(0.0, 1.0, -1.0, 2.5)
	f.Add(3.0, 3.0, 3.0, 3.0)
	f.Add(-1e9, 1e9, 0.0, 42.0)
	f.Add(1e-12, -1e-12, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, a, b, c, d float64) {
		w := []float64{a, b, c, d}
		for _, v := range w {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		q := Quantize(w)
		back := q.Dequantize()
		if len(back) != len(w) {
			t.Fatalf("length changed: %d", len(back))
		}
		bound := q.MaxError() * (1 + 1e-9)
		for i := range w {
			if diff := math.Abs(w[i] - back[i]); diff > bound+1e-300 {
				t.Fatalf("element %d: error %v exceeds bound %v", i, diff, bound)
			}
		}
	})
}
