package flnet

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"testing"
	"time"

	"ecofl/internal/data"
	"ecofl/internal/metrics"
	"ecofl/internal/nn"
	"ecofl/internal/obs"
)

// TestTelemetryFederatesMetricsAndTraces is the fleet-telemetry shape check:
// two portals with telemetry enabled push over real TCP, and afterwards the
// server holds node-labeled views of both portals' metrics, a merged trace
// with spans under both node pids, a measured push interval per client, and
// an exported ecofl_straggler gauge.
func TestTelemetryFederatesMetricsAndTraces(t *testing.T) {
	s := startServer(t, []float64{0, 0}, 0.5)
	for id := 1; id <= 2; id++ {
		reg := metrics.NewRegistry()
		reg.Counter("ecofl_test_rounds_total", "rounds trained").Add(int64(10 * id))
		reg.Histogram("ecofl_test_step_seconds", "step latency",
			[]float64{0.1, 1}).Observe(0.05 * float64(id))

		tr := obs.NewWall()
		sp := tr.Begin(0, 0, "train", "portal")
		sp.End()

		c, err := Dial(s.Addr(), id)
		if err != nil {
			t.Fatal(err)
		}
		stop := c.EnableTelemetry(reg, tr, "portal", 0)
		_, v, err := c.Pull()
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			if _, v, err = c.Push([]float64{1, 1}, 1, v); err != nil {
				t.Fatal(err)
			}
		}
		stop()
		c.Close()
	}

	fleet := s.Fleet()
	for id := 1; id <= 2; id++ {
		name := fmt.Sprintf(`ecofl_test_rounds_total{node="%d"}`, id)
		smp, ok := fleet.Registry().Get(name)
		if !ok {
			t.Fatalf("fleet registry missing %s", name)
		}
		if smp.Value != float64(10*id) {
			t.Fatalf("%s = %v, want %d", name, smp.Value, 10*id)
		}
		p50 := fmt.Sprintf(`ecofl_test_step_seconds:p50{node="%d"}`, id)
		if smp, ok = fleet.Registry().Get(p50); !ok || smp.Value <= 0 {
			t.Fatalf("fleet registry missing histogram digest %s (%+v)", p50, smp)
		}
	}

	pids := map[int]bool{}
	for _, e := range fleet.Trace().Events() {
		pids[e.PID] = true
	}
	if !pids[1] || !pids[2] {
		t.Fatalf("fleet trace spans cover pids %v, want both nodes 1 and 2", pids)
	}

	// Two pushes per client = one measured inter-push interval each.
	for id := 1; id <= 2; id++ {
		if lat := fleet.Straggler().MeasuredLatency(id); lat <= 0 {
			t.Fatalf("client %d has no measured latency", id)
		}
		gauge := fmt.Sprintf(`ecofl_straggler{client="%d"}`, id)
		if _, ok := metrics.Default.Get(gauge); !ok {
			t.Fatalf("%s not exported on the default registry", gauge)
		}
	}
}

// TestTelemetryRejectsHostileMetricNames feeds a snapshot whose label names
// and families would make the registry panic if ingested unchecked.
func TestTelemetryRejectsHostileMetricNames(t *testing.T) {
	f := newFleet()
	f.ingest(&TelemetrySnapshot{NodeID: 1, Metrics: []MetricPoint{
		{Family: `bad{name}`, Kind: "counter", Value: 1},
		{Family: "odd_labels", Labels: []string{"k"}, Kind: "counter", Value: 1},
		{Family: "bad_label_key", Labels: []string{`a=b`, "v"}, Kind: "gauge", Value: 1},
		{Family: "node_collision", Labels: []string{"node", "7"}, Kind: "gauge", Value: 1},
		{Family: "ok_metric", Labels: []string{"shard", `hostile "value"`}, Kind: "gauge", Value: 4},
	}})
	if len(f.Registry().Snapshot()) != 1 {
		t.Fatalf("only the valid point should register: %+v", f.Registry().Snapshot())
	}
	if _, ok := f.Registry().Get(`ok_metric{node="1",shard="hostile \"value\""}`); !ok {
		t.Fatalf("valid point with hostile label value missing: %+v", f.Registry().Snapshot())
	}
}

func TestStragglerDetectorFlagsSlowClient(t *testing.T) {
	reg := metrics.NewRegistry()
	d := NewStragglerDetector(reg, 0.25, 0.3)
	for i := 0; i < 5; i++ {
		if d.Observe(3, 1.0) {
			t.Fatal("steady client must not be flagged")
		}
	}
	if !d.Observe(3, 2.0) {
		t.Fatal("a 2x slowdown must flag the client")
	}
	if smp, ok := reg.Get(`ecofl_straggler{client="3"}`); !ok || smp.Value != 1 {
		t.Fatalf("straggler gauge = %+v, want 1", smp)
	}
	if got := d.Straggling(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("Straggling() = %v, want [3]", got)
	}
	// Observing right on the smoothed history clears the flag.
	if d.Observe(3, d.MeasuredLatency(3)) {
		t.Fatal("an on-history observation must not be flagged")
	}
	if smp, _ := reg.Get(`ecofl_straggler{client="3"}`); smp.Value != 0 {
		t.Fatalf("straggler gauge = %v after recovery, want 0", smp.Value)
	}
	// Deviating fast is not straggling.
	for i := 0; i < 5; i++ {
		d.Observe(4, 1.0)
	}
	if d.Observe(4, 0.2) {
		t.Fatal("speeding up must not be flagged as straggling")
	}
	// Garbage in, calm out.
	if d.Observe(-1, 5) || d.Observe(5, -2) {
		t.Fatal("invalid observations must not flag")
	}
	lats := d.MeasuredLatencies()
	if lats[3] <= 0 || lats[4] <= 0 {
		t.Fatalf("measured latencies missing observed clients: %v", lats)
	}
}

// TestMalformedStreamCountsDecodeError writes streams that are not binary
// frames at the server — plain garbage, and a real gob-encoded pull as a
// pre-binary portal would send it — and checks each is refused with a
// decode error while a binary client keeps being served.
func TestMalformedStreamCountsDecodeError(t *testing.T) {
	var gobPull bytes.Buffer
	if err := gob.NewEncoder(&gobPull).Encode(&request{Kind: "pull", ClientID: 0}); err != nil {
		t.Fatal(err)
	}
	s := startServer(t, []float64{1}, 0.5)
	for _, tc := range []struct {
		name   string
		stream []byte
	}{
		{"garbage", []byte("\x7fthis is not a frame stream")},
		{"gob-pull", gobPull.Bytes()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := srvDecodeErrors.Value()
			conn, err := net.Dial("tcp", s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.stream); err != nil {
				t.Fatal(err)
			}
			if cw, ok := conn.(*net.TCPConn); ok {
				cw.CloseWrite()
			}
			// The server answers nothing and drops the connection (a FIN,
			// or a reset if it left bytes unread).
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, err := io.Copy(io.Discard, conn)
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("server kept the connection open")
			}
			if n != 0 {
				t.Fatalf("server replied %d bytes to a non-frame stream", n)
			}
			deadline := time.Now().Add(5 * time.Second)
			for srvDecodeErrors.Value() == before {
				if time.Now().After(deadline) {
					t.Fatal("decode error was not counted")
				}
				time.Sleep(2 * time.Millisecond)
			}
			c, err := Dial(s.Addr(), 0)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, _, err := c.Pull(); err != nil {
				t.Fatalf("server must survive a malformed stream: %v", err)
			}
		})
	}
}

// runSequentialFL trains two portals strictly one after the other (so the
// aggregation order is deterministic) and returns the final global weights.
func runSequentialFL(t *testing.T, telemetry bool) []float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	ds := data.MNISTLike(rng, 400)
	shards := data.PartitionByClasses(rng, ds, 2, 2)
	proto := nn.NewMLP(rand.New(rand.NewSource(43)), ds.Dim, 16, ds.NumClasses)
	s := startServer(t, proto.FlatWeights(), 0.5)
	for id := 0; id < 2; id++ {
		c, err := Dial(s.Addr(), id)
		if err != nil {
			t.Fatal(err)
		}
		stop := func() {}
		if telemetry {
			reg := metrics.NewRegistry()
			reg.Counter("ecofl_test_invariance_total", "x").Inc()
			tr := obs.NewWall()
			tr.Span(0, 0, "train", "portal", 0, 1, nil)
			// An aggressive flush interval interleaves plenty of telemetry
			// requests between the pushes.
			stop = c.EnableTelemetry(reg, tr, "portal", time.Millisecond)
		}
		local := proto.Clone()
		lrng := rand.New(rand.NewSource(int64(7 + id)))
		w, v, err := c.Pull()
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			local.SetFlatWeights(w)
			opt := &nn.SGD{LR: 0.05, Mu: 0.05, Global: w}
			for _, b := range shards[id].Batches(lrng, 16) {
				local.TrainBatch(b.X, b.Y, opt)
			}
			if w, v, err = c.Push(local.FlatWeights(), shards[id].Len(), v); err != nil {
				t.Fatal(err)
			}
		}
		stop()
		c.Close()
	}
	w, _ := s.Snapshot()
	return w
}

// TestTelemetryDoesNotPerturbTraining is the curve-invariance guarantee:
// telemetry reads state but never touches weights, rng, or aggregation
// order, so the final global model is byte-identical with it on or off.
func TestTelemetryDoesNotPerturbTraining(t *testing.T) {
	off := runSequentialFL(t, false)
	on := runSequentialFL(t, true)
	if len(off) != len(on) {
		t.Fatalf("weight lengths differ: %d vs %d", len(off), len(on))
	}
	for i := range off {
		if math.Float64bits(off[i]) != math.Float64bits(on[i]) {
			t.Fatalf("weight %d differs with telemetry on: %v vs %v", i, off[i], on[i])
		}
	}
}

// BenchmarkPushRawWithTelemetry is BenchmarkPushRaw plus an enabled
// telemetry pipeline — the delta between the two is the true piggyback cost
// (snapshot build + extra gob payload) per push.
func BenchmarkPushRawWithTelemetry(b *testing.B) {
	const n = 100_000
	_, c := benchServer(b, n)
	reg := metrics.NewRegistry()
	reg.Counter("ecofl_bench_rounds_total", "x").Inc()
	reg.Histogram("ecofl_bench_step_seconds", "x", metrics.DefBuckets).Observe(0.01)
	stop := c.EnableTelemetry(reg, obs.NewWall(), "bench", 0)
	defer stop()
	rng := rand.New(rand.NewSource(1))
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	v := 0
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		_, v, err = c.Push(w, 10, v)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(n * 8)
}

// BenchmarkTelemetrySnapshot isolates the client-side snapshot build over a
// realistically sized registry.
func BenchmarkTelemetrySnapshot(b *testing.B) {
	reg := metrics.NewRegistry()
	for i := 0; i < 20; i++ {
		reg.Counter(fmt.Sprintf("ecofl_bench_c%d_total", i), "x").Inc()
		reg.Histogram(fmt.Sprintf("ecofl_bench_h%d_seconds", i), "x", metrics.DefBuckets).Observe(0.01)
	}
	c := &Client{ID: 1, tel: &telemetryState{reg: reg, trace: obs.NewWall(), proc: "bench"}}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.mu.Lock()
		snap := c.telemetrySnapshotLocked()
		c.mu.Unlock()
		if len(snap.Metrics) != 40 {
			b.Fatalf("snapshot has %d points", len(snap.Metrics))
		}
	}
}
