package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func toyConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 0.2, trace: trace, toy: true,
		traceOut: filepath.Join(t.TempDir(), "trace.json"), sha: "test"}
}

// TestToyRunEmitsEveryMetric runs every workload of BENCHMARK.json at toy
// size in both modes and checks the result carries exactly the metrics the
// file names, each with its unit.
func TestToyRunEmitsEveryMetric(t *testing.T) {
	b := loadBenchmark(t)
	var names []string
	for _, m := range b.EndToEnd {
		names = append(names, m.Name)
	}
	if strings.Join(names, ",") != strings.Join(endToEnd, ",") {
		t.Fatalf("BENCHMARK.json end_to_end %v, program reports %v", names, endToEnd)
	}
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := toyConfig(t, w.Name, trace)
			d, res := execute(cfg)
			if res == nil {
				t.Fatalf("%s trace=%v: checks failed: %v", w.Name, trace, d.Failures)
			}
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			// A machine with more than two CPUs runs a third pipeline
			// stage and reports its utilisation too.
			extra := 0
			if _, ok := res.Metrics["pipeline.stage_busy.2"]; ok {
				extra = 1
			}
			if len(res.Metrics) != len(want)+extra {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}

			var out bytes.Buffer
			if err := emit(&out, d, res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatal(err)
			}
			if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
				t.Errorf("%s: last line has keys %v", w.Name, keys(last))
			}
			if trace {
				var tr map[string]any
				raw, err := os.ReadFile(cfg.traceOut)
				if err != nil || json.Unmarshal(raw, &tr) != nil {
					t.Errorf("%s: Chrome trace unreadable: %v", w.Name, err)
				}
			}
		}
	}
}

func keys(m map[string]json.RawMessage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestDoctoredAccuracyFails checks that a traced run ending on another
// accuracy than the untraced one fails the correctness check.
func TestDoctoredAccuracyFails(t *testing.T) {
	for _, w := range []string{"federation", "fl-sim"} {
		cfg := toyConfig(t, w, false)
		cfg.seconds = 0.05
		base, doctored := newRun(cfg), newRun(cfg)
		workloads[w](base)
		workloads[w](doctored)
		compareRuns(base, doctored)
		if len(doctored.failures) != 0 {
			t.Fatalf("%s: identical runs failed the comparison: %v", w, doctored.failures)
		}
		doctored.finalAccuracy += 0.01
		compareRuns(base, doctored)
		if len(doctored.failures) == 0 {
			t.Errorf("%s: a wrong accuracy passed the comparison", w)
		}
	}
}

// TestNonFiniteWeightFails checks that a served model holding a NaN fails
// the ingest pass check.
func TestNonFiniteWeightFails(t *testing.T) {
	f := ingestFleet(true, 2)
	in := newFleetInputs(1, f)
	ps, err := startPassServer(in)
	if err != nil {
		t.Fatal(err)
	}
	r := newRun(config{workload: "ingest", toy: true})
	checkPass(r, ps, 0)
	ps.srv.Close()
	if len(r.failures) != 0 {
		t.Fatalf("a clean server failed the check: %v", r.failures)
	}

	in.init[len(in.init)/2] = math.NaN()
	if ps, err = startPassServer(in); err != nil {
		t.Fatal(err)
	}
	defer ps.srv.Close()
	checkPass(r, ps, 0)
	if len(r.failures) != 1 || !strings.Contains(r.failures[0], "non-finite") {
		t.Errorf("a NaN weight gave failures %v", r.failures)
	}
}

// TestFailedRunPrintsNoResult checks that a run with a failed check prints
// its detail line only, never a result.
func TestFailedRunPrintsNoResult(t *testing.T) {
	var out bytes.Buffer
	d := &detail{Failures: []string{"doctored"}}
	if err := emit(&out, d, nil); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "\n"); n != 1 || strings.Contains(out.String(), `"metrics"`) {
		t.Errorf("failed run printed %q", out.String())
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	var v []float64
	for i := 100; i >= 1; i-- {
		v = append(v, float64(i))
	}
	for q, want := range map[float64]float64{0.5: 50, 0.95: 95, 0.99: 99, 1: 100, 0: 1} {
		if got := quantile(v, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	ms := time.Millisecond
	tr.spans = []span{
		{name: "round", parent: -1, start: 0, end: 10 * ms},
		{name: "pull", parent: 0, start: 2 * ms, end: 5 * ms},
		{name: "push", parent: 0, start: 4 * ms, end: 7 * ms}, // overlaps pull
		{name: "open", parent: 0, start: 8 * ms, end: -1},     // never closed
	}
	self := tr.selfTimes()
	if got := self["round"][0]; math.Abs(got-0.005) > 1e-12 {
		t.Errorf("round self time %v, want 0.005", got)
	}
	if got := self["pull"][0]; math.Abs(got-0.003) > 1e-12 {
		t.Errorf("pull self time %v, want 0.003", got)
	}
	if _, ok := self["open"]; ok {
		t.Error("an open span was reported")
	}
}

func TestCompareFlagsContextChange(t *testing.T) {
	dir := t.TempDir()
	write := func(name, cpu string, v float64) string {
		d := &detail{Context: context{CPU: cpu, NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24", Workload: "ingest"}}
		res := &result{Correct: true, Attempted: 1, Metrics: map[string]metric{"setup_s": {v, "s"}}}
		var out bytes.Buffer
		if err := emit(&out, d, res); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, c := write("a", "cpu-a", 1), write("b", "cpu-a", 2), write("c", "cpu-b", 2)
	var out bytes.Buffer
	if err := compare(&out, []string{a, b}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "WARNING") || !strings.Contains(out.String(), "2.000") {
		t.Errorf("same-context comparison printed %q", out.String())
	}
	out.Reset()
	if err := compare(&out, []string{a, c}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "WARNING: machine context differs") {
		t.Errorf("cross-machine comparison printed %q", out.String())
	}
}

// TestSummarizeTakesFavourableQuantiles pins how a run combines its
// episodes: the fast-side quartile of rates and times, the fast-side decile
// of tail percentiles, and the median of set-up time and of sizes, so that
// heap growing over the later episodes raises heap_peak_bytes.
func TestSummarizeTakesFavourableQuantiles(t *testing.T) {
	r := newRun(config{workload: "ingest"})
	for i := 1; i <= 20; i++ {
		v := float64(i)
		r.note("client_updates_per_s", v, "1/s", 1)
		r.note("setup_s", v, "s", 1)
		r.note("heap_peak_bytes", v, "B", 1)
		r.note("uplink_bytes_per_push", v, "B", 1)
		r.noteQuantile("push_p50_s", &samples{v: []float64{v}}, 0.5, "s")
		r.noteQuantile("push_p99_s", &samples{v: []float64{v}}, 0.99, "s")
	}
	r.summarize()
	for name, want := range map[string]float64{"client_updates_per_s": 15, "setup_s": 10, "heap_peak_bytes": 10,
		"uplink_bytes_per_push": 10, "push_p50_s": 5, "push_p99_s": 2} {
		if got := r.metrics[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
