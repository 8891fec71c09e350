// Command perfbench is the repository's benchmark. It drives each layer of
// the Eco-FL reproduction from outside, through its public functions, on
// one of three seeded workloads, checks the outputs are correct, and prints
// the measurements as JSON:
//
//	perfbench --workload ingest --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run. With
// --trace 1 it runs the workload untraced and then traced, compares the
// two, replays each layer's calls on the workload's own shapes, writes a
// Chrome trace and prints the per-layer metrics. The last line of standard
// output is always the result object; the line before it carries the
// machine context, sample counts and workload details.
//
//	perfbench compare old.out new.out
//
// prints the metrics of two captures side by side and flags captures whose
// machine context differs.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	goruntime "runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	toy      bool
	traceOut string
	sha      string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of every capture.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd names the metrics an untraced run reports, in the order of
// BENCHMARK.json. Every workload reports each of them (see README.md for
// what each means on each workload).
var endToEnd = []string{
	"setup_s", "pushes_per_s", "push_p50_s", "push_p99_s", "uplink_bytes_per_push",
	"samples_per_s", "round_p50_s", "round_p95_s", "client_updates_per_s", "heap_peak_bytes",
}

var workloads = map[string]func(*run){
	"ingest":     ingest,
	"federation": federation,
	"fl-sim":     flsim,
}

// run collects one workload run's measurements and check failures.
type run struct {
	cfg     config
	drivers int // closed-loop drivers: one per CPU
	stages  int // pipeline stages: one per CPU, within the model's 2–3 blocks
	tr      *tracer
	warm    bool // the current episode is the warm-up

	attempted, failed int64
	failures          []string
	metrics           map[string]metric
	counts            map[string]int // raw samples behind each metric
	episodes          map[string][]float64
	units             map[string]string
	tails             map[string]bool // percentile metrics at or above p90

	finalAccuracy float64
	finalHash     uint64

	gcCycles       int
	gcPauseP99     float64
	goroutinesPeak int
}

func newRun(cfg config) *run {
	n := goruntime.NumCPU()
	return &run{
		cfg:      cfg,
		drivers:  n,
		stages:   min(max(n, 2), 3),
		metrics:  make(map[string]metric),
		counts:   make(map[string]int),
		episodes: make(map[string][]float64),
		units:    make(map[string]string),
		tails:    make(map[string]bool),
	}
}

// note records one episode's value of a metric, computed from n raw
// samples. The warm-up episode, which fills caches, pools and lazily built
// state, runs every check but records nothing.
func (r *run) note(name string, v float64, unit string, n int) {
	if r.warm {
		return
	}
	r.episodes[name] = append(r.episodes[name], v)
	r.units[name] = unit
	r.counts[name] += n
}

// noteQuantile records one episode's exact percentile of a quantity,
// taken over that episode's raw samples.
func (r *run) noteQuantile(name string, s *samples, q float64, unit string) {
	if q >= 0.9 {
		r.tails[name] = true
	}
	r.note(name, s.quantile(q), unit, s.n())
}

// summarize reports each metric over the run's measured episodes. Other
// tenants of a shared host only ever slow an episode down, for seconds at a
// time, so a time or a rate is a favourable quantile of its per-episode
// values: the quartile on the fast side (the 75th percentile of rates, unit
// 1/s, and the 25th of times), which is the median of the faster half. A
// tail percentile (p95, p99) is what such a disturbance moves most, so it
// takes the favourable decile instead. Sizes (unit B) are not slowed by
// other tenants, and heap that grows from episode to episode must show, so
// they are the median over all episodes, as is set-up time.
func (r *run) summarize() {
	for name, v := range r.episodes {
		q := 0.25
		switch {
		case name == "setup_s" || r.units[name] == "B":
			q = 0.5
		case r.tails[name]:
			q = 0.1
		}
		if r.units[name] == "1/s" {
			q = 1 - q
		}
		r.set(name, quantile(v, q), r.units[name])
	}
	r.counts["episodes"] = len(r.episodes["client_updates_per_s"])
}

func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *run) fail(format string, args ...any) { r.check(false, format, args...) }

func (r *run) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *run) setMedian(name string, v []float64, unit string) {
	r.set(name, median(v), unit)
	r.counts[name] = len(v)
}

func (r *run) setQuantile(name string, s *samples, q float64, unit string) {
	r.set(name, s.quantile(q), unit)
	r.counts[name] = s.n()
}

// timed is the clock and runtime watch around one episode's timed region.
type timed struct {
	start time.Time
	samp  *sampler
}

func startTimed() *timed { return &timed{start: time.Now(), samp: startSampler()} }

// stop ends the timed region and returns its length. The episode's peak
// live heap, which includes a collection forced now while the episode's
// state is still reachable, is noted as heap_peak_bytes.
func (t *timed) stop(r *run) time.Duration {
	el := time.Since(t.start)
	t.samp.noteHeap(settledHeap())
	heap, goroutines := t.samp.finish()
	r.note("heap_peak_bytes", heap, "B", 1)
	r.goroutinesPeak = max(r.goroutinesPeak, goroutines)
	return el
}

// context is the machine context every capture records, so that captures
// from different machines are not compared as regressions.
type context struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Seed       int64  `json:"seed"`
	SHA        string `json:"sha"`
	Workload   string `json:"workload"`
	Trace      bool   `json:"trace"`
	Toy        bool   `json:"toy,omitempty"`
}

func machineContext(cfg config) context {
	return context{
		CPU:        cpuModel(),
		NumCPU:     goruntime.NumCPU(),
		GOMAXPROCS: goruntime.GOMAXPROCS(0),
		GoVersion:  goruntime.Version(),
		Seed:       cfg.seed,
		SHA:        cfg.sha,
		Workload:   cfg.workload,
		Trace:      cfg.trace,
		Toy:        cfg.toy,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// detail is the capture line printed before the result.
type detail struct {
	Context  context        `json:"context"`
	Samples  map[string]int `json:"samples"`
	Workload map[string]any `json:"workload"`
	Failures []string       `json:"failures,omitempty"`
}

// execute runs the configured workload and returns the capture's detail
// line and result. The result is nil when a check failed.
func execute(cfg config) (*detail, *result) {
	body := workloads[cfg.workload]
	if cfg.trace {
		// The untraced and the traced run share the measuring time.
		cfg.seconds /= 2
	}
	r := newRun(cfg)
	body(r)
	d := &detail{Context: machineContext(cfg), Samples: r.counts, Workload: workloadDetail(r)}
	res := &result{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric)}
	if cfg.trace {
		traced := newRun(cfg)
		traced.tr = newTracer()
		body(traced)
		compareRuns(r, traced)
		if err := traced.tr.writeChrome(cfg.traceOut, "perfbench "+cfg.workload); err != nil {
			traced.fail("write trace: %v", err)
		}
		lr := newRun(cfg)
		perLayer(lr)
		for name, m := range lr.metrics {
			res.Metrics[name] = m
		}
		res.Metrics["go.gc_cycles"] = metric{float64(traced.gcCycles), "count"}
		res.Metrics["go.gc_pause_p99_s"] = metric{traced.gcPauseP99, "s"}
		res.Metrics["go.goroutines_peak"] = metric{float64(traced.goroutinesPeak), "count"}
		base, with := r.metrics["client_updates_per_s"].Value, traced.metrics["client_updates_per_s"].Value
		res.Metrics["trace.overhead_ratio"] = metric{base / with, "ratio"}
		res.Attempted += traced.attempted + lr.attempted
		res.Failed += traced.failed + lr.failed
		d.Workload["traced"] = workloadDetail(traced)
		for k, v := range lr.counts {
			d.Samples["layer."+k] = v
		}
		r.failures = append(r.failures, traced.failures...)
		r.failures = append(r.failures, lr.failures...)
	} else {
		for _, name := range endToEnd {
			m, ok := r.metrics[name]
			r.check(ok, "metric %s was not measured", name)
			res.Metrics[name] = m
		}
	}
	for name, m := range res.Metrics {
		r.check(!math.IsNaN(m.Value) && !math.IsInf(m.Value, 0), "metric %s is %v", name, m.Value)
	}
	d.Failures = r.failures
	if len(r.failures) > 0 {
		return d, nil
	}
	res.Correct = true
	return d, res
}

// compareRuns checks that tracing did not change what a deterministic
// workload computes.
func compareRuns(base, traced *run) {
	if base.cfg.workload == "ingest" {
		return // concurrent drivers interleave pushes differently on every run
	}
	traced.check(base.finalHash == traced.finalHash && base.finalAccuracy == traced.finalAccuracy,
		"traced run ended on %016x (accuracy %v), untraced on %016x (accuracy %v)",
		traced.finalHash, traced.finalAccuracy, base.finalHash, base.finalAccuracy)
}

func workloadDetail(r *run) map[string]any {
	d := map[string]any{"drivers": r.drivers, "episodes": r.episodes}
	for name, m := range r.metrics {
		if !slices.Contains(endToEnd, name) {
			d[name] = m.Value
		}
	}
	switch r.cfg.workload {
	case "federation", "fl-sim":
		d["final_accuracy"] = r.finalAccuracy
		d["final_hash"] = fmt.Sprintf("%016x", r.finalHash)
	}
	if r.cfg.workload == "federation" {
		d["stages"] = r.stages
	}
	return d
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: ingest, federation or fl-sim")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is drawn from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "timed seconds to measure (whole episodes, at least one)")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "Chrome trace file of the traced run (default .bench_build/perfbench-<workload>.trace.json)")
	flag.StringVar(&cfg.sha, "sha", "unknown", "git commit of the code under test, recorded in the capture")
	flag.Parse()
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload ingest|federation|fl-sim, --trace 0|1 and --seconds > 0")
		os.Exit(2)
	}
	if cfg.traceOut == "" {
		cfg.traceOut = ".bench_build/perfbench-" + cfg.workload + ".trace.json"
	}
	start := time.Now()
	d, res := execute(cfg)
	d.Workload["wall_s"] = time.Since(start).Seconds()
	if err := emit(os.Stdout, d, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if res == nil {
		fmt.Fprintln(os.Stderr, "perfbench: correctness check failed:")
		for _, f := range d.Failures {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		os.Exit(1)
	}
}

// emit prints the detail line and, when every check passed, the result.
func emit(w io.Writer, d *detail, res *result) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(d); err != nil {
		return err
	}
	if res == nil {
		return nil
	}
	return enc.Encode(res)
}

// capture is one saved output of the benchmark.
type capture struct {
	detail
	result
}

func readCapture(path string) (*capture, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("%s: want a detail line and a result line", path)
	}
	c := &capture{}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &c.detail); err != nil {
		return nil, fmt.Errorf("%s: detail line: %w", path, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c.result); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", path, err)
	}
	return c, nil
}

// compare prints two captures' metrics side by side. Captures taken on a
// different CPU, CPU count, GOMAXPROCS or Go version are flagged: their
// difference is not a regression of the code.
func compare(w io.Writer, args []string) error {
	if len(args) != 2 {
		return errors.New("usage: perfbench compare <old capture> <new capture>")
	}
	old, err := readCapture(args[0])
	if err != nil {
		return err
	}
	cur, err := readCapture(args[1])
	if err != nil {
		return err
	}
	a, b := old.Context, cur.Context
	if a.CPU != b.CPU || a.NumCPU != b.NumCPU || a.GOMAXPROCS != b.GOMAXPROCS || a.GoVersion != b.GoVersion {
		fmt.Fprintf(w, "WARNING: machine context differs (%s ×%d, GOMAXPROCS %d, %s vs %s ×%d, GOMAXPROCS %d, %s); compare as a warning only\n",
			a.CPU, a.NumCPU, a.GOMAXPROCS, a.GoVersion, b.CPU, b.NumCPU, b.GOMAXPROCS, b.GoVersion)
	}
	if a.Workload != b.Workload {
		fmt.Fprintf(w, "WARNING: workloads differ (%s vs %s)\n", a.Workload, b.Workload)
	}
	names := make([]string, 0, len(cur.Metrics))
	for name := range cur.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-36s %14s %14s %9s\n", "metric", "old", "new", "new/old")
	for _, name := range names {
		m := cur.Metrics[name]
		o, ok := old.Metrics[name]
		if !ok {
			fmt.Fprintf(w, "%-36s %14s %14.6g %9s %s\n", name, "-", m.Value, "-", m.Unit)
			continue
		}
		fmt.Fprintf(w, "%-36s %14.6g %14.6g %9.3f %s\n", name, o.Value, m.Value, m.Value/o.Value, m.Unit)
	}
	return nil
}
