package main

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ecofl/internal/flnet"
	"ecofl/internal/flnet/wire"
	"ecofl/internal/metrics"
)

// fleet describes a population of portal identities that visit one flnet
// server: each visit dials, pulls, pushes pushesPerVisit updates and
// closes. Identity id mod 3 picks the uplink codec.
type fleet struct {
	identities     int
	weights        int
	pushesPerVisit int
	topK           int
	drivers        int
}

// Codecs, indexed by identity mod 3.
const (
	codecRaw = iota
	codecQuant
	codecSparse
)

var codecNames = [3]string{"raw", "quant", "sparse"}

// noisePool is how many distinct seeded noise vectors updates draw from;
// enough that consecutive pushes differ, small enough to build quickly.
const noisePool = 16

// fleetInputs are the seeded inputs of one pass: the initial model, the
// update noise, and each identity's declared sample count.
type fleetInputs struct {
	init    []float64
	noise   [][]float64
	samples []int
}

func newFleetInputs(seed int64, f fleet) *fleetInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &fleetInputs{init: make([]float64, f.weights), samples: make([]int, f.identities)}
	for i := range in.init {
		in.init[i] = rng.NormFloat64() * 0.1
	}
	for k := 0; k < noisePool; k++ {
		v := make([]float64, f.weights)
		for i := range v {
			v[i] = rng.NormFloat64() * 0.01
		}
		in.noise = append(in.noise, v)
	}
	for i := range in.samples {
		in.samples[i] = 20 + rng.Intn(41)
	}
	return in
}

// frameSize is the uplink bytes one push of a codec puts on the wire.
func (f fleet) frameSize(codec int) int64 {
	switch codec {
	case codecQuant:
		return int64(wire.HeaderSize + wire.QuantSize(f.weights))
	case codecSparse:
		return int64(wire.HeaderSize + wire.SparseSize(f.topK))
	}
	return int64(wire.HeaderSize + 8*f.weights)
}

// passStats accumulates what the drivers observe over one or more passes.
type passStats struct {
	dial, pull, visit samples
	push              [3]samples // by codec on the wire
	pushes            atomic.Int64
	pushBytes         atomic.Int64
	samples           atomic.Int64
	attempted, failed atomic.Int64
	badFrames         atomic.Int64 // pushes whose uplink size was not the codec's frame size
	firstBad          atomic.Value // string: the first mismatch, for the report
}

// countConn counts the bytes a client writes. Each visit's client is used
// by one driver goroutine at a time, so the count needs no locking.
type countConn struct {
	net.Conn
	written int64
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written += int64(n)
	return n, err
}

// serverCounters are the flnet server's process-wide byte counters.
var (
	srvRead    = metrics.GetCounter("ecofl_flnet_server_bytes_read_total", "bytes read from portal connections")
	srvWritten = metrics.GetCounter("ecofl_flnet_server_bytes_written_total", "bytes written to portal connections")
)

// runPass sends every identity of the fleet on one visit to the server at
// addr, spread over f.drivers closed-loop drivers. Each driver holds at
// most one connection at a time.
func runPass(addr string, f fleet, in *fleetInputs, tr *tracer, st *passStats) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for d := 0; d < f.drivers; d++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			upd := make([]float64, f.weights)
			for {
				id := int(next.Add(1)) - 1
				if id >= f.identities {
					return
				}
				if err := visit(addr, id, f, in, upd, tr, tid, st); err != nil {
					st.failed.Add(1)
				}
			}
		}(d)
	}
	wg.Wait()
}

func visit(addr string, id int, f fleet, in *fleetInputs, upd []float64, tr *tracer, tid int, st *passStats) error {
	root := tr.begin(spanID{}, tid, "visit")
	defer root.end()
	t0 := time.Now()
	var cc countConn
	st.attempted.Add(1)
	sp := tr.begin(root, tid, "flnet.dial")
	c, err := flnet.DialOptions(addr, id, flnet.Options{
		Wire: flnet.WireBinary,
		Dialer: func(a string) (net.Conn, error) {
			conn, err := net.Dial("tcp", a)
			if err != nil {
				return nil, err
			}
			cc.Conn = conn
			return &cc, nil
		},
	})
	sp.end()
	if err != nil {
		return err
	}
	defer c.Close()
	st.dial.addDur(time.Since(t0))

	st.attempted.Add(1)
	t1 := time.Now()
	sp = tr.begin(root, tid, "flnet.pull")
	w, version, err := c.Pull()
	sp.end()
	if err != nil {
		return err
	}
	st.pull.addDur(time.Since(t1))

	codec := id % 3
	for j := 0; j < f.pushesPerVisit; j++ {
		noise := in.noise[(id*f.pushesPerVisit+j)%noisePool]
		for i := range upd {
			upd[i] = w[i] + noise[i]
		}
		// A fresh client holds no sparse reference yet, so its first
		// PushDelta re-syncs with a dense raw frame by design.
		wireCodec := codec
		if codec == codecSparse && j == 0 {
			wireCodec = codecRaw
		}
		name := "flnet.push_" + codecNames[wireCodec]
		if codec == codecSparse && j == 0 {
			name = "flnet.push_sparse_resync"
		}
		st.attempted.Add(1)
		before := cc.written
		t := time.Now()
		sp = tr.begin(root, tid, name)
		switch codec {
		case codecRaw:
			w, version, err = c.Push(upd, in.samples[id], version)
		case codecQuant:
			w, version, err = c.PushQuantized(upd, in.samples[id], version)
		default:
			w, version, err = c.PushDelta(upd, in.samples[id], version, f.topK)
		}
		sp.end()
		if err != nil {
			return err
		}
		st.push[wireCodec].addDur(time.Since(t))
		sent := cc.written - before
		if want := f.frameSize(wireCodec); sent != want {
			if st.badFrames.Add(1) == 1 {
				st.firstBad.Store(fmt.Sprintf("identity %d push %d (%s): %d uplink bytes, want %d",
					id, j, codecNames[codec], sent, want))
			}
		}
		st.pushes.Add(1)
		st.pushBytes.Add(sent)
		st.samples.Add(int64(in.samples[id]))
	}
	st.visit.addDur(time.Since(t0))
	return nil
}

// ingestFleet is the ingest workload's fleet: the paper's 300 portals
// (§6.1) sharing a 100k-weight model, with one driver per CPU.
func ingestFleet(toy bool, drivers int) fleet {
	if toy {
		return fleet{identities: 12, weights: 2000, pushesPerVisit: 4, topK: 20, drivers: drivers}
	}
	return fleet{identities: 300, weights: 100_000, pushesPerVisit: 4, topK: 1000, drivers: drivers}
}

// passServer is one pass's server and what it started from.
type passServer struct {
	srv       *flnet.Server
	readBase  int64
	writeBase int64
}

func startPassServer(in *fleetInputs) (*passServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv, err := flnet.NewServerOpts(ln, in.init, flnet.ServerOptions{Alpha: 0.5})
	if err != nil {
		ln.Close()
		return nil, err
	}
	return &passServer{srv: srv, readBase: srvRead.Value(), writeBase: srvWritten.Value()}, nil
}

// checkPass verifies the server's view of one pass against the drivers':
// every acked push was mixed exactly once, nothing was deduplicated, and
// the served model is finite.
func checkPass(r *run, ps *passServer, acked int64) {
	r.check(int64(ps.srv.Pushes()) == acked, "server counted %d pushes, drivers saw %d acked", ps.srv.Pushes(), acked)
	r.check(ps.srv.Deduped() == 0, "server deduplicated %d pushes of distinct updates", ps.srv.Deduped())
	w, _ := ps.srv.Snapshot()
	r.check(allFinite(w), "served model has a non-finite weight")
}

func allFinite(w []float64) bool {
	for _, v := range w {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// ingest runs whole passes of the fleet, each against a fresh server, until
// the timed total reaches the run length. A pass visits every identity
// exactly once: an flnet client's push sequence restarts at 1 on every
// dial, so a second visit by the same identity to the same server would be
// acknowledged from the dedup window instead of mixed.
func ingest(r *run) {
	f := ingestFleet(r.cfg.toy, r.drivers)
	gcw := startGCWindow()
	var total time.Duration
	for pass := 0; pass < 2 || total.Seconds() < r.cfg.seconds; pass++ {
		r.warm = pass == 0
		s0 := time.Now()
		in := newFleetInputs(r.cfg.seed, f)
		ps, err := startPassServer(in)
		if err != nil {
			r.fail("start server: %v", err)
			break
		}
		r.note("setup_s", time.Since(s0).Seconds(), "s", 1)
		st := &passStats{}
		t := startTimed()
		runPass(ps.srv.Addr(), f, in, r.tr, st)
		checkPass(r, ps, st.pushes.Load())
		el := t.stop(r)
		if !r.warm {
			total += el
		}
		if err := ps.srv.Close(); err != nil {
			r.fail("close server: %v", err)
		}
		r.attempted += st.attempted.Load()
		r.failed += st.failed.Load()
		if bad := st.badFrames.Load(); bad > 0 {
			r.check(false, "%d pushes had the wrong uplink size; first: %v", bad, st.firstBad.Load())
		}

		secs, pushes := el.Seconds(), float64(st.pushes.Load())
		all := mergeSamples(st.push[:])
		r.note("pushes_per_s", pushes/secs, "1/s", 1)
		r.note("client_updates_per_s", pushes/secs, "1/s", 1)
		r.noteQuantile("push_p50_s", all, 0.5, "s")
		r.noteQuantile("push_p99_s", all, 0.99, "s")
		r.noteQuantile("pull_p50_s", &st.pull, 0.5, "s")
		r.note("uplink_bytes_per_push", float64(st.pushBytes.Load())/pushes, "B", 1)
		r.note("samples_per_s", float64(st.samples.Load())/secs, "1/s", 1)
		r.noteQuantile("round_p50_s", &st.visit, 0.5, "s")
		r.noteQuantile("round_p95_s", &st.visit, 0.95, "s")
	}
	r.gcCycles, r.gcPauseP99 = gcw.finish()
	r.summarize()
}

func mergeSamples(ss []samples) *samples {
	out := &samples{}
	for i := range ss {
		out.v = append(out.v, ss[i].v...)
	}
	return out
}
