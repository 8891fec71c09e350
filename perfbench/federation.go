package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net"
	"time"

	"ecofl/internal/data"
	"ecofl/internal/device"
	"ecofl/internal/flnet"
	"ecofl/internal/model"
	"ecofl/internal/nn"
	"ecofl/internal/partition"
	"ecofl/internal/pipeline/runtime"
	"ecofl/internal/tensor"
)

// fedParams sizes the federation workload: the ecofl-portal loop run in
// process, identities taking one turn at a time.
type fedParams struct {
	identities  int
	datasetSize int
	hidden      []int
	batch, mbs  int
	rounds      int // turns per episode = rounds × identities
	stages      int
	lr, mu      float64
	topK        int
}

func fedSize(toy bool, stages int) fedParams {
	if toy {
		return fedParams{identities: 4, datasetSize: 400, hidden: []int{16, 16}, batch: 32, mbs: 8,
			rounds: 1, stages: stages, lr: 0.05, mu: 0.05, topK: 8}
	}
	// The ~22k-weight block MLP of model.NewTrainableMLP(…, 32,
	// {128, 128}, 10); top-k is 1% of it.
	return fedParams{identities: 20, datasetSize: 3000, hidden: []int{128, 128}, batch: 64, mbs: 16,
		rounds: 10, stages: stages, lr: 0.05, mu: 0.05, topK: 220}
}

// fedEpisode is one federation's state: a fresh server, the portals'
// clients, and the shared in-home pipeline.
type fedEpisode struct {
	p       fedParams
	srv     *flnet.Server
	clients []*flnet.Client
	conns   []*countConn
	shards  []*data.Subset
	rngs    []*rand.Rand
	tr      *model.Trainable
	pipe    *runtime.DistPipeline
	plan    *partition.Plan
	testX   *tensor.Tensor
	testY   []int
}

// fedDevices are the in-home devices the pipeline is partitioned over.
func fedDevices(n int) []*device.Device {
	devs := make([]*device.Device, n)
	for i := range devs {
		devs[i] = device.NanoH()
	}
	return devs
}

// newFedEpisode builds everything a federation needs before its first turn:
// the dataset and shards, the model, the partition plan, the pipeline, the
// server and one dialed client per identity.
func newFedEpisode(seed int64, p fedParams) (*fedEpisode, error) {
	rng := rand.New(rand.NewSource(seed))
	ds := data.MNISTLike(rng, p.datasetSize)
	_, test := ds.Split(0.85)
	e := &fedEpisode{p: p, shards: data.PartitionByClasses(rng, ds, p.identities, 2)}
	e.testX, e.testY = test.Materialize()
	e.tr = model.NewTrainableMLP(rand.New(rand.NewSource(seed+1)), "federation", ds.Dim, p.hidden, ds.NumClasses)

	plan, err := partition.DynamicProgrammingBatch(e.tr.Spec, fedDevices(p.stages), p.mbs)
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	e.plan = plan
	if e.pipe, err = runtime.NewDistributed(e.tr, plan.Cuts(), runtime.TCPLinks()); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if e.srv, err = flnet.NewServerOpts(ln, e.tr.Network().FlatWeights(), flnet.ServerOptions{Alpha: 0.5}); err != nil {
		ln.Close()
		return nil, err
	}
	for id := 0; id < p.identities; id++ {
		cc := &countConn{}
		c, err := flnet.DialOptions(e.srv.Addr(), id, flnet.Options{
			Wire: flnet.WireBinary,
			Dialer: func(a string) (net.Conn, error) {
				conn, err := net.Dial("tcp", a)
				if err != nil {
					return nil, err
				}
				cc.Conn = conn
				return cc, nil
			},
		})
		if err != nil {
			e.close()
			return nil, err
		}
		e.clients = append(e.clients, c)
		e.conns = append(e.conns, cc)
		e.rngs = append(e.rngs, rand.New(rand.NewSource(seed*1000+int64(id))))
	}
	return e, nil
}

func (e *fedEpisode) close() {
	for _, c := range e.clients {
		c.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
}

// fedStats accumulates what the federation driver observes.
type fedStats struct {
	turn, pull, push  samples
	stageBusy         []samples
	idle              samples // per sync-round: 1 − mean stage utilisation
	turns, samples    int64
	pushBytes         int64
	attempted, failed int64
	badFrames         int64
	firstBad          string
}

// turn is one portal round: pull the global model, train one local FedProx
// epoch through the pipeline, push the update with the identity's codec.
// pushed reports whether this identity has pushed before in the episode
// (its first sparse push re-syncs with a dense frame).
func (e *fedEpisode) turn(id int, pushed bool, tr *tracer, st *fedStats) error {
	c, cc := e.clients[id], e.conns[id]
	root := tr.begin(spanID{}, 0, "round")
	defer root.end()
	t0 := time.Now()

	st.attempted++
	sp := tr.begin(root, 0, "flnet.pull")
	w, version, err := c.Pull()
	sp.end()
	if err != nil {
		return err
	}
	st.pull.addDur(time.Since(t0))

	nw := e.pipe.Network()
	nw.SetFlatWeights(w)
	opt := &nn.SGD{LR: e.p.lr, Mu: e.p.mu, Global: w}
	for _, b := range e.shards[id].Batches(e.rngs[id], e.p.batch) {
		st.attempted++
		sp = tr.begin(root, 0, "pipeline.round")
		_, err := e.pipe.TrainSyncRound(b.X, b.Y, e.p.mbs, opt)
		sp.end()
		if err != nil {
			return err
		}
		util := e.pipe.LastRoundStats().StageUtilization()
		for s, u := range util {
			st.stageBusy[s].add(u)
		}
		st.idle.add(1 - mean(util))
	}
	upd := nw.FlatWeights()

	codec := id % 3
	wireCodec := codec
	if codec == codecSparse && !pushed {
		wireCodec = codecRaw
	}
	st.attempted++
	before := cc.written
	t1 := time.Now()
	sp = tr.begin(root, 0, "flnet.push_"+codecNames[wireCodec])
	samplesN := e.shards[id].Len()
	switch codec {
	case codecRaw:
		_, _, err = c.Push(upd, samplesN, version)
	case codecQuant:
		_, _, err = c.PushQuantized(upd, samplesN, version)
	default:
		_, _, err = c.PushDelta(upd, samplesN, version, e.p.topK)
	}
	sp.end()
	if err != nil {
		return err
	}
	st.push.addDur(time.Since(t1))
	sent := cc.written - before
	f := fleet{weights: len(upd), topK: e.p.topK}
	if want := f.frameSize(wireCodec); sent != want {
		st.badFrames++
		if st.firstBad == "" {
			st.firstBad = fmt.Sprintf("identity %d (%s): %d uplink bytes, want %d", id, codecNames[codec], sent, want)
		}
	}
	st.pushBytes += sent
	st.turns++
	st.samples += int64(samplesN)
	st.turn.addDur(time.Since(t0))
	return nil
}

// play runs the episode's turns in order and returns the final global
// model's test accuracy and a hash of its exact bits.
func (e *fedEpisode) play(tr *tracer, st *fedStats) (acc float64, hash uint64, err error) {
	pushed := make([]bool, e.p.identities)
	for t := 0; t < e.p.rounds*e.p.identities; t++ {
		id := t % e.p.identities
		if err := e.turn(id, pushed[id], tr, st); err != nil {
			st.failed++
			return 0, 0, fmt.Errorf("turn %d (identity %d): %w", t, id, err)
		}
		pushed[id] = true
	}
	w, _ := e.srv.Snapshot()
	if !allFinite(w) {
		return 0, 0, fmt.Errorf("final model has a non-finite weight")
	}
	eval := e.tr.Network()
	eval.SetFlatWeights(w)
	return eval.Accuracy(e.testX, e.testY), hashWeights(w), nil
}

func hashWeights(w []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range w {
		bits := math.Float64bits(v)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// federation runs whole episodes, each from a fresh server and model, until
// the timed total reaches the run length. Every episode replays the same
// seeded turns, so each must end on the same model.
func federation(r *run) {
	p := fedSize(r.cfg.toy, r.stages)
	gcw := startGCWindow()
	var total time.Duration
	for ep := 0; ep < 2 || total.Seconds() < r.cfg.seconds; ep++ {
		r.warm = ep == 0
		s0 := time.Now()
		e, err := newFedEpisode(r.cfg.seed, p)
		if err != nil {
			r.fail("federation set-up: %v", err)
			break
		}
		r.note("setup_s", time.Since(s0).Seconds(), "s", 1)
		st := &fedStats{stageBusy: make([]samples, p.stages)}
		t := startTimed()
		acc, hash, err := e.play(r.tr, st)
		el := t.stop(r)
		if !r.warm {
			total += el
		}
		e.close()
		r.attempted += st.attempted
		r.failed += st.failed
		if err != nil {
			r.fail("federation: %v", err)
			break
		}
		if st.badFrames > 0 {
			r.check(false, "%d pushes had the wrong uplink size; first: %s", st.badFrames, st.firstBad)
		}
		if ep == 0 {
			r.finalAccuracy, r.finalHash = acc, hash
		} else {
			r.check(hash == r.finalHash && acc == r.finalAccuracy,
				"episode %d ended on model %016x (accuracy %v), episode 0 on %016x (accuracy %v)",
				ep, hash, acc, r.finalHash, r.finalAccuracy)
		}

		secs, turns := el.Seconds(), float64(st.turns)
		r.note("pushes_per_s", turns/secs, "1/s", 1)
		r.note("client_updates_per_s", turns/secs, "1/s", 1)
		r.noteQuantile("push_p50_s", &st.push, 0.5, "s")
		r.noteQuantile("push_p99_s", &st.push, 0.99, "s")
		r.noteQuantile("pull_p50_s", &st.pull, 0.5, "s")
		r.note("uplink_bytes_per_push", float64(st.pushBytes)/turns, "B", 1)
		r.note("samples_per_s", float64(st.samples)/secs, "1/s", 1)
		r.noteQuantile("round_p50_s", &st.turn, 0.5, "s")
		r.noteQuantile("round_p95_s", &st.turn, 0.95, "s")
	}
	r.check(r.cfg.toy || r.finalAccuracy >= fedAccuracyFloor,
		"final accuracy %.4f is below the floor %.2f", r.finalAccuracy, fedAccuracyFloor)
	r.gcCycles, r.gcPauseP99 = gcw.finish()
	r.summarize()
}

// fedAccuracyFloor is the least test accuracy a full-size federation must
// reach; it sits well below what the seeded runs reach, so only a real
// training regression trips it.
const fedAccuracyFloor = 0.5
