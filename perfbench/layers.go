package main

import (
	"math/rand"
	"strconv"
	"time"

	"ecofl/internal/data"
	"ecofl/internal/experiments"
	"ecofl/internal/fl"
	"ecofl/internal/flnet"
	"ecofl/internal/flnet/wire"
	"ecofl/internal/model"
	"ecofl/internal/nn"
	"ecofl/internal/partition"
	"ecofl/internal/pipeline"
	"ecofl/internal/tensor"
)

// profile is the shapes and payloads a workload feeds each layer, so the
// per-layer replays measure the calls that workload makes.
type profile struct {
	fleet fleet // model size, top-k and fleet for flnet, wire and mixing
	// mlp and batch are the network and mini-batch nn trains on; the
	// kernels replay its widest dense layer at the rows it sees.
	mlp       []int
	batch     int
	rows      int // matrix rows per kernel call (micro-batch or batch)
	pop       func(seed int64) *fl.Population
	committee int // clients per TrainClients call
}

// workloadProfile returns the shapes of a workload. ingest does no model
// compute of its own; its compute layers are replayed on federation's
// shapes, which is also the model its portals would train.
func workloadProfile(cfg config, drivers int) profile {
	fp := fedSize(cfg.toy, 2)
	fedMLP := append(append([]int{32}, fp.hidden...), 10)
	fed := profile{
		fleet:     fleet{identities: fp.identities, weights: mlpWeights(fedMLP), pushesPerVisit: 4, topK: fp.topK, drivers: 1},
		mlp:       fedMLP,
		batch:     fp.batch,
		rows:      fp.mbs,
		pop:       func(seed int64) *fl.Population { return fedPopulation(seed, fp) },
		committee: 4,
	}
	switch cfg.workload {
	case "ingest":
		fed.fleet = ingestFleet(cfg.toy, drivers)
	case "fl-sim":
		sc := simScale(cfg.toy)
		simMLP := []int{32, 64, 10} // fl.NewPopulation's prototype
		n := mlpWeights(simMLP)
		return profile{
			fleet: fleet{identities: sc.Clients, weights: n, pushesPerVisit: 4, topK: max(n/100, 1), drivers: drivers},
			mlp:   simMLP,
			batch: 10,
			rows:  10,
			pop: func(seed int64) *fl.Population {
				return experiments.BuildPopulation(seed, "cifar10", sc, simConfig(seed, sc))
			},
			committee: sc.MaxConcurrent / 5,
		}
	}
	return fed
}

func mlpWeights(dims []int) int {
	n := 0
	for i := 0; i+1 < len(dims); i++ {
		n += dims[i]*dims[i+1] + dims[i+1]
	}
	return n
}

// fedPopulation is the federation's shards and model as an fl.Population,
// so the simulator's local-training calls run on federation's shapes.
func fedPopulation(seed int64, p fedParams) *fl.Population {
	rng := rand.New(rand.NewSource(seed))
	ds := data.MNISTLike(rng, p.datasetSize)
	_, test := ds.Split(0.85)
	shards := data.PartitionByClasses(rng, ds, p.identities, 2)
	tx, ty := test.Materialize()
	tr := model.NewTrainableMLP(rand.New(rand.NewSource(seed+1)), "federation", ds.Dim, p.hidden, ds.NumClasses)
	cfg := fl.Config{Seed: seed, MaxConcurrent: 4, LocalEpochs: 1, BatchSize: p.batch, LR: p.lr, Mu: p.mu}
	return fl.NewPopulationWithProto(rng, shards, tx, ty, cfg, tr.Network())
}

// budget is how long each replayed call is repeated for.
func (r *run) budget() time.Duration {
	if r.cfg.toy {
		return 2 * time.Millisecond
	}
	return 150 * time.Millisecond
}

// perLayer replays every layer's public calls on the workload's shapes.
func perLayer(r *run) {
	p := workloadProfile(r.cfg, r.drivers)
	tensorLayer(r, p)
	nnLayer(r, p)
	flLayer(r, p)
	wireLayer(r, p.fleet)
	flnetLayer(r, p.fleet)
	pipelineLayer(r)
}

func tensorLayer(r *run, p profile) {
	rng := rand.New(rand.NewSource(r.cfg.seed))
	// The widest dense layer: in × out at the rows one call sees.
	in, out := p.mlp[0], p.mlp[1]
	for i := 1; i+1 < len(p.mlp); i++ {
		if p.mlp[i]*p.mlp[i+1] > in*out {
			in, out = p.mlp[i], p.mlp[i+1]
		}
	}
	m := p.rows
	flops := 2 * float64(m*in*out)
	gflops := func(f func()) float64 { return flops / timePer(r.budget(), 20, f) / 1e9 }
	x, w := tensor.Randn(rng, 1, m, in), tensor.Randn(rng, 1, in, out)
	dy := tensor.Randn(rng, 1, m, out)
	fwd, dw, dx := tensor.New(m, out), tensor.New(in, out), tensor.New(m, in)
	r.set("tensor.matmul_gflops", gflops(func() { tensor.MatMulInto(fwd, x, w) }), "GFLOP/s")
	r.set("tensor.matmul_at_gflops", gflops(func() { tensor.MatMulATInto(dw, x, dy) }), "GFLOP/s")
	r.set("tensor.matmul_bt_gflops", gflops(func() { tensor.MatMulBTInto(dx, dy, w) }), "GFLOP/s")
}

func nnLayer(r *run, p profile) {
	rng := rand.New(rand.NewSource(r.cfg.seed))
	net := nn.NewMLP(rng, p.mlp...)
	x := tensor.Randn(rng, 1, p.batch, p.mlp[0])
	labels := make([]int, p.batch)
	for i := range labels {
		labels[i] = rng.Intn(p.mlp[len(p.mlp)-1])
	}
	opt := &nn.SGD{LR: 0.01}
	step := func() { net.TrainBatch(x, labels, opt) }
	r.set("nn.train_batch_s", timePer(r.budget(), 20, step), "s")
	allocs, _ := allocsPer(50, step)
	r.set("nn.train_batch_allocs", allocs, "count")
}

func flLayer(r *run, p profile) {
	pop := p.pop(r.cfg.seed)
	rng := rand.New(rand.NewSource(r.cfg.seed))
	ref := pop.GlobalInit()
	mu := pop.Config.Mu
	i := 0
	r.set("fl.local_train_s", timePer(r.budget(), 5, func() {
		pop.LocalTrain(rng, pop.Clients[i%len(pop.Clients)], ref, mu)
		i++
	}), "s")
	sel := pop.Clients[:min(p.committee, len(pop.Clients))]
	train := func() { pop.TrainClients(rng, sel, ref, mu) }
	par := timePer(r.budget(), 5, train)
	prev := tensor.Parallelism()
	tensor.SetParallelism(1)
	serial := timePer(r.budget(), 5, train)
	tensor.SetParallelism(prev)
	r.set("fl.train_clients_s", par, "s")
	r.set("fl.train_clients_speedup", serial/par, "ratio")
	updates := pop.TrainClients(rng, sel, ref, mu)
	weights := make([]float64, len(sel))
	for k, c := range sel {
		weights[k] = float64(c.Train.Len())
	}
	r.set("fl.aggregate_s", timePer(r.budget(), 20, func() { fl.WeightedAverage(updates, weights) }), "s")
	r.set("fl.evaluate_s", timePer(r.budget(), 5, func() { pop.Evaluate(ref) }), "s")
}

// wireLayer replays the codecs and the server's mixing kernels on the
// workload's model size: encode into and decode from reused buffers, the
// way the transport does.
func wireLayer(r *run, f fleet) {
	in := newFleetInputs(r.cfg.seed, f)
	w, upd := in.init, make([]float64, f.weights)
	for i := range upd {
		upd[i] = w[i] + in.noise[0][i]
	}
	dst := make([]float64, f.weights)
	budget := r.budget()

	raw := wire.AppendRaw(nil, upd)
	rawEnc := func() { raw = wire.AppendRaw(raw[:0], upd) }
	rawDec := func() { wire.ParseRaw(raw, dst) }
	r.set("wire.raw_encode_s", timePer(budget, 20, rawEnc), "s")
	r.set("wire.raw_decode_s", timePer(budget, 20, rawDec), "s")

	var q flnet.Quantized
	flnet.QuantizeInto(upd, &q)
	quant := wire.AppendQuant(nil, q.Min, q.Scale, q.Data)
	quantEnc := func() {
		flnet.QuantizeInto(upd, &q)
		quant = wire.AppendQuant(quant[:0], q.Min, q.Scale, q.Data)
	}
	quantDec := func() {
		lo, scale, data, _ := wire.ParseQuant(quant)
		dq := flnet.Quantized{Min: lo, Scale: scale, Data: data}
		dq.DequantizeInto(dst)
	}
	r.set("wire.quant_encode_s", timePer(budget, 20, quantEnc), "s")
	r.set("wire.quant_decode_s", timePer(budget, 20, quantDec), "s")

	idx, vals := fl.TopKDelta(upd, w, f.topK, nil, nil)
	sparse := wire.AppendSparse(nil, f.weights, idx, vals)
	idxDst, valsDst := make([]uint32, 0, f.topK), make([]float64, 0, f.topK)
	sparseEnc := func() { sparse = wire.AppendSparse(sparse[:0], f.weights, idx, vals) }
	sparseDec := func() { wire.ParseSparse(sparse, idxDst, valsDst) }
	r.set("wire.sparse_encode_s", timePer(budget, 20, sparseEnc), "s")
	r.set("wire.sparse_decode_s", timePer(budget, 20, sparseDec), "s")

	for _, c := range []struct {
		name     string
		enc, dec func()
	}{{"raw", rawEnc, rawDec}, {"quant", quantEnc, quantDec}, {"sparse", sparseEnc, sparseDec}} {
		allocs, _ := allocsPer(50, func() { c.enc(); c.dec() })
		r.set("wire."+c.name+"_allocs", allocs, "count")
	}

	global := append([]float64(nil), w...)
	r.set("fl.async_mix_s", timePer(budget, 20, func() { fl.AsyncMix(global, upd, 0.5) }), "s")
	r.set("fl.topk_delta_s", timePer(budget, 20, func() { idx, vals = fl.TopKDelta(upd, w, f.topK, idx, vals) }), "s")
}

// flnetLayer runs one traced pass of the workload's fleet against a fresh
// server and reads each flnet call's self time from the spans, then
// measures the server's per-push allocations and retained state.
func flnetLayer(r *run, f fleet) {
	in := newFleetInputs(r.cfg.seed, f)
	ps, err := startPassServer(in)
	if err != nil {
		r.fail("flnet replay server: %v", err)
		return
	}
	defer ps.srv.Close()
	base := settledHeap()
	st := &passStats{}
	tr := newTracer()
	runPass(ps.srv.Addr(), f, in, tr, st)
	r.attempted += st.attempted.Load()
	r.failed += st.failed.Load()
	checkPass(r, ps, st.pushes.Load())
	self := tr.selfTimes()
	for _, name := range []string{"dial", "pull", "push_raw", "push_quant", "push_sparse"} {
		r.setMedian("flnet."+name+"_s", self["flnet."+name], "s")
	}
	pushes := float64(st.pushes.Load())
	r.set("flnet.server_read_bytes_per_push", float64(srvRead.Value()-ps.readBase)/pushes, "B")
	r.set("flnet.server_written_bytes_per_push", float64(srvWritten.Value()-ps.writeBase)/pushes, "B")
	r.set("flnet.server_retained_bytes", settledHeap()-base, "B")
	r.set("flnet.snapshot_s", timePer(r.budget(), 20, func() { ps.srv.Snapshot() }), "s")

	// A further identity pushes raw updates on one connection: the
	// allocations per push cover the client and the server together.
	c, err := flnet.DialOptions(ps.srv.Addr(), f.identities, flnet.Options{Wire: flnet.WireBinary})
	if err != nil {
		r.fail("flnet replay dial: %v", err)
		return
	}
	defer c.Close()
	w, version, err := c.Pull()
	if err != nil {
		r.fail("flnet replay pull: %v", err)
		return
	}
	upd := make([]float64, len(w))
	push := func() {
		for i := range upd {
			upd[i] = w[i] + in.noise[version%noisePool][i]
		}
		r.attempted++
		if w, version, err = c.Push(upd, 1, version); err != nil {
			r.failed++
			r.fail("flnet replay push: %v", err)
		}
	}
	push() // warm the connection's buffers
	allocs, bytes := allocsPer(20, push)
	r.set("flnet.push_allocs", allocs, "count")
	r.set("flnet.push_bytes_alloc", bytes, "B")
}

// pipelineLayer runs one traced round of the federation (each identity
// takes one turn) and reads the pipeline's sync-round times and stage
// utilisation, then compares the measured idle share with the schedule
// model's prediction for the same plan.
func pipelineLayer(r *run) {
	p := fedSize(r.cfg.toy, r.stages)
	p.rounds = 1
	e, err := newFedEpisode(r.cfg.seed, p)
	if err != nil {
		r.fail("pipeline replay set-up: %v", err)
		return
	}
	defer e.close()
	st := &fedStats{stageBusy: make([]samples, p.stages)}
	tr := newTracer()
	if _, _, err := e.play(tr, st); err != nil {
		r.fail("pipeline replay: %v", err)
		return
	}
	r.attempted += st.attempted
	r.setMedian("pipeline.round_s", tr.selfTimes()["pipeline.round"], "s")
	for s := range st.stageBusy {
		r.setQuantile("pipeline.stage_busy."+strconv.Itoa(s), &st.stageBusy[s], 0.5, "ratio")
	}
	r.setQuantile("pipeline.idle_share", &st.idle, 0.5, "ratio")

	b := e.shards[0].Batches(rand.New(rand.NewSource(r.cfg.seed)), p.batch)[0]
	opt := &nn.SGD{LR: p.lr}
	allocs, _ := allocsPer(20, func() {
		if _, err := e.pipe.TrainSyncRound(b.X, b.Y, p.mbs, opt); err != nil {
			r.fail("pipeline replay round: %v", err)
		}
	})
	r.set("pipeline.round_allocs", allocs, "count")

	res, err := pipeline.Schedule(&pipeline.Config{
		Spec: e.tr.Spec, Stages: e.plan.Stages, MicroBatchSize: p.mbs, NumMicroBatches: (p.batch + p.mbs - 1) / p.mbs,
	})
	if err != nil {
		r.fail("pipeline schedule: %v", err)
		return
	}
	r.set("pipeline.sim_idle_share", 1-mean(res.StageUtil), "ratio")

	devs := fedDevices(p.stages)
	r.set("partition.plan_s", timePer(r.budget(), 20, func() {
		if _, err := partition.DynamicProgrammingBatch(e.tr.Spec, devs, p.mbs); err != nil {
			r.fail("partition: %v", err)
		}
	}), "s")
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
