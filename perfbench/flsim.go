package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"ecofl/internal/experiments"
	"ecofl/internal/fl"
)

// simScale is the fl-sim workload's scale: the paper's fleet (300 clients,
// at most 20 training at once, §6.1) in full, a tiny fleet in toy mode.
func simScale(toy bool) experiments.Scale {
	if toy {
		return experiments.Scale{Clients: 20, DatasetSize: 600, Duration: 300, EvalInterval: 60, MaxConcurrent: 10, LocalEpochs: 1}
	}
	return experiments.Full
}

// simConfig is the Fig. 7 configuration of the Eco-FL strategy: latency+JS
// grouping (λ = 500) with dynamic collaborative degrees.
func simConfig(seed int64, sc experiments.Scale) fl.Config {
	return fl.Config{
		Seed:            seed,
		MaxConcurrent:   sc.MaxConcurrent,
		LocalEpochs:     sc.LocalEpochs,
		BatchSize:       10,
		LR:              0.05,
		Mu:              0.05,
		Alpha:           0.5,
		Lambda:          500,
		NumGroups:       5,
		GroupSyncEvery:  2,
		RTThreshold:     15,
		Duration:        sc.Duration,
		EvalInterval:    sc.EvalInterval,
		Dynamic:         true,
		DynamicProb:     0.2,
		DynamicInterval: sc.Duration / 25,
		MeanDelay:       40,
		StdDelay:        12,
	}
}

// timedMean is the simulator's default in-group aggregation,
// fl.WeightedAverage (the call Config.aggregate makes when no robust
// aggregator is set), with a clock on it. The simulator calls it once per
// committed group round, right after the committee trained, so the gap
// between two calls is one group round of wall time: the committee
// training from the group model and pushing its updates into it.
type timedMean struct {
	tr    *tracer
	last  time.Time
	round *samples
	bytes int64
	n     int64
}

func (a *timedMean) Name() string { return "mean" }

func (a *timedMean) Aggregate(_ []float64, updates [][]float64, weights []float64) []float64 {
	sp := a.tr.begin(spanID{}, 0, "fl.aggregate")
	out := fl.WeightedAverage(updates, weights)
	sp.end()
	end := time.Now()
	a.round.add(end.Sub(a.last).Seconds())
	a.last = end
	for _, u := range updates {
		a.bytes += int64(8 * len(u))
	}
	a.n += int64(len(updates))
	return out
}

// curveHash fingerprints an accuracy curve bit for bit.
func curveHash(res *fl.RunResult) uint64 {
	h := fnv.New64a()
	for _, p := range res.Curve {
		fmt.Fprintf(h, "%x %x\n", math.Float64bits(p.Time), math.Float64bits(p.Accuracy))
	}
	return h.Sum64()
}

// flsim runs the eco-fl strategy on the cifar-like preset, once per
// episode from a freshly built population, until the timed total reaches
// the run length. The virtual-time curve depends only on the seed, so
// every episode must draw the same one.
func flsim(r *run) {
	sc := simScale(r.cfg.toy)
	gcw := startGCWindow()
	var total time.Duration
	for ep := 0; ep < 2 || total.Seconds() < r.cfg.seconds; ep++ {
		r.warm = ep == 0
		s0 := time.Now()
		agg := &timedMean{tr: r.tr, round: &samples{}}
		cfg := simConfig(r.cfg.seed, sc)
		cfg.Robust = agg
		pop := experiments.BuildPopulation(r.cfg.seed, "cifar10", sc, cfg)
		r.note("setup_s", time.Since(s0).Seconds(), "s", 1)

		sp := r.tr.begin(spanID{}, 0, "fl.run")
		t := startTimed()
		agg.last = t.start
		res, err := fl.RunByName(pop, "eco-fl")
		sp.end()
		el := t.stop(r)
		if !r.warm {
			total += el
		}
		r.attempted++
		if err != nil {
			r.failed++
			r.fail("fl-sim: %v", err)
			break
		}
		var updates, trained int64
		for id, k := range res.Participation {
			updates += int64(k)
			trained += int64(k * pop.Clients[id].Train.Len() * cfg.LocalEpochs)
		}
		h := curveHash(res)
		if ep == 0 {
			r.finalAccuracy, r.finalHash = res.FinalAccuracy, h
		} else {
			r.check(h == r.finalHash, "episode %d drew curve %016x, episode 0 drew %016x", ep, h, r.finalHash)
		}

		secs := el.Seconds()
		r.note("pushes_per_s", float64(agg.n)/secs, "1/s", 1)
		r.note("client_updates_per_s", float64(updates)/secs, "1/s", 1)
		r.noteQuantile("push_p50_s", agg.round, 0.5, "s")
		r.noteQuantile("push_p99_s", agg.round, 0.99, "s")
		r.note("uplink_bytes_per_push", float64(agg.bytes)/float64(agg.n), "B", 1)
		r.note("samples_per_s", float64(trained)/secs, "1/s", 1)
		r.noteQuantile("round_p50_s", agg.round, 0.5, "s")
		r.noteQuantile("round_p95_s", agg.round, 0.95, "s")
	}
	r.check(r.cfg.toy || r.finalAccuracy >= simAccuracyFloor,
		"final accuracy %.4f is below the floor %.2f", r.finalAccuracy, simAccuracyFloor)
	r.gcCycles, r.gcPauseP99 = gcw.finish()
	r.summarize()
}

// simAccuracyFloor is the least final accuracy the full-size eco-fl run
// must reach on the cifar-like preset (seeded runs land near 0.45–0.55;
// chance is 0.1).
const simAccuracyFloor = 0.3
