package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// samples keeps every raw observation of one quantity so quantiles are
// exact order statistics rather than bucket interpolations. Safe for use by
// several drivers at once.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

func (s *samples) addDur(d time.Duration) { s.add(d.Seconds()) }

func (s *samples) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

// quantile returns the q-quantile of the raw samples: the value at rank
// ceil(q·n) of the sorted samples (nearest rank), so every reported
// percentile is a value that was actually observed.
func (s *samples) quantile(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return quantile(s.v, q)
}

func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// sampler watches the Go runtime while a timed region runs: the peak live
// heap (as marked by the collector) and the peak goroutine count. Reading
// runtime/metrics does not stop the world, so the sampler does not perturb
// what it watches beyond its own small goroutine.
type sampler struct {
	stop chan struct{}
	done chan struct{}

	mu             sync.Mutex
	heapPeak       float64
	goroutinesPeak int
}

const liveHeapMetric = "/gc/heap/live:bytes"

func liveHeap() float64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			s.observe()
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *sampler) observe() {
	h, g := liveHeap(), runtime.NumGoroutine()
	s.mu.Lock()
	s.heapPeak = math.Max(s.heapPeak, h)
	if g > s.goroutinesPeak {
		s.goroutinesPeak = g
	}
	s.mu.Unlock()
}

// noteHeap folds an explicit live-heap reading (taken right after a forced
// collection at the end of an episode, while its state is still reachable)
// into the peak.
func (s *sampler) noteHeap(h float64) {
	s.mu.Lock()
	s.heapPeak = math.Max(s.heapPeak, h)
	s.mu.Unlock()
}

// finish stops the sampler and waits for its goroutine to exit.
func (s *sampler) finish() (heapPeak float64, goroutinesPeak int) {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.heapPeak, s.goroutinesPeak
}

// settledHeap collects garbage and returns the live heap that survives it.
func settledHeap() float64 {
	runtime.GC()
	return liveHeap()
}

// gcWindow records collector activity between two points of a run.
type gcWindow struct{ start runtime.MemStats }

func startGCWindow() *gcWindow {
	w := &gcWindow{}
	runtime.ReadMemStats(&w.start)
	return w
}

// finish returns the number of collections since the window opened and the
// 99th percentile of their stop-the-world pauses, taken from the raw pause
// ring the runtime keeps (its last 256 entries).
func (w *gcWindow) finish() (cycles int, pauseP99 float64) {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	cycles = int(end.NumGC - w.start.NumGC)
	n := cycles
	if n > len(end.PauseNs) {
		n = len(end.PauseNs)
	}
	pauses := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		idx := (int(end.NumGC) - 1 - i + len(end.PauseNs)) % len(end.PauseNs)
		pauses = append(pauses, float64(end.PauseNs[idx])/1e9)
	}
	if len(pauses) == 0 {
		return cycles, 0
	}
	return cycles, quantile(pauses, 0.99)
}

// allocsPer runs f n times and returns the heap allocations and allocated
// bytes per call, counted process-wide (so a server goroutine's work on the
// caller's behalf is included).
func allocsPer(n int, f func()) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// timePer runs f until at least budget has elapsed (and at least min
// times) and returns the median duration of one call in seconds.
func timePer(budget time.Duration, min int, f func()) float64 {
	var d []float64
	start := time.Now()
	for len(d) < min || time.Since(start) < budget {
		t0 := time.Now()
		f()
		d = append(d, time.Since(t0).Seconds())
	}
	return median(d)
}
