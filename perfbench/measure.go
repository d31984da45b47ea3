package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// cpuSeconds returns the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapSampler records the peak live heap: the heap bytes marked live by
// the most recent garbage collection, read every interval from
// runtime/metrics (a read does not stop the world, unlike
// runtime.ReadMemStats). Unlike the allocated heap, it does not depend
// on when the collector happened to run.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler(interval time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.mu.Lock()
			h.peak = max(h.peak, sample[0].Value.Uint64())
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// timeSetup runs setup n times and returns the median wall time in
// seconds together with the last run's product; release, when non-nil,
// disposes of each earlier product. Each set-up starts after a forced
// collection, so garbage left by earlier work is not charged to it.
func timeSetup[T any](n int, setup func() (T, error), release func(T)) (T, float64, error) {
	var out T
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 && release != nil {
			release(out)
		}
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return out, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		out = v
	}
	return out, median(secs), nil
}
