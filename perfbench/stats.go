package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0..100) of samples by linear
// interpolation between closest ranks; the samples are sorted in place.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	pos := p / 100 * float64(len(samples)-1)
	lo := int(pos)
	if lo+1 >= len(samples) {
		return samples[len(samples)-1]
	}
	frac := pos - float64(lo)
	return samples[lo] + frac*(samples[lo+1]-samples[lo])
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// durUs converts durations to microseconds.
func durUs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeSnap is the process counters a pass takes deltas of.
type runtimeSnap struct {
	wall       time.Time
	cpu        time.Duration // user + system CPU of the process (rusage)
	allocBytes uint64        // cumulative heap allocation
	gcCPU      float64       // runtime's estimate of GC CPU seconds
	busyCPU    float64       // runtime's estimate of non-idle CPU seconds
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func takeRuntimeSnap() runtimeSnap {
	s := runtimeSnap{wall: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	samples := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(samples)
	s.allocBytes = samples[0].Value.Uint64()
	s.gcCPU = samples[1].Value.Float64()
	s.busyCPU = samples[2].Value.Float64() - samples[3].Value.Float64()
	return s
}

// runtimeDelta is what a pass cost the process.
type runtimeDelta struct {
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
	gcCPUFrac  float64
}

func (a runtimeSnap) to(b runtimeSnap) runtimeDelta {
	return runtimeDelta{
		wall:       b.wall.Sub(a.wall),
		cpu:        b.cpu - a.cpu,
		allocBytes: b.allocBytes - a.allocBytes,
		gcCPUFrac:  ratio(b.gcCPU-a.gcCPU, b.busyCPU-a.busyCPU),
	}
}

// busyFrac is CPU busy time over the wall time of every core.
func (d runtimeDelta) busyFrac() float64 {
	return ratio(d.cpu.Seconds(), d.wall.Seconds()*float64(runtime.NumCPU()))
}

// heapSampler records the live heap each Go GC cycle measures while a pass
// runs. Live heap after marking does not depend on when the collector
// happens to run, as heap-in-use does; its mean over the cycles of a pass
// smooths the sawtooth of segment buffers that open, fill and retire.
type heapSampler struct {
	stop chan struct{}
	done chan []uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan []uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		last := s[0].Value.Uint64()
		var live []uint64
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				h.done <- live
				return
			case <-t.C:
			}
			metrics.Read(s)
			if c := s[0].Value.Uint64(); c != last {
				last = c
				live = append(live, s[1].Value.Uint64())
			}
		}
	}()
	return h
}

// stopMeanPeak ends sampling, waits for the sampler and returns the mean and the
// peak live heap in bytes.
func (h *heapSampler) stopMeanPeak() (mean, peak float64) {
	close(h.stop)
	live := <-h.done
	if len(live) == 0 {
		runtime.GC()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		live = append(live, s[0].Value.Uint64())
	}
	var sum float64
	for _, v := range live {
		sum += float64(v)
		peak = max(peak, float64(v))
	}
	return sum / float64(len(live)), peak
}
