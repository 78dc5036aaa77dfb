package main

import (
	"math"
	"runtime/metrics"
	"syscall"
	"time"
)

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime metrics the benchmark reads.
const (
	rmGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU  = "/cpu/classes/total:cpu-seconds"
	rmIdleCPU   = "/cpu/classes/idle:cpu-seconds"
	rmAllocs    = "/gc/heap/allocs:objects"
	rmSchedLat  = "/sched/latencies:seconds"
	rmHeapInUse = "/memory/classes/heap/objects:bytes"
)

// runtimeReading is one read of the runtime metrics above.
type runtimeReading struct {
	gcCPU, totalCPU, idleCPU float64
	allocs                   uint64
	schedBuckets             []float64
	schedCounts              []uint64
}

func readRuntime() runtimeReading {
	s := []metrics.Sample{{Name: rmGCCPU}, {Name: rmTotalCPU}, {Name: rmIdleCPU}, {Name: rmAllocs}, {Name: rmSchedLat}}
	metrics.Read(s)
	r := runtimeReading{
		gcCPU:    s[0].Value.Float64(),
		totalCPU: s[1].Value.Float64(),
		idleCPU:  s[2].Value.Float64(),
		allocs:   s[3].Value.Uint64(),
	}
	h := s[4].Value.Float64Histogram()
	r.schedBuckets = h.Buckets
	r.schedCounts = append([]uint64(nil), h.Counts...)
	return r
}

// runtimeDelta is the runtime's activity over a window.
type runtimeDelta struct {
	gcCPU, busyCPU float64
	allocs         uint64
	schedBuckets   []float64
	schedCounts    []uint64
}

func (r runtimeReading) sub(base runtimeReading) runtimeDelta {
	d := runtimeDelta{
		gcCPU:        r.gcCPU - base.gcCPU,
		busyCPU:      (r.totalCPU - r.idleCPU) - (base.totalCPU - base.idleCPU),
		allocs:       r.allocs - base.allocs,
		schedBuckets: r.schedBuckets,
		schedCounts:  make([]uint64, len(r.schedCounts)),
	}
	for i := range r.schedCounts {
		d.schedCounts[i] = r.schedCounts[i] - base.schedCounts[i]
	}
	return d
}

// histQuantile is the q-quantile of a runtime/metrics histogram,
// interpolated linearly inside the bucket it falls in (an infinite
// bucket edge is replaced by the finite one).
func histQuantile(buckets []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := buckets[i], buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = hi
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return buckets[len(buckets)-1]
}

// heapSampler records the peak of heap memory in use by objects.
type heapSampler struct {
	stopc chan struct{}
	done  chan uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: rmHeapInUse}}
		var peak uint64
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-t.C:
			case <-h.stopc:
				h.done <- peak
				return
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	return <-h.done
}
