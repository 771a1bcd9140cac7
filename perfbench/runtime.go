package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// heapSampleEvery is the peak-heap sampling period: short next to a GC
// cycle of any workload here, cheap next to the work (a runtime/metrics
// read does not stop the world).
const heapSampleEvery = 2 * time.Millisecond

// heapPeak samples the live Go heap in the background and keeps the
// largest value seen since the last take.
type heapPeak struct {
	done chan struct{}
	once sync.Once
	wg   sync.WaitGroup
	peak atomic.Uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			h.sample()
			select {
			case <-h.done:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapPeak) sample() {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for old := h.peak.Load(); v > old && !h.peak.CompareAndSwap(old, v); old = h.peak.Load() {
	}
}

// take returns the peak in MB since the previous take and starts a new
// one. Taking it around each round and reporting the median keeps one
// round's collection timing, or in figures-quick which jobs its two
// workers happen to overlap, from setting the run's figure.
func (h *heapPeak) take() float64 {
	h.sample()
	return float64(h.peak.Swap(0)) / (1 << 20)
}

// stop ends the sampler; it may be called more than once.
func (h *heapPeak) stop() {
	h.once.Do(func() {
		close(h.done)
		h.wg.Wait()
	})
}

// runtimeCounters is a snapshot of the process-wide allocation and GC
// counters; differences between two snapshots attribute them to the work
// in between.
type runtimeCounters struct {
	allocs   uint64  // heap objects allocated
	bytes    uint64  // heap bytes allocated
	gcCPUSec float64 // CPU seconds spent in the garbage collector
	// cpuSec is the process's user and system CPU time. Unlike wall
	// time it leaves out time the host stole from the VM's vCPUs.
	cpuSec float64
}

// readCounters snapshots the counters. Allocation counts come from
// MemStats, which flushes per-P caches (runtime/metrics may lag and omits
// tiny allocations); its brief stop-the-world is negligible next to the
// rounds it brackets.
func readCounters() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	return runtimeCounters{
		allocs:   ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcCPUSec: gc[0].Value.Float64(),
		cpuSec:   cpuTime(),
	}
}

// cpuTime is the process's user and system CPU time so far, in seconds.
func cpuTime() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only on a bad argument
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func (c runtimeCounters) sub(o runtimeCounters) runtimeCounters {
	return runtimeCounters{c.allocs - o.allocs, c.bytes - o.bytes, c.gcCPUSec - o.gcCPUSec, c.cpuSec - o.cpuSec}
}

func (c runtimeCounters) add(o runtimeCounters) runtimeCounters {
	return runtimeCounters{c.allocs + o.allocs, c.bytes + o.bytes, c.gcCPUSec + o.gcCPUSec, c.cpuSec + o.cpuSec}
}
