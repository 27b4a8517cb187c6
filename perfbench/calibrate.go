package main

import (
	"container/heap"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The benchmark's hosts change speed by up to 2× over minutes (other
// tenants share the cores: an identical 1.5 s task measured 1.13–1.88 s
// within three minutes, user+system CPU time moving with it, so it is
// not steal). Timings are therefore reported in reference seconds: each
// is multiplied by refKernel over the time of calibration kernels run
// just before and just after it. The kernel is fixed code that does
// not touch the program, so a change to the program moves the metrics
// one for one while a change in the host's speed cancels out. Over 114
// sweeps of one fixed Lab on the reference host, scaling each by its
// neighbouring kernels cut the spread of its time from 0.20 to 0.10 of
// the median; a memory-bound kernel (random access over 32 MB) and an
// allocation-heavy one tracked the sweep less well. The kernel runs on
// every core at once: over ~115 sweeps of each table workload, that
// cut the scaled spread from 0.15 to 0.11 (periodic-sweep) and from
// 0.16 to 0.14 (stranded-power) against one copy on one core, since a
// sweep's garbage collector uses the second core too.

// refKernel is the kernel's median time on the reference host, the
// 2-core machine the bounds were set on.
const refKernel = 22 * time.Millisecond

// calibration collects kernel timings over a run.
type calibration struct {
	samples []float64
}

// sample times the kernel a few times and returns the median time, in
// seconds; callers invoke it next to the work being measured, never
// inside it.
func (c *calibration) sample() float64 {
	var ts []float64
	for i := 0; i < 5; i++ {
		ts = append(ts, kernel().Seconds())
	}
	c.samples = append(c.samples, ts...)
	return median(ts)
}

// scale converts a wall time measured between two samples, whose
// kernel times were before and after, to reference seconds.
func scale(wall, before, after float64) float64 {
	return wall * refKernel.Seconds() / ((before + after) / 2)
}

// factor is refKernel over the run's median kernel time: below 1 on a
// slow spell, above 1 on a fast one.
func (c *calibration) factor() float64 {
	if len(c.samples) == 0 {
		return 1
	}
	return refKernel.Seconds() / median(c.samples)
}

// kernelSink keeps the kernel's result live.
var kernelSink float64

// kernel runs one copy of the work on each of GOMAXPROCS goroutines and
// returns the wall time until all have finished.
func kernel() time.Duration {
	t := time.Now()
	n := runtime.GOMAXPROCS(0)
	sums := make([]float64, n)
	var wg sync.WaitGroup
	for i := range sums {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i] = kernelWork()
		}(i)
	}
	wg.Wait()
	for _, s := range sums {
		kernelSink += s
	}
	return time.Since(t)
}

// kernelWork is a fixed mix of the simulator's kinds of work: a binary heap
// of events, a sort, map updates and floating-point arithmetic, over
// freshly allocated memory.
func kernelWork() float64 {
	rng := rand.New(rand.NewSource(1))
	h := make(eventHeap, 0, 1<<14)
	for i := 0; i < 1<<14; i++ {
		heap.Push(&h, rng.Float64())
	}
	xs := make([]float64, 0, 1<<16)
	for i := 0; i < 1<<16; i++ {
		v := heap.Pop(&h).(float64)
		xs = append(xs, v)
		heap.Push(&h, v+rng.Float64())
	}
	sort.Float64s(xs)
	m := make(map[int]float64, 1<<12)
	for i, x := range xs {
		m[i&(1<<12-1)] += math.Sqrt(x)
	}
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}

type eventHeap []float64

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *eventHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
