package main

import (
	"slices"
	"sync"
	"time"
)

// The machine this benchmark was built on is a share of a busy host: the
// same code runs up to twice as fast in one minute as in the next, with
// almost no steal time visible to the guest, and raw wall time spreads
// 10-40% between runs, more than any useful regression bound. So the
// harness times a yardstick, a fixed computation, between the measured
// calls, and reports every timing end-to-end metric in calibrated seconds:
// the measured time scaled by the yardstick's nominal time over its median
// in the same run. A unit that slows with the host moves no metric; a unit
// that slows against the yardstick does. The yardstick is benchmark code
// on the standard library alone, so no change to the repository moves it.
//
// The yardstick works both of the CPUs the workloads use at once, because
// the workloads do: the sharded runner and the fleet's shards run in
// parallel, and the garbage collector takes the second CPU on the others.
// A single-goroutine yardstick followed a slowdown of the host only about
// half as far as solve_chaos and engine_dense units did.

// yardstickNominal is the yardstick's median time, in seconds, on the
// machine BENCHMARK.json's bounds were measured on, in its faster phases.
const yardstickNominal = 1.6e-3

// sortBufs are the yardstick's two 64 KiB halves, one per goroutine.
var sortBufs = [2][]int32{make([]int32, 1<<14), make([]int32, 1<<14)}

// yardstick fills each half from a fixed xorshift sequence and sorts it,
// the two halves on two goroutines at once: compute and L1/L2 traffic on
// two CPUs.
func yardstick() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sortWork(sortBufs[1])
	}()
	sortWork(sortBufs[0])
	wg.Wait()
}

func sortWork(b []int32) {
	x := uint32(2463534242)
	for i := range b {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		b[i] = int32(x)
	}
	slices.Sort(b)
}

// yardstickShare is the share of the measured time the yardstick takes.
// It runs between the measured calls, so that its median covers the same
// stretch of the run as theirs.
const yardstickShare = 0.1

// calibration times the yardstick between measured calls.
type calibration struct {
	budget time.Duration // yardstickShare of the measured time so far
	spent  time.Duration
	times  []float64
}

// after runs the yardstick, outside any timed window, until it has taken
// yardstickShare of the time measured so far, measured being the time of
// the calls since the last after, and at least once in all.
func (c *calibration) after(measured time.Duration) {
	c.budget += time.Duration(yardstickShare * float64(measured))
	for c.spent < c.budget || len(c.times) == 0 {
		t0 := time.Now()
		yardstick()
		d := time.Since(t0)
		c.spent += d
		c.times = append(c.times, d.Seconds())
	}
}

// median is the yardstick's median time in this calibration, in seconds.
func (c *calibration) median() float64 { return median(c.times) }

// scale converts measured seconds into calibrated seconds.
func (c *calibration) scale() float64 { return yardstickNominal / c.median() }
