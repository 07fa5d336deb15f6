package main

import (
	"sort"
	"time"
)

// The shared host this benchmark runs on changes speed by up to 2x for tens
// of seconds at a time, and the simulator slows with it: a 20 s run can
// fall entirely inside a slow phase, so no percentile of its rep times
// filters the slowdown out. The benchmark therefore times a fixed reference
// loop next to every rep and set-up and reports their times in reference
// seconds: measured seconds scaled by calibRef over the loop's measured time.
// The loop is the benchmark's own code and shares nothing with the program,
// so a change to the program cannot move it.

// calibRef is the reference loop's time on the 2-vCPU VM the bounds were
// set on, in its fast phases.
const calibRef = 40 * time.Millisecond

// calibSlots sizes the loop's table at 4 MiB, past the private caches, so
// the loop depends on the shared cache and memory like the simulator does.
const calibSlots = 1 << 20

// calibTable is one random cycle through all slots (Sattolo's algorithm
// with a fixed xorshift seed), so a chase visits every slot in an order
// the hardware prefetchers cannot follow.
var calibTable = func() []uint32 {
	t := make([]uint32, calibSlots)
	for i := range t {
		t[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := calibSlots - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		t[i], t[j] = t[j], t[i]
	}
	return t
}()

var calibSink uint64

// calibrate runs the reference loop as five slices and returns five times
// the median slice, so a burst of interference inside one slice is dropped.
func calibrate() time.Duration {
	const slices, steps = 5, 300_000
	var times [slices]time.Duration
	p, h := uint32(0), uint64(1469598103934665603)
	for s := range times {
		start := time.Now()
		for i := 0; i < steps; i++ {
			p = calibTable[p]
			h = (h ^ uint64(p)) * 1099511628211
		}
		times[s] = time.Since(start)
	}
	calibSink += h
	sort.Slice(times[:], func(i, j int) bool { return times[i] < times[j] })
	return slices * times[slices/2]
}

// refSeconds converts a wall time measured next to calibration time calib
// into reference seconds.
func refSeconds(wall, calib time.Duration) float64 {
	return wall.Seconds() * float64(calibRef) / float64(calib)
}
