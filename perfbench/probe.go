package main

import (
	"runtime"
	"slices"
	"time"
)

// probeRef is the time the probe takes on the 2-vCPU machine the
// benchmark was defined on, in its usual state. A time t measured while
// the probe takes p is t × probeRef / p in reference seconds.
const probeRef = 16 * time.Millisecond

// probeN is the size of the probe's working set: 256 KiB of keys and a
// map of as many entries, beyond the first-level caches as the program's
// tables are.
const probeN = 1 << 15

var (
	probeKeys = func() []uint64 {
		keys := make([]uint64, probeN)
		x := uint64(88172645463325252)
		for i := range keys {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			keys[i] = x
		}
		return keys
	}()
	probeMap = func() map[uint64]uint32 {
		m := make(map[uint64]uint32, probeN)
		for i, k := range probeKeys {
			m[k] = uint32(i)
		}
		return m
	}()
	probeBuf  = make([]uint64, probeN)
	probeSink uint64
)

// probe times a fixed computation of the benchmark's own; it is called
// while no load runs. The computation allocates nothing and starts
// after a completed garbage collection, so that neither the program's
// code nor the garbage it left can change the time: only the machine's
// speed.
func probe() time.Duration {
	runtime.GC()
	start := time.Now()
	probeWork()
	return time.Since(start)
}

// probeWork sorts a copy of probeKeys and looks every key up in
// probeMap, three times over.
func probeWork() {
	var sum uint64
	for r := 0; r < 3; r++ {
		copy(probeBuf, probeKeys)
		slices.Sort(probeBuf)
		for _, k := range probeBuf {
			sum += uint64(probeMap[k])
		}
	}
	probeSink += sum
}
