package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"divsql/internal/obs"
)

// counters is one scrape of an obs.Registry: every sample's value keyed
// by its series ("family{labels}" as rendered in the Prometheus text
// exposition, the format the registry publishes).
type counters map[string]float64

func scrape(reg *obs.Registry) counters {
	c := counters{}
	for _, line := range strings.Split(reg.Render(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		c[line[:i]] = v
	}
	return c
}

// sum adds every series of a family.
func (c counters) sum(family string) float64 {
	var total float64
	for k, v := range c {
		if name, _, _ := strings.Cut(k, "{"); name == family {
			total += v
		}
	}
	return total
}

// delta returns a family's growth from before to after.
func delta(before, after counters, family string) float64 {
	return after.sum(family) - before.sum(family)
}

// runtime/metrics names the benchmark reads.
const (
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
	mAllocBytes = "/gc/heap/allocs:bytes"
	mAllocObjs  = "/gc/heap/allocs:objects"
	mHeapLive   = "/gc/heap/live:bytes"
)

// procStats is a snapshot of the process: rusage CPU, wall clock, the Go
// runtime's cumulative GC and allocation counters, and the machine's CPU
// time as /proc/stat counts it.
type procStats struct {
	at  time.Time
	cpu time.Duration
	rtm map[string]float64
	// steal and total are the machine-wide ticks a hypervisor gave to
	// other guests, and all ticks (0 where /proc/stat is unreadable).
	steal, total float64
}

// readStat returns the steal and total ticks of the aggregate cpu line
// of /proc/stat.
func readStat() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0 // not Linux: no steal accounting
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, x := range f[1:] {
		v, _ := strconv.ParseFloat(x, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func readRuntime(names ...string) map[string]float64 {
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make(map[string]float64, len(names))
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[s.Name] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[s.Name] = s.Value.Float64()
		}
	}
	return out
}

func snapshotProc() procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	steal, total := readStat()
	return procStats{at: time.Now(), cpu: cpu, rtm: readRuntime(mGCCPU, mTotalCPU, mAllocBytes, mAllocObjs),
		steal: steal, total: total}
}

// heapPeak samples the live heap (as marked by the last GC) until
// stopped, keeping the maximum: the working set a deployment needs,
// without the garbage a GC has not yet collected.
type heapPeak struct {
	stop chan struct{}
	done sync.WaitGroup
	max  float64
}

func startHeapPeak() *heapPeak {
	runtime.GC()
	h := &heapPeak{stop: make(chan struct{}), max: readRuntime(mHeapLive)[mHeapLive]}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		// A small heap under heavy allocation is collected every few
		// milliseconds; sampling slower would miss most cycles' results.
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				if v := readRuntime(mHeapLive)[mHeapLive]; v > h.max {
					h.max = v
				}
			}
		}
	}()
	return h
}

// finish stops sampling and returns the peak in MiB.
func (h *heapPeak) finish() float64 {
	close(h.stop)
	h.done.Wait()
	if v := readRuntime(mHeapLive)[mHeapLive]; v > h.max {
		h.max = v
	}
	return h.max / (1 << 20)
}
