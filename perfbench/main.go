// Command perfbench is the repository's benchmark. It drives one named
// workload through the stack divsqld deploys — or, for hunt, through the
// differential hunt — checks every answer, and prints its metrics as
// one JSON object on the last line of standard output.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload kv-point --seed 1 --seconds 30 --trace 0
//
// --trace 0 is a timed run reporting the end-to-end metrics. --trace 1
// is a separate run reporting the per-layer metrics: spans around the
// layer boundaries, counter deltas, a CPU profile grouped by package and
// the replica ladder, plus the tracing overhead. README.md lists every
// metric and the workload it is meant to move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// loadStats is what a stretch of load did.
type loadStats struct {
	ops, failed, wrong int
	stmts              int       // client statements sent (one per op on kv-point)
	lat                []float64 // per-op latency, ms
	reads              []bool    // per op: a read (index-aligned with lat); empty on hunt
}

func (s *loadStats) add(o loadStats) {
	s.ops += o.ops
	s.failed += o.failed
	s.wrong += o.wrong
	s.stmts += o.stmts
	s.lat = append(s.lat, o.lat...)
	s.reads = append(s.reads, o.reads...)
}

// window is one measured stretch of load with the process and counter
// snapshots around it.
type window struct {
	loadStats
	elapsed time.Duration
	p0, p1  procStats
	c0, c1  counters
	peakMB  float64
}

func measure(snap func() counters, run func() (loadStats, error)) (window, error) {
	hp := startHeapPeak()
	w := window{c0: snap(), p0: snapshotProc()}
	ls, err := run()
	w.p1 = snapshotProc()
	w.c1 = snap()
	w.peakMB = hp.finish()
	w.loadStats = ls
	w.elapsed = w.p1.at.Sub(w.p0.at)
	return w, err
}

func (w window) throughput() float64 { return ratio(float64(w.ops), w.elapsed.Seconds()) }

// steal is the share of the machine's CPU time a hypervisor gave to
// other guests during the window.
func (w window) steal() float64 { return ratio(w.p1.steal-w.p0.steal, w.p1.total-w.p0.total) }

// units are the end-to-end metrics' units.
var units = map[string]string{
	"setup_s": "s", "throughput_ops_s": "1/s", "latency_p50_ms": "ms",
	"latency_tail_ms": "ms", "cpu_ms_per_op": "ms", "peak_heap_mb": "MiB",
}

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	dur      time.Duration
	out      string // directory for spans, profiles and the summary
}

func (rc runConfig) file(suffix string) string {
	return filepath.Join(rc.out, fmt.Sprintf("%s-seed%d.%s", rc.workload, rc.seed, suffix))
}

func main() {
	var rc runConfig
	flag.StringVar(&rc.workload, "workload", "", "kv-point | tpcc-sharded | hunt")
	flag.Int64Var(&rc.seed, "seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "how long a timed run measures; sizes a traced run's work (README.md: Load model)")
	trace := flag.Int("trace", 0, "0: timed end-to-end run; 1: traced per-layer run")
	flag.StringVar(&rc.out, "out", ".bench_build/out", "directory for spans, profiles and summaries")
	flag.Parse()
	rc.dur = time.Duration(*seconds) * time.Second
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(rc.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(context.Background(), rc, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(rc.file(fmt.Sprintf("trace%d.json", *trace)), line, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// bench is one set-up instance of a workload.
type bench interface {
	// load applies a fixed amount of work sized from d (see each
	// workload's rate constant).
	load(d time.Duration) (loadStats, error)
	// snapshot reads the counters the per-layer metrics derive from.
	snapshot() counters
	// check runs the workload's end-of-stretch correctness check.
	check() error
	close()
}

// setupFunc deploys, loads and warms up one instance of a workload. A
// non-nil tracer is installed at the layer boundaries.
type setupFunc func(ctx context.Context, seed int64, t *tracer) (bench, error)

// workload is one named workload.
type workload struct {
	setup setupFunc
	// round is the load of one timed round, as load sizes it.
	round time.Duration
}

var workloads = map[string]workload{
	"kv-point": {
		setup: func(ctx context.Context, seed int64, t *tracer) (bench, error) { return setupKV(ctx, seed, t) },
		round: 500 * time.Millisecond,
	},
	"tpcc-sharded": {
		setup: func(ctx context.Context, seed int64, t *tracer) (bench, error) { return setupTPCC(ctx, seed, t) },
		round: time.Second,
	},
	"hunt": {
		setup: func(_ context.Context, seed int64, _ *tracer) (bench, error) { return setupHunt(seed) },
		round: 2 * time.Second,
	},
}

// A timed run sets its workload up afresh and loads it with one round's
// work, again and again until --seconds have passed (at least minRounds
// times). Fresh set-ups keep every round in the same regime: the
// kv-point table and the TPC-C order tables do not carry one round's
// writes into the next.
//
// On a shared host, other guests slow the machine by up to half for
// stretches of seconds to minutes, with little steal time to show for it,
// which no length of run averages away. So every time a timed run
// reports is in reference seconds: each round's times are scaled by
// probeRef over the mean time of the probe run just before and just
// after the round's load (see probe). README.md: Load model.
const minRounds = 4

// roundSeed derives round r's input seed from the run seed.
func roundSeed(seed int64, r int) int64 { return seed*1000 + int64(r) }

// outcome is what a workload run reports.
type outcome struct {
	vals  map[string]float64
	w     loadStats // the ops and failures the result counts
	check error     // a failed correctness check
}

func run(ctx context.Context, rc runConfig, traced bool) (*result, error) {
	wl, ok := workloads[rc.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", rc.workload)
	}
	var (
		o   outcome
		err error
	)
	if traced {
		o, err = tracedRun(ctx, rc, wl.setup)
	} else {
		o, err = timedRun(ctx, rc, wl)
	}
	if err != nil {
		return nil, err
	}
	w, check := o.w, o.check
	if check == nil && w.failed+w.wrong > 0 {
		check = fmt.Errorf("%d failed operations and %d wrong answers", w.failed, w.wrong)
	}
	if check != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", check)
	}
	res := &result{Correct: check == nil, Attempted: w.ops, Failed: w.failed + w.wrong, Metrics: map[string]metric{}}
	for name, v := range o.vals {
		u, ok := units[name]
		if !ok {
			u = layerUnits[name]
		}
		res.Metrics[name] = metric{Value: v, Unit: u}
	}
	return res, nil
}

// timedRun measures rounds of the workload, stopping at the first failed
// check.
func timedRun(ctx context.Context, rc runConfig, wl workload) (outcome, error) {
	var (
		rounds []timedRound
		total  loadStats
	)
	begin := time.Now()
	for r := 0; r < minRounds || time.Since(begin) < rc.dur; r++ {
		start := time.Now()
		b, err := wl.setup(ctx, roundSeed(rc.seed, r), nil)
		if err != nil {
			return outcome{}, err
		}
		setup := time.Since(start)
		before := probe()
		w, check := measure(b.snapshot, func() (loadStats, error) { return b.load(wl.round) })
		if check == nil {
			check = b.check()
		}
		b.close()
		after := probe()
		total.add(w.loadStats)
		if check != nil {
			return outcome{w: total, check: check}, nil
		}
		rounds = append(rounds, timedRound{w, setup, float64(2*probeRef) / float64(before+after)})
	}
	return outcome{vals: endToEnd(rounds), w: total}, nil
}

// timedRound is one round of a timed run: its window, its set-up time,
// and the factor that turns its times into reference seconds.
type timedRound struct {
	window
	setup time.Duration
	scale float64
}

// endToEnd derives the metrics a timed run reports from its rounds, in
// reference seconds: the median set-up time; operations, time and CPU
// summed over the rounds, and latency percentiles over every sample; and
// the median heap peak, which is not a time and is not scaled.
func endToEnd(rounds []timedRound) map[string]float64 {
	var setups, heap, lat, rawTput, scales []float64
	var ops, elapsed, cpu float64
	for _, r := range rounds {
		setups = append(setups, r.setup.Seconds()*r.scale)
		heap = append(heap, r.peakMB)
		for _, l := range r.lat {
			lat = append(lat, l*r.scale)
		}
		rawTput = append(rawTput, r.throughput())
		scales = append(scales, r.scale)
		ops += float64(r.ops)
		elapsed += r.elapsed.Seconds() * r.scale
		cpu += ms(r.p1.cpu-r.p0.cpu) * r.scale
	}
	s := summarize(lat)
	fmt.Fprintf(os.Stderr, "perfbench: %d rounds: measured ops/s %.0f; scale to reference seconds %.3f\n", len(rounds), rawTput, scales)
	fmt.Fprintf(os.Stderr, "perfbench: %.0f ops in %.2f reference s; latency p50 %.4f ms, tail p%d %.4f ms over %d samples\n",
		ops, elapsed, s.p50, s.tailPct, s.tail, s.n)
	return map[string]float64{
		"setup_s":          median(setups),
		"throughput_ops_s": ratio(ops, elapsed),
		"latency_p50_ms":   s.p50,
		"latency_tail_ms":  s.tail,
		"cpu_ms_per_op":    ratio(cpu, ops),
		"peak_heap_mb":     median(heap),
	}
}

// startProfile starts the CPU profiler writing to path; stop ends it.
func startProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}
