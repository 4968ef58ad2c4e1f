package main

import (
	"context"
	"fmt"
	"sort"
	"time"
)

// layerUnits are the per-layer metrics a traced run reports, with their
// units. A workload reports 0 for a layer it does not pass through (hunt
// sends no wire frames; only tpcc-sharded has a shard router; only
// kv-point has a replica ladder).
var layerUnits = map[string]string{
	"trace.overhead_ratio": "ratio", "trace.untraced_ops_s": "1/s", "trace.traced_ops_s": "1/s",
	"trace.spans":         "count",
	"machine.steal_ratio": "ratio",
	"latency.tail_pct":    "pct", "latency.samples": "count",
	"split.read_p50_ms": "ms", "split.read_tail_ms": "ms", "split.write_p50_ms": "ms", "split.write_tail_ms": "ms",

	"wire.self_us_p50": "us", "wire.frames_per_op": "count", "wire.bytes_per_op": "B", "wire.statements": "count",

	"shard.self_us_p50": "us", "shard.backend_calls_per_stmt": "count", "shard.single_ratio": "ratio",
	"shard.statements": "count",

	"middleware.self_us_p50": "us", "middleware.unanimous_ratio": "ratio", "middleware.statements": "count",
	"middleware.replica_errors": "count", "middleware.masked_failures": "count", "middleware.resyncs": "count",
	"middleware.resync_s": "s", "middleware.journal_replays": "count",

	"replica.read_us_p50": "us", "replica.write_us_p50": "us", "replica.ops": "count",

	"engine.plan_cache_hit_ratio": "ratio", "engine.plan_cache_lookups": "count",
	"engine.compiled_ratio": "ratio", "engine.selects": "count",
	"engine.latch_wait_ms_per_op": "ms", "engine.readview_hit_ratio": "ratio", "engine.readview_lookups": "count",

	"hunt.execs_per_stmt": "count", "hunt.fingerprints_per_kstmt": "count", "hunt.divergences_found": "count",
	"hunt.statements": "count",

	"cpu_share.sqldriver": "ratio", "cpu_share.wire": "ratio", "cpu_share.shard": "ratio",
	"cpu_share.middleware": "ratio", "cpu_share.core": "ratio", "cpu_share.server": "ratio",
	"cpu_share.engine": "ratio", "cpu_share.sql": "ratio", "cpu_share.qgen": "ratio",
	"cpu_share.difftest": "ratio", "cpu_share.metamorph": "ratio", "cpu_share.runtime_gc": "ratio",
	"cpu_share.samples": "count",

	"runtime.gc_cpu_ratio": "ratio", "runtime.alloc_kb_per_op": "KiB", "runtime.allocs_per_op": "count",
}

// layerValues starts a per-layer report with every metric at 0.
func layerValues() map[string]float64 {
	m := make(map[string]float64, len(layerUnits))
	for name := range layerUnits {
		m[name] = 0
	}
	return m
}

// fromCounters fills the metrics derived from a window's counter and
// runtime deltas. Ratios come with their base as a separate count.
func fromCounters(m map[string]float64, w window) {
	d := func(family string) float64 { return delta(w.c0, w.c1, family) }
	ops, stmts := float64(w.ops), float64(w.stmts)

	m["wire.statements"] = stmts
	m["wire.frames_per_op"] = ratio(d("divsql_wire_requests_total"), stmts)
	m["wire.bytes_per_op"] = ratio(d("divsql_wire_bytes_in_total")+d("divsql_wire_bytes_out_total"), stmts)

	routed := d("divsql_shard_statements_total")
	m["shard.statements"] = routed
	m["shard.backend_calls_per_stmt"] = ratio(d("divsql_shard_routed_statements_total"), routed)
	m["shard.single_ratio"] = ratio(d("divsql_shard_single_total"), routed)

	adj := d("divsql_middleware_statements_total")
	m["middleware.statements"] = adj
	m["middleware.unanimous_ratio"] = ratio(d("divsql_middleware_unanimous_total"), adj)
	m["middleware.replica_errors"] = d("divsql_middleware_replica_errors_total")
	m["middleware.masked_failures"] = d("divsql_middleware_masked_failures_total")
	m["middleware.resyncs"] = d("divsql_middleware_resyncs_total")
	m["middleware.resync_s"] = d("divsql_middleware_resync_duration_seconds_sum")
	m["middleware.journal_replays"] = d("divsql_middleware_journal_replays_total")

	lookups := d(planCacheLookups)
	m["engine.plan_cache_lookups"] = lookups
	m["engine.plan_cache_hit_ratio"] = ratio(d(planCacheHits), lookups)
	compiled := d("divsql_engine_compiled_exec_total")
	selects := compiled + d("divsql_engine_interpreted_selects_total")
	m["engine.selects"] = selects
	m["engine.compiled_ratio"] = ratio(compiled, selects)
	m["engine.latch_wait_ms_per_op"] = ratio(1000*d("divsql_engine_latch_wait_seconds_total"), ops)
	views := d("divsql_engine_readview_hits_total") + d("divsql_engine_readview_builds_total")
	m["engine.readview_lookups"] = views
	m["engine.readview_hit_ratio"] = ratio(d("divsql_engine_readview_hits_total"), views)

	hs := d("divsql_hunt_statements_total")
	m["hunt.statements"] = hs
	m["hunt.execs_per_stmt"] = ratio(d("divsql_hunt_execs_total"), hs)
	m["hunt.fingerprints_per_kstmt"] = ratio(1000*d("divsql_hunt_generated_fingerprints_total"), hs)

	rt := func(name string) float64 { return w.p1.rtm[name] - w.p0.rtm[name] }
	m["runtime.gc_cpu_ratio"] = ratio(rt(mGCCPU), rt(mTotalCPU))
	m["runtime.alloc_kb_per_op"] = ratio(rt(mAllocBytes)/1024, ops)
	m["runtime.allocs_per_op"] = ratio(rt(mAllocObjs), ops)
}

// fromUntraced fills what the untraced window a gives beside the traced
// window b: the tracing overhead (and the steal that may blur it), the
// percentile latency_tail_ms takes at a's sample count, and the
// read/write latency split.
func fromUntraced(m map[string]float64, a, b window) {
	m["trace.untraced_ops_s"] = a.throughput()
	m["trace.traced_ops_s"] = b.throughput()
	m["trace.overhead_ratio"] = 1 - ratio(b.throughput(), a.throughput())
	m["machine.steal_ratio"] = b.steal()
	s := summarize(a.lat)
	m["latency.tail_pct"] = float64(s.tailPct)
	m["latency.samples"] = float64(s.n)
	var reads, writes []float64
	for i, r := range a.reads {
		if r {
			reads = append(reads, a.lat[i])
		} else {
			writes = append(writes, a.lat[i])
		}
	}
	rs, ws := summarize(reads), summarize(writes)
	m["split.read_p50_ms"], m["split.read_tail_ms"] = rs.p50, rs.tail
	m["split.write_p50_ms"], m["split.write_tail_ms"] = ws.p50, ws.tail
}

// fromProfile fills the CPU shares from the traced window's profile.
func fromProfile(m map[string]float64, path string) error {
	p, err := readProfile(path)
	if err != nil {
		return err
	}
	shares, total := p.groupShares()
	for g, v := range shares {
		m["cpu_share."+g] = v
	}
	m["cpu_share.samples"] = float64(total)
	return nil
}

func p50us(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = us(d)
	}
	return median(xs)
}

// fromSpans links the traced window's spans, writes them out and fills
// the self times they give.
func fromSpans(m map[string]float64, rc runConfig, spans []span, sharded bool) error {
	link(spans)
	if err := writeSpans(rc.file("spans.jsonl"), spans); err != nil {
		return err
	}
	m["trace.spans"] = float64(len(spans))
	m["wire.self_us_p50"] = p50us(selfTimes(spans, spanClient, true))
	if sharded {
		m["shard.self_us_p50"] = p50us(selfTimes(spans, spanEndpoint, false))
	}
	return nil
}

// tracedRun measures two fresh set-ups of the same round seed, each with
// the work of half --seconds: first the timed configuration with no
// decorators, then one with the tracer installed, spans on and the CPU
// profiler running. Both windows start from the same state and do the
// same operations, so the throughput the second loses to the first is
// the tracing overhead alone. The per-layer metrics come from the traced
// window.
func tracedRun(ctx context.Context, rc runConfig, setup setupFunc) (outcome, error) {
	m := layerValues()
	seed := roundSeed(rc.seed, 0)
	var total loadStats

	b, err := setup(ctx, seed, nil)
	if err != nil {
		return outcome{}, err
	}
	a, check := measure(b.snapshot, func() (loadStats, error) { return b.load(rc.dur / 2) })
	if check == nil {
		check = b.check()
	}
	b.close()
	total.add(a.loadStats)
	if check != nil {
		return outcome{m, total, check}, nil
	}

	t := newTracer()
	b, err = setup(ctx, seed, t)
	if err != nil {
		return outcome{}, err
	}
	defer b.close()
	kv, isKV := b.(*kvBench)
	if isKV {
		for _, c := range kv.clients {
			c.keep = true // the traced window's ops feed the replica ladder
		}
	}
	stop, err := startProfile(rc.file("cpu.pprof"))
	if err != nil {
		return outcome{}, err
	}
	t.on.Store(true)
	w, check := measure(b.snapshot, func() (loadStats, error) { return b.load(rc.dur / 2) })
	t.on.Store(false)
	if err := stop(); err != nil {
		return outcome{}, err
	}
	total.add(w.loadStats)
	if check == nil {
		check = b.check()
	}
	if check != nil {
		return outcome{m, total, check}, nil
	}

	fromCounters(m, w)
	fromUntraced(m, a, w)
	if err := fromProfile(m, rc.file("cpu.pprof")); err != nil {
		return outcome{}, err
	}
	spans := t.take()
	_, sharded := b.(*tpccBench)
	if err := fromSpans(m, rc, spans, sharded); err != nil {
		return outcome{}, err
	}
	if isKV {
		if err := kvLadder(m, kv, spans); err != nil {
			return outcome{}, err
		}
	}
	if h, ok := b.(*huntBench); ok {
		m["hunt.divergences_found"] = float64(len(h.found))
	}
	return outcome{m, total, nil}, nil
}

// ladderOps bounds how many recorded ops the replica ladder replays.
const ladderOps = 3000

// kvLadder replays the start of the traced window's ops on the replica
// ladder and fills the replica times and the middleware's own time per
// op (its endpoint span minus the slowest replica's time for the same
// op). The ladder's tables first take the warm-up ops, untimed, so each
// replayed op meets the update history it met in the stack. The clients'
// ops are interleaved, as they ran.
func kvLadder(m map[string]float64, b *kvBench, spans []span) error {
	var warm, ops [][]kvOp
	var endpoint [][]time.Duration
	for _, c := range b.clients {
		var clientSpans []int
		for i, s := range spans {
			if s.Layer == spanClient && s.Owner == c.owner {
				clientSpans = append(clientSpans, i)
			}
		}
		if len(clientSpans) != len(c.ops) {
			return fmt.Errorf("client %d: %d client spans for %d ops", c.id, len(clientSpans), len(c.ops))
		}
		ep := make([]time.Duration, len(c.ops))
		for _, s := range spans {
			if s.Layer == spanEndpoint && s.Req >= 0 && spans[s.Req].Owner == c.owner {
				ep[sort.SearchInts(clientSpans, s.Req)] += s.dur() // both in start order
			}
		}
		n := min(len(c.ops), ladderOps/len(b.clients))
		warm = append(warm, c.warm)
		ops = append(ops, c.ops[:n])
		endpoint = append(endpoint, ep[:n])
	}
	replay := interleave(ops)
	rung, err := ladderKV(interleave(warm), replay)
	if err != nil {
		return err
	}
	ep := interleave(endpoint)
	var reads, writes, self []time.Duration
	for i, op := range replay {
		if op.kind.isRead() {
			reads = append(reads, rung[i])
		} else {
			writes = append(writes, rung[i])
		}
		self = append(self, ep[i]-rung[i])
	}
	m["replica.ops"] = float64(len(replay))
	m["replica.read_us_p50"] = p50us(reads)
	m["replica.write_us_p50"] = p50us(writes)
	m["middleware.self_us_p50"] = p50us(self)
	return nil
}

// interleave merges per-client streams round-robin: one element of each
// in turn, the rest of the longer streams after the shorter ones end.
func interleave[T any](streams [][]T) []T {
	var out []T
	for i := 0; ; i++ {
		added := false
		for _, s := range streams {
			if i < len(s) {
				out = append(out, s[i])
				added = true
			}
		}
		if !added {
			return out
		}
	}
}
