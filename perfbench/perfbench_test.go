package main

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestSelfTimeOverlappingScatterChildren(t *testing.T) {
	spans := []span{
		{Layer: spanClient, Owner: 1, Start: 0, End: 120},
		{Layer: spanEndpoint, Owner: 1, Start: 5, End: 105},
		// A scatter: two backend calls overlap, a third runs alone.
		{Layer: spanBackend, Owner: 1, Start: 15, End: 45},
		{Layer: spanBackend, Owner: 1, Start: 25, End: 65},
		{Layer: spanBackend, Owner: 1, Start: 85, End: 95},
		// Another session's spans, concurrent with the first, must not
		// be attributed to it.
		{Layer: spanClient, Owner: 2, Start: 10, End: 50},
		{Layer: spanEndpoint, Owner: 2, Start: 12, End: 48},
		{Layer: spanBackend, Owner: 2, Start: 20, End: 30},
	}
	for i := range spans {
		spans[i].Parent, spans[i].Req = -1, -1
	}
	link(spans)
	if spans[2].Parent != 1 || spans[3].Parent != 1 || spans[7].Parent != 6 {
		t.Fatalf("backend parents = %d %d %d, want 1 1 6", spans[2].Parent, spans[3].Parent, spans[7].Parent)
	}
	if spans[3].Req != 0 || spans[7].Req != 5 {
		t.Fatalf("backend requests = %d %d, want 0 5", spans[3].Req, spans[7].Req)
	}

	shard := selfTimes(spans, spanEndpoint, false)
	// Owner 1: 100 − |[15,65) ∪ [85,95)| = 100 − 60. Owner 2: 36 − 10.
	if len(shard) != 2 || shard[0] != 40 || shard[1] != 26 {
		t.Errorf("endpoint self times = %v, want [40ns 26ns]", shard)
	}
	wire := selfTimes(spans, spanClient, true)
	if len(wire) != 2 || wire[0] != 20 || wire[1] != 4 {
		t.Errorf("client self times = %v, want [20ns 4ns]", wire)
	}
}

func TestCoveredClipsToParent(t *testing.T) {
	parent := span{Start: 10, End: 20}
	kids := []span{{Start: 0, End: 12}, {Start: 18, End: 30}, {Start: 11, End: 13}}
	if got := covered(parent, kids); got != 5 {
		t.Errorf("covered = %v, want 5ns", got)
	}
	if got := covered(parent, nil); got != 0 {
		t.Errorf("covered with no children = %v, want 0", got)
	}
}

func TestTailPercentileFewSamples(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{100_000, 99}, {1000, 99}, {999, 98}, {500, 98}, {100, 90}, {25, 60}, {20, 50}, {3, 50}, {0, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
		if c.n > 0 {
			if beyond := c.n - rank(c.want, c.n); c.want > 50 && beyond < minBeyond {
				t.Errorf("n=%d: p%d leaves %d samples beyond", c.n, c.want, beyond)
			}
		}
	}
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(500 - i) // unsorted on purpose
	}
	s := summarize(xs)
	if s.n != 500 || s.tailPct != 98 || s.tail != 490 || s.p50 != 250 {
		t.Errorf("summarize(1..500) = %+v, want n=500 p50=250 p98=490", s)
	}
}

func TestGroupOf(t *testing.T) {
	for fn, want := range map[string]string{
		"divsql/internal/engine.(*Session).checkConstraints":                 "engine",
		"divsql/internal/engine/plan.(*Cache).Get":                           "engine",
		"divsql/internal/sql/parser.(*Parser).parseExpr":                     "sql",
		"divsql/internal/sql/types.Compare":                                  "sql",
		"divsql/internal/core.Digest":                                        "core",
		"divsql/internal/wire.(*Mux).readLoop":                               "wire",
		"divsql/internal/middleware.(*Session).Exec.func1":                   "middleware",
		"divsql/sqldriver.(*wireMuxStmt).Query":                              "sqldriver",
		"divsql/internal/obs.Sort[go.shape.string]":                          "other",
		"divsql/internal/qgen.F[go.shape.struct { divsql/internal/core.X }]": "qgen",
		"divsql.convertResult":                                               "other",
		"divsql/perfbench.main":                                              "other",
		"runtime.mallocgc":                                                   "other",
		"database/sql.(*DB).query":                                           "other",
	} {
		if got := groupOf(fn); got != want {
			t.Errorf("groupOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf encoder for building test profiles.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num int, data []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

func (b pb) packed(num int, vs ...uint64) pb {
	var body []byte
	for _, v := range vs {
		body = binary.AppendUvarint(body, v)
	}
	return b.bytes(num, body)
}

func TestProfileGrouping(t *testing.T) {
	strs := []string{"", "divsql/internal/core.Digest", "divsql/internal/middleware.vote",
		"runtime.scanobject", "runtime.gcBgMarkWorker", "divsql/internal/engine.probe"}
	var p pb
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	for id := uint64(1); id <= 5; id++ {
		p = p.bytes(5, pb{}.varint(1, id).varint(2, id)) // function id → name index id
		p = p.bytes(4, pb{}.varint(1, id).bytes(4, pb{}.varint(1, id)))
	}
	// Leaf first. Digest called from the middleware: 6 samples, unpacked
	// location ids. GC mark work: 3 samples. An engine leaf: 1 sample,
	// packed ids.
	p = p.bytes(2, pb{}.varint(1, 1).varint(1, 2).packed(2, 6, 6e7))
	p = p.bytes(2, pb{}.packed(1, 3, 4, 4).packed(2, 3, 3e7))
	p = p.bytes(2, pb{}.packed(1, 5, 2, 2).packed(2, 1, 1e7))

	prof, err := parseProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	shares, total := prof.groupShares()
	if total != 10 {
		t.Fatalf("total samples = %d, want 10", total)
	}
	for g, want := range map[string]float64{"core": 0.6, "runtime_gc": 0.3, "engine": 0.1, "middleware": 0} {
		if shares[g] != want {
			t.Errorf("share[%s] = %v, want %v", g, shares[g], want)
		}
	}
	if _, err := parseProfile([]byte{0x12, 0x05, 0x01}); err == nil {
		t.Error("truncated message parsed without error")
	}
}

func TestKVKeyOwnership(t *testing.T) {
	seen := make([]int, kvRows+2)
	var models []*kvModel
	for c := 0; c < kvClients; c++ {
		m := newKVModel(c)
		models = append(models, m)
		for k := m.lo; k < m.hi; k++ {
			seen[k]++
		}
	}
	for k := 1; k <= kvRows; k++ {
		if seen[k] != 1 {
			t.Fatalf("key %d owned by %d clients, want exactly 1", k, seen[k])
		}
	}
	if seen[0] != 0 || seen[kvRows+1] != 0 {
		t.Fatal("a client owns a key outside the table")
	}

	rng := rand.New(rand.NewSource(1))
	counts := map[opKind]int{}
	for _, m := range models {
		for i := 0; i < 20_000; i++ {
			op := m.next(rng)
			counts[op.kind]++
			last := op.k
			if op.kind == opRange {
				last = op.k + kvRangeRows - 1
			}
			if !m.owns(op.k) || !m.owns(last) {
				t.Fatalf("client [%d,%d) drew %+v outside its keys", m.lo, m.hi, op)
			}
		}
	}
	if n := counts[opPoint] + counts[opRange] + counts[opUpdate]; counts[opPoint]*10 != n*8 || counts[opRange]*10 != n || counts[opUpdate]*10 != n {
		t.Errorf("mix = %v, want exactly 80/10/10", counts)
	}
}

func TestKVModelChecksReads(t *testing.T) {
	m := newKVModel(1)
	k := m.lo + 7
	row := func(k int) kvRow { return kvRow{int64(k), m.v[k-m.lo], kvS(k)} }
	if err := m.check(kvOp{kind: opPoint, k: k}, []kvRow{row(k)}); err != nil {
		t.Fatalf("correct point read rejected: %v", err)
	}
	m.apply(kvOp{kind: opUpdate, k: k, v: 42})
	stale := kvRow{int64(k), initialV(k), kvS(k)}
	if err := m.check(kvOp{kind: opPoint, k: k}, []kvRow{stale}); err == nil {
		t.Error("stale value after update accepted")
	}
	var rng []kvRow
	for i := 0; i < kvRangeRows; i++ {
		rng = append(rng, row(k+i))
	}
	if err := m.check(kvOp{kind: opRange, k: k}, rng); err != nil {
		t.Fatalf("correct range read rejected: %v", err)
	}
	rng[3], rng[4] = rng[4], rng[3]
	if err := m.check(kvOp{kind: opRange, k: k}, rng); err == nil {
		t.Error("range read out of order accepted")
	}
	if err := m.check(kvOp{kind: opRange, k: k}, rng[:5]); err == nil {
		t.Error("short range read accepted")
	}
	if m.owns(newKVModel(0).lo) {
		t.Error("client 1 owns client 0's keys")
	}
}

func TestP50us(t *testing.T) {
	if got := p50us([]time.Duration{3 * time.Microsecond, time.Microsecond, 2 * time.Microsecond}); got != 2 {
		t.Errorf("p50us = %v, want 2", got)
	}
}

func TestInterleave(t *testing.T) {
	got := interleave([][]int{{1, 3, 5, 6}, {2, 4}})
	want := []int{1, 2, 3, 4, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("interleave = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interleave = %v, want %v", got, want)
		}
	}
}

func TestEndToEndScalesTimes(t *testing.T) {
	round := func(ops int, elapsed time.Duration, lat []float64, scale float64) timedRound {
		w := window{loadStats: loadStats{ops: ops, lat: lat}, elapsed: elapsed, peakMB: 7}
		w.p1.cpu = elapsed / 2
		return timedRound{window: w, setup: time.Second, scale: scale}
	}
	// The same work measured at full speed and at two-thirds speed.
	m := endToEnd([]timedRound{
		round(100, time.Second, []float64{1, 2, 3}, 1),
		round(100, 1500*time.Millisecond, []float64{1.5, 3, 4.5}, 2.0/3),
	})
	want := map[string]float64{"setup_s": 2.0 / 3, "throughput_ops_s": 100, "latency_p50_ms": 2, "latency_tail_ms": 2, "cpu_ms_per_op": 5, "peak_heap_mb": 7}
	for name, v := range want {
		if math.Abs(m[name]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, m[name], v)
		}
	}
}

func TestProbeAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(3, probeWork); n != 0 {
		t.Fatalf("the probe's computation allocates %v times per run, want 0", n)
	}
}
