package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"divsql/internal/core"
	"divsql/internal/engine"
	"divsql/internal/middleware"
	"divsql/internal/sql/types"
)

// Span layers. Each is recorded by the benchmark's own code around a
// public interface the program accepts from its caller, so the program
// itself carries no tracing.
const (
	spanClient   = "client"   // one database/sql call of a benchmark client
	spanEndpoint = "endpoint" // the executor handed to wire.NewServer
	spanBackend  = "backend"  // a shard.Backend handed to shard.New
)

// span is one timed call. Owner is the endpoint session the call ran on
// behalf of (a client's server-side session; its backend sessions carry
// the same owner), which is what links the layers of one request.
type span struct {
	Layer  string `json:"name"`
	Owner  int    `json:"owner"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span; -1 at the top
	Req    int    `json:"req"`    // index of the client span served; -1 if none
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory while on.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span

	openMu     sync.Mutex   // serializes endpoint session opening
	nextID     int          // guarded by openMu
	opening    atomic.Int64 // endpoint session whose backend sessions are opening
	lastOpened atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record appends a span that started at start and ends now. A nil or
// switched-off tracer records nothing.
func (t *tracer) record(layer string, owner int, start time.Time) {
	if t == nil || !t.on.Load() {
		return
	}
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Layer: layer, Owner: owner,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
		Parent: -1, Req: -1,
	})
	t.mu.Unlock()
}

// take returns the recorded spans and clears the buffer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

// endpoint is the executor contract the wire server and the shard router
// rely on: sessions plus prepared statements.
type endpoint interface {
	core.SessionExecutor
	core.PreparedExecutor
}

// tracedEndpoint decorates the executor passed to wire.NewServer.
type tracedEndpoint struct {
	endpoint
	t *tracer
}

func (e *tracedEndpoint) OpenSession() core.Session {
	e.t.openMu.Lock()
	defer e.t.openMu.Unlock()
	id := e.t.nextID
	e.t.nextID++
	e.t.opening.Store(int64(id))
	s := e.endpoint.OpenSession()
	e.t.lastOpened.Store(int64(id))
	return &tracedSession{inner: s, t: e.t, layer: spanEndpoint, owner: id}
}

// tracedBackend decorates one shard.Backend. Embedding keeps the
// replica-set methods the router discovers by assertion (collectors,
// replica names, quarantine state).
type tracedBackend struct {
	*middleware.DiverseServer
	t *tracer
}

// OpenSession is called by the router while tracedEndpoint.OpenSession
// opens the client session the backend session belongs to.
func (b *tracedBackend) OpenSession() core.Session {
	return &tracedSession{inner: b.DiverseServer.OpenSession(), t: b.t, layer: spanBackend, owner: int(b.t.opening.Load())}
}

type tracedSession struct {
	inner core.Session
	t     *tracer
	layer string
	owner int
}

func (s *tracedSession) Exec(sql string) (*engine.Result, time.Duration, error) {
	start := time.Now()
	res, lat, err := s.inner.Exec(sql)
	s.t.record(s.layer, s.owner, start)
	return res, lat, err
}

func (s *tracedSession) Prepare(sql string) (core.Statement, error) {
	pe, ok := s.inner.(core.PreparedExecutor)
	if !ok {
		return nil, errors.New("perfbench: session does not support prepared statements")
	}
	start := time.Now()
	st, err := pe.Prepare(sql)
	s.t.record(s.layer, s.owner, start)
	if err != nil {
		return nil, err
	}
	return &tracedStmt{Statement: st, s: s}, nil
}

func (s *tracedSession) Close() error { return s.inner.Close() }

type tracedStmt struct {
	core.Statement
	s *tracedSession
}

func (st *tracedStmt) Exec(args ...types.Value) (*engine.Result, time.Duration, error) {
	start := time.Now()
	res, lat, err := st.Statement.Exec(args...)
	st.s.t.record(st.s.layer, st.s.owner, start)
	return res, lat, err
}

func (st *tracedStmt) Close() error {
	start := time.Now()
	err := st.Statement.Close()
	st.s.t.record(st.s.layer, st.s.owner, start)
	return err
}

// layerAbove maps a layer to the layer whose spans enclose it.
var layerAbove = map[string]string{spanEndpoint: spanClient, spanBackend: spanEndpoint}

// link sets each span's Parent (the enclosing span one layer up on the
// same owner) and Req (the client span at the top of that chain). Spans
// of one owner and layer never overlap, except backend spans, which
// only ever look upward.
func link(spans []span) {
	type key struct {
		owner int
		layer string
	}
	byKey := map[key][]int{}
	for i, s := range spans {
		k := key{s.Owner, s.Layer}
		byKey[k] = append(byKey[k], i)
	}
	for _, idx := range byKey {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
	}
	for _, layer := range []string{spanEndpoint, spanBackend} { // top-down, so Req propagates
		for k, idx := range byKey {
			if k.layer != layer {
				continue
			}
			up := byKey[key{k.owner, layerAbove[layer]}]
			for _, i := range idx {
				s := spans[i]
				j := sort.Search(len(up), func(j int) bool { return spans[up[j]].Start > s.Start }) - 1
				if j < 0 || spans[up[j]].End < s.End {
					continue
				}
				p := up[j]
				spans[i].Parent = p
				if layer == spanEndpoint {
					spans[i].Req = p
				} else {
					spans[i].Req = spans[p].Req
				}
			}
		}
	}
}

// selfTimes returns, for every span of the given layer (only those with
// a child when withChildren is set), its duration minus the union of its
// children's intervals: the time the layer spent itself, not waiting on
// the layer below. Children running in parallel (a scatter) count once.
func selfTimes(spans []span, layer string, withChildren bool) []time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var out []time.Duration
	for i, s := range spans {
		if s.Layer != layer || (withChildren && len(kids[i]) == 0) {
			continue
		}
		out = append(out, s.dur()-covered(s, kids[i]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return time.Duration(total + curHi - curLo)
}

// writeSpans stores the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
