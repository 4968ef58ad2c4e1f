package main

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// kv-point: a keyed table read and written by point statements through
// database/sql → wiremux → divsqld -mode diverse -servers PG,OR,MS.
const (
	kvRows      = 10_000 // keeps the O(table) PK UPDATE visible; see README
	kvClients   = 2
	kvRangeRows = 20
	kvLoadBatch = 250 // rows per INSERT while loading
	kvWarmupOps = 500 // per client
	// kvOpsPerSecond sizes a stretch of load as a fixed count of
	// operations — about what the code the benchmark was defined on
	// sustains per second on a 2-vCPU machine — rather than a fixed time,
	// so every run does the same work, including the same number of
	// updates, which slow later ones (see README).
	kvOpsPerSecond = 3000
)

const (
	kvCreate = "CREATE TABLE KV (K INT PRIMARY KEY, V INT, S VARCHAR(16))"
	kvPoint  = "SELECT K, V, S FROM KV WHERE K = ?"
	kvRange  = "SELECT K, V, S FROM KV WHERE K >= ? AND K < ? ORDER BY K"
	kvUpdate = "UPDATE KV SET V = ? WHERE K = ?"
)

type opKind int

const (
	opPoint opKind = iota
	opRange
	opUpdate
)

func (k opKind) isRead() bool { return k != opUpdate }

// kvOp is one generated operation: a point read of K, a range read of
// [K, K+kvRangeRows), or an update setting K's V.
type kvOp struct {
	kind opKind
	k    int
	v    int64
}

// kvModel is one client's exact expectation of the keys it owns. Clients
// own disjoint halves of the key space and only ever touch their own, so
// every result they read is fully determined by their own history.
type kvModel struct {
	lo, hi int     // owned keys are [lo, hi)
	v      []int64 // v[k-lo]
	deck   []opKind
	dealt  int // cards of deck dealt since the last shuffle
}

// kvDeck is the mix: every ten operations are eight point reads, one
// range read and one update, in shuffled order. Dealing the mix rather
// than drawing each kind keeps the update share — half of the CPU time —
// the same in every round and under every seed.
var kvDeck = []opKind{opPoint, opPoint, opPoint, opPoint, opPoint, opPoint, opPoint, opPoint, opRange, opUpdate}

func keyHalf(client int) (lo, hi int) {
	per := kvRows / kvClients
	return 1 + client*per, 1 + (client+1)*per
}

func newKVModel(client int) *kvModel {
	lo, hi := keyHalf(client)
	m := &kvModel{lo: lo, hi: hi, v: make([]int64, hi-lo), deck: append([]opKind(nil), kvDeck...), dealt: len(kvDeck)}
	for k := lo; k < hi; k++ {
		m.v[k-lo] = initialV(k)
	}
	return m
}

func initialV(k int) int64 { return int64(k*7919) % 100_003 }
func kvS(k int) string     { return fmt.Sprintf("s%07d", k*31%1_000_003) }

func (m *kvModel) owns(k int) bool { return k >= m.lo && k < m.hi }

// next deals the next operation of the 80/10/10 point/range/update mix
// over the owned keys.
func (m *kvModel) next(rng *rand.Rand) kvOp {
	if m.dealt == len(m.deck) {
		rng.Shuffle(len(m.deck), func(i, j int) { m.deck[i], m.deck[j] = m.deck[j], m.deck[i] })
		m.dealt = 0
	}
	kind := m.deck[m.dealt]
	m.dealt++
	switch kind {
	case opPoint:
		return kvOp{kind: opPoint, k: m.lo + rng.Intn(m.hi-m.lo)}
	case opRange:
		return kvOp{kind: opRange, k: m.lo + rng.Intn(m.hi-m.lo-kvRangeRows+1)}
	default:
		return kvOp{kind: opUpdate, k: m.lo + rng.Intn(m.hi-m.lo), v: rng.Int63n(1_000_000_000)}
	}
}

// kvRow is one result row.
type kvRow struct {
	k, v int64
	s    string
}

// check compares a read's rows against the model.
func (m *kvModel) check(op kvOp, rows []kvRow) error {
	n := 1
	if op.kind == opRange {
		n = kvRangeRows
	}
	if len(rows) != n {
		return fmt.Errorf("read of K=%d: %d rows, want %d", op.k, len(rows), n)
	}
	for i, r := range rows {
		k := op.k + i
		if !m.owns(k) {
			return fmt.Errorf("read of K=%d strays into unowned key %d", op.k, k)
		}
		if r.k != int64(k) || r.v != m.v[k-m.lo] || r.s != kvS(k) {
			return fmt.Errorf("read of K=%d: row %d = (%d, %d, %q), want (%d, %d, %q)",
				op.k, i, r.k, r.v, r.s, k, m.v[k-m.lo], kvS(k))
		}
	}
	return nil
}

func (m *kvModel) apply(op kvOp) { m.v[op.k-m.lo] = op.v }

// errWrong marks a client-visible wrong answer, as opposed to an error
// the endpoint reported.
var errWrong = errors.New("wrong answer")

type kvClient struct {
	id                 int
	conn               *sql.Conn
	owner              int
	point, scan, write *sql.Stmt
	model              *kvModel
	rng                *rand.Rand
	t                  *tracer
	rows               []kvRow

	rec  loadStats // filled while recording
	warm []kvOp    // the warm-up op stream: the table's history before any window
	ops  []kvOp    // the recorded op stream, when keep is set
	keep bool      // keep the op stream for the replica ladder
}

func (c *kvClient) do(ctx context.Context, op kvOp) error {
	if op.kind == opUpdate {
		res, err := c.write.ExecContext(ctx, op.v, op.k)
		if err != nil {
			return err
		}
		if n, _ := res.RowsAffected(); n != 1 { // the driver's result never errors
			return fmt.Errorf("%w: update of K=%d affected %d rows", errWrong, op.k, n)
		}
		c.model.apply(op)
		return nil
	}
	var rows *sql.Rows
	var err error
	if op.kind == opPoint {
		rows, err = c.point.QueryContext(ctx, op.k)
	} else {
		rows, err = c.scan.QueryContext(ctx, op.k, op.k+kvRangeRows)
	}
	if err != nil {
		return err
	}
	c.rows = c.rows[:0]
	for rows.Next() {
		var r kvRow
		if err := rows.Scan(&r.k, &r.v, &r.s); err != nil {
			_ = rows.Close()
			return fmt.Errorf("%w: %v", errWrong, err)
		}
		c.rows = append(c.rows, r)
	}
	if err := rows.Close(); err != nil {
		return err
	}
	if err := c.model.check(op, c.rows); err != nil {
		return fmt.Errorf("%w: %v", errWrong, err)
	}
	return nil
}

// loop runs n operations of the mix, recording when rec is set. first
// is the first operation that failed: an error from the endpoint fails
// the check like a wrong answer, since a read of the client's own keys
// that errors does not match its model.
func (c *kvClient) loop(ctx context.Context, n int, rec bool) (ops, failed, wrong int, first error) {
	for ; ops < n; ops++ {
		op := c.model.next(c.rng)
		start := time.Now()
		err := c.do(ctx, op)
		c.t.record(spanClient, c.owner, start)
		d := time.Since(start)
		switch {
		case errors.Is(err, errWrong):
			wrong++
		case err != nil:
			failed++
			err = fmt.Errorf("client %d, op on K=%d: %w", c.id, op.k, err)
		}
		if first == nil {
			first = err
		}
		if !rec {
			c.warm = append(c.warm, op)
		} else {
			c.rec.lat = append(c.rec.lat, ms(d))
			c.rec.reads = append(c.rec.reads, op.kind.isRead())
			if c.keep {
				c.ops = append(c.ops, op)
			}
		}
	}
	return ops, failed, wrong, first
}

// kvBench is one deployed kv-point stack with its clients.
type kvBench struct {
	ctx     context.Context
	d       *deployment
	clients []*kvClient
}

// setupKV deploys, loads the table, prepares every client's statements
// and warms the stack up with the mix.
func setupKV(ctx context.Context, seed int64, t *tracer) (*kvBench, error) {
	d, err := deploy(1, nil, t)
	if err != nil {
		return nil, err
	}
	b := &kvBench{ctx: ctx, d: d}
	for i := 0; i < kvClients; i++ {
		conn, owner, err := d.conn(ctx)
		if err != nil {
			b.close()
			return nil, err
		}
		b.clients = append(b.clients, &kvClient{
			id: i, conn: conn, owner: owner, t: t,
			model: newKVModel(i),
			rng:   rand.New(rand.NewSource(seed*1_000_003 + int64(i))),
		})
	}
	if err := loadKV(ctx, b.clients[0].conn); err != nil {
		b.close()
		return nil, err
	}
	for _, c := range b.clients {
		for _, p := range []struct {
			dst **sql.Stmt
			sql string
		}{{&c.point, kvPoint}, {&c.scan, kvRange}, {&c.write, kvUpdate}} {
			if *p.dst, err = c.conn.PrepareContext(ctx, p.sql); err != nil {
				b.close()
				return nil, fmt.Errorf("prepare %q: %w", p.sql, err)
			}
		}
	}
	if _, err := b.run(kvWarmupOps, false); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func loadKV(ctx context.Context, conn *sql.Conn) error {
	for _, q := range append([]string{kvCreate}, kvInserts()...) {
		if _, err := conn.ExecContext(ctx, q); err != nil {
			return fmt.Errorf("load: %w", err)
		}
	}
	return nil
}

// kvInserts renders the initial table as multi-row INSERTs.
func kvInserts() []string {
	var out []string
	var sb strings.Builder
	for lo := 1; lo <= kvRows; lo += kvLoadBatch {
		sb.Reset()
		sb.WriteString("INSERT INTO KV VALUES ")
		for k := lo; k < lo+kvLoadBatch && k <= kvRows; k++ {
			if k > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, '%s')", k, initialV(k), kvS(k))
		}
		out = append(out, sb.String())
	}
	return out
}

func (b *kvBench) load(d time.Duration) (loadStats, error) {
	return b.run(int(d.Seconds()*kvOpsPerSecond)/kvClients, true)
}

func (b *kvBench) snapshot() counters { return b.d.snapshot() }

// check has nothing left to do: every answer was checked against the
// model as it arrived.
func (b *kvBench) check() error { return nil }

// run has every client perform perClient operations, recording when rec
// is set. The error is the first failed operation.
func (b *kvBench) run(perClient int, rec bool) (loadStats, error) {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		st    loadStats
		first error
	)
	for _, c := range b.clients {
		wg.Add(1)
		go func(c *kvClient) {
			defer wg.Done()
			ops, failed, wrong, ferr := c.loop(b.ctx, perClient, rec)
			mu.Lock()
			defer mu.Unlock()
			st.ops += ops
			st.failed += failed
			st.wrong += wrong
			if first == nil {
				first = ferr
			}
		}(c)
	}
	wg.Wait()
	st.stmts = st.ops
	if rec {
		for _, c := range b.clients {
			st.lat = append(st.lat, c.rec.lat...)
			st.reads = append(st.reads, c.rec.reads...)
			c.rec = loadStats{}
		}
	}
	return st, first
}

func (b *kvBench) close() {
	for _, c := range b.clients {
		_ = c.conn.Close() // returns the session to the pool the deployment closes
	}
	b.d.close()
}
