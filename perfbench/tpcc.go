package main

import (
	"context"
	"database/sql"
	"fmt"
	"strings"
	"sync"
	"time"

	"divsql/internal/engine"
	"divsql/internal/sql/types"
	"divsql/internal/tpcc"
)

// tpcc-sharded: the tpcc package's DefaultMix from one terminal per
// warehouse, as literal SQL through database/sql → wiremux → divsqld
// -mode diverse -shards 2 with PK-band partitioning.
const (
	tpccShards    = 2
	tpccTerminals = 2
	// tpccTxPerSecond sizes a stretch of load: seconds × this many
	// transactions. It is a fixed count, not a fixed time, because ORDERS
	// and ORDER_LINE grow with every NewOrder: a faster build must not be
	// measured on larger tables. The rate is about what the code the
	// benchmark was defined on sustains on a 2-vCPU machine.
	tpccTxPerSecond = 250
	tpccWarmupTx    = 40 // per terminal
)

func tpccConfig(seed int64) tpcc.Config {
	return tpcc.Config{
		Warehouses:           tpccTerminals, // one per terminal, on different shards
		DistrictsPerWH:       10,
		CustomersPerDistrict: 30,
		Items:                1000,
		Seed:                 seed,
	}
}

// sqlExecutor is the core.Executor the tpcc driver runs on, backed by one
// database/sql connection: every statement is literal SQL that the
// driver prepares, binds and closes, as an application issuing ad hoc
// SQL through database/sql would.
type sqlExecutor struct {
	ctx   context.Context
	conn  *sql.Conn
	t     *tracer
	owner int
	stmts int
	err   error // the last statement error, which the tpcc driver only counts
}

func (e *sqlExecutor) Exec(q string) (*engine.Result, time.Duration, error) {
	start := time.Now()
	res, err := e.exec(q)
	e.t.record(spanClient, e.owner, start)
	e.stmts++
	if err != nil {
		e.err = fmt.Errorf("%q: %w", q, err)
	}
	return res, 0, err
}

func (e *sqlExecutor) exec(q string) (*engine.Result, error) {
	if !strings.HasPrefix(strings.ToUpper(strings.TrimSpace(q)), "SELECT") {
		r, err := e.conn.ExecContext(e.ctx, q)
		if err != nil {
			return nil, err
		}
		n, _ := r.RowsAffected() // the driver's result never errors
		return &engine.Result{Kind: engine.ResultCount, Affected: n}, nil
	}
	rows, err := e.conn.QueryContext(e.ctx, q)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		return nil, err
	}
	res := &engine.Result{Kind: engine.ResultRows, Columns: cols}
	cells := make([]any, len(cols))
	ptrs := make([]any, len(cols))
	for i := range cells {
		ptrs[i] = &cells[i]
	}
	for rows.Next() {
		if err := rows.Scan(ptrs...); err != nil {
			return nil, err
		}
		row := make([]types.Value, len(cols))
		for i, c := range cells {
			row[i] = toValue(c)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, rows.Err()
}

// toValue converts a database/sql cell back to the engine's value type.
func toValue(c any) types.Value {
	switch x := c.(type) {
	case nil:
		return types.Null()
	case int64:
		return types.NewInt(x)
	case float64:
		return types.NewFloat(x)
	case bool:
		return types.NewBool(x)
	case []byte:
		return types.NewString(string(x))
	case string:
		return types.NewString(x)
	default:
		return types.NewString(fmt.Sprint(x))
	}
}

type tpccTerminal struct {
	id   int
	exec *sqlExecutor
	drv  *tpcc.Driver
}

type tpccBench struct {
	d     *deployment
	terms []*tpccTerminal
}

// setupTPCC deploys, loads the schema, opens the terminals and warms the
// stack up with a few transactions per terminal.
func setupTPCC(ctx context.Context, seed int64, t *tracer) (*tpccBench, error) {
	d, err := deploy(tpccShards, tpcc.BandColumns(), t)
	if err != nil {
		return nil, err
	}
	b := &tpccBench{d: d}
	cfg := tpccConfig(seed)
	for term := 1; term <= tpccTerminals; term++ {
		conn, owner, err := d.conn(ctx)
		if err != nil {
			b.close()
			return nil, err
		}
		ex := &sqlExecutor{ctx: ctx, conn: conn, t: t, owner: owner}
		b.terms = append(b.terms, &tpccTerminal{id: term, exec: ex, drv: tpcc.NewTerminalDriver(cfg, tpcc.DefaultMix(), term)})
	}
	if err := tpcc.Setup(b.terms[0].exec, cfg); err != nil {
		b.close()
		return nil, err
	}
	for _, tm := range b.terms {
		// As tpcc.RunConcurrent does: terminals declare the isolation level
		// the disjoint-writer contract needs.
		if _, _, err := tm.exec.Exec("SET TRANSACTION ISOLATION LEVEL READ COMMITTED"); err != nil {
			b.close()
			return nil, err
		}
	}
	if _, err := b.run(tpccWarmupTx, false); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// load runs a fixed number of transactions sized to take about d.
func (b *tpccBench) load(d time.Duration) (loadStats, error) {
	return b.run(int(d.Seconds()*tpccTxPerSecond)/tpccTerminals, true)
}

func (b *tpccBench) snapshot() counters { return b.d.snapshot() }

// run issues perTerminal transactions from every terminal concurrently.
// Each transaction is one driver call, timed from the client. The mix has
// no deliberate rollbacks, so a transaction the driver counts as an error
// fails the run; the error is the first such failure. A terminal stops at
// its first failure.
func (b *tpccBench) run(perTerminal int, rec bool) (loadStats, error) {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		st    loadStats
		first error
	)
	for _, tm := range b.terms {
		wg.Add(1)
		go func(tm *tpccTerminal) {
			defer wg.Done()
			var ls loadStats
			stmts0 := tm.exec.stmts
			defer func() {
				ls.stmts = tm.exec.stmts - stmts0
				mu.Lock()
				st.add(ls)
				mu.Unlock()
			}()
			for i := 0; i < perTerminal; i++ {
				start := time.Now()
				m, err := tm.drv.Run(tm.exec, 1)
				d := time.Since(start)
				if err == nil && m.Errors > 0 {
					ls.ops++
					ls.failed += m.Errors
					err = fmt.Errorf("terminal %d: transaction failed: %v", tm.id, tm.exec.err)
				}
				if err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
				ls.ops++
				if rec {
					ls.lat = append(ls.lat, ms(d))
					ls.reads = append(ls.reads, m.PerType[tpcc.TxOrderStatus]+m.PerType[tpcc.TxStockLevel] > 0)
				}
			}
		}(tm)
	}
	wg.Wait()
	return st, first
}

// check runs tpcc.CheckConsistency on the deployed endpoint.
func (b *tpccBench) check() error {
	if err := tpcc.CheckConsistency(b.terms[0].exec); err != nil {
		return fmt.Errorf("tpcc consistency: %w", err)
	}
	return nil
}

func (b *tpccBench) close() {
	for _, tm := range b.terms {
		_ = tm.exec.conn.Close() // returns the session to the pool the deployment closes
	}
	b.d.close()
}
