package main

import (
	"fmt"
	"time"

	"divsql/internal/core"
	"divsql/internal/corpus"
	"divsql/internal/server"
	"divsql/internal/sql/types"
)

// ladderKV is the replica rung of kv-point: it replays an op stream on
// each of PG, OR and MS alone — one server.Session each, holding the
// same table and the same three prepared statements — and returns, per
// op, the slowest replica's time. That is the least the middleware's
// broadcast of the op can take, so the endpoint span minus it is the
// middleware's own cost. The history ops are applied first, untimed.
func ladderKV(history, ops []kvOp) ([]time.Duration, error) {
	var rungs []rung
	for _, name := range replicaSet {
		srv, err := server.New(name, corpus.AllFaults())
		if err != nil {
			return nil, fmt.Errorf("ladder %s: %w", name, err)
		}
		sess := srv.NewSession()
		defer sess.Close()
		for _, q := range append([]string{kvCreate}, kvInserts()...) {
			if _, _, err := sess.Exec(q); err != nil {
				return nil, fmt.Errorf("ladder %s: load: %w", name, err)
			}
		}
		var r rung
		for _, p := range []struct {
			dst *core.Statement
			sql string
		}{{&r.point, kvPoint}, {&r.scan, kvRange}, {&r.write, kvUpdate}} {
			if *p.dst, err = sess.Prepare(p.sql); err != nil {
				return nil, fmt.Errorf("ladder %s: prepare %q: %w", name, p.sql, err)
			}
		}
		rungs = append(rungs, r)
	}
	for _, op := range history {
		for _, r := range rungs {
			r.exec(op)
		}
	}
	slowest := make([]time.Duration, len(ops))
	for i, op := range ops {
		for _, r := range rungs {
			start := time.Now()
			r.exec(op)
			slowest[i] = max(slowest[i], time.Since(start))
		}
	}
	return slowest, nil
}

// rung is one replica alone, with the kv-point statements prepared.
type rung struct{ point, scan, write core.Statement }

// exec runs op on the rung. Errors from armed faults are part of a
// replica's behaviour; the rung times them like any answer.
func (r rung) exec(op kvOp) {
	k := types.NewInt(int64(op.k))
	switch op.kind {
	case opPoint:
		_, _, _ = r.point.Exec(k)
	case opRange:
		_, _, _ = r.scan.Exec(k, types.NewInt(int64(op.k+kvRangeRows)))
	case opUpdate:
		_, _, _ = r.write.Exec(types.NewInt(op.v), k)
	}
}
