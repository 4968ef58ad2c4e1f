package engine

import (
	"fmt"
	"strings"
	"testing"

	"divsql/internal/sql/ast"
	"divsql/internal/sql/parser"
	"divsql/internal/sql/types"
)

// benchSink keeps the measured results reachable so the compiler cannot
// drop the calls.
var benchSink *Result

// loadKV creates KV(K INT PRIMARY KEY, V INT) holding keys 0..n-1.
func loadKV(tb testing.TB, s *Session, n int) {
	tb.Helper()
	sexec(tb, s, "CREATE TABLE KV (K INT PRIMARY KEY, V INT)")
	const chunk = 500
	for lo := 0; lo < n; lo += chunk {
		var sb strings.Builder
		sb.WriteString("INSERT INTO KV VALUES ")
		for k := lo; k < lo+chunk && k < n; k++ {
			if k > lo {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d, %d)", k, k)
		}
		sexec(tb, s, sb.String())
	}
}

func mustParse(tb testing.TB, sql string) ast.Statement {
	tb.Helper()
	st, err := parser.Parse(sql)
	if err != nil {
		tb.Fatalf("parse %q: %v", sql, err)
	}
	return st
}

// BenchmarkUpdatePK measures a prepared key-stable point UPDATE in
// steady state on tables of 10k and 100k rows: load and 1000 warm-up
// updates run outside the timer. The "capture" case has a second
// session read one row before every update, so each update is the first
// write after a read-view capture and pays the copy-on-write of the one
// row page it touches; its op is that SELECT plus the UPDATE. Its cost
// must not grow with the table size.
func BenchmarkUpdatePK(b *testing.B) {
	for _, capture := range []bool{false, true} {
		name := "steady"
		if capture {
			name = "capture"
		}
		for _, rows := range []int{10000, 100000} {
			b.Run(fmt.Sprintf("%s/rows=%d", name, rows), func(b *testing.B) {
				e := NewOracle()
				w, r := e.NewSession(), e.NewSession()
				loadKV(b, w, rows)
				upd := mustParse(b, "UPDATE KV SET V = ? WHERE K = ?")
				sel := mustParse(b, "SELECT V FROM KV WHERE K = ?")
				step := func(i int) {
					k := types.NewInt(int64(i*7919) % int64(rows))
					if capture {
						res, err := r.ExecBind(sel, []types.Value{k})
						if err != nil {
							b.Fatal(err)
						}
						benchSink = res
					}
					res, err := w.ExecBind(upd, []types.Value{types.NewInt(int64(i)), k})
					if err != nil {
						b.Fatal(err)
					}
					if res.Affected != 1 {
						b.Fatalf("update touched %d rows, want 1", res.Affected)
					}
					benchSink = res
				}
				for i := 0; i < 1000; i++ {
					step(i)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step(1000 + i)
				}
			})
		}
	}
}
