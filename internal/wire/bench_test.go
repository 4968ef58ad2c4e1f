package wire

import (
	"testing"

	"divsql/internal/dialect"
	"divsql/internal/server"
)

// The pipelining benchmarks quantify what the BATCH envelope buys: a
// per-round-trip client pays one socket round trip per statement, a
// pipelined client pays one per burst. The guard test holding the ratio
// above 2x lives in perfgate_test.go: it compares wall-clock times, so
// it runs only in the serial perf-gate job (make perfgate).

func benchWireClient(tb testing.TB) *Client {
	tb.Helper()
	srv, err := server.New(dialect.PG, nil)
	if err != nil {
		tb.Fatal(err)
	}
	ws := NewServer(srv)
	addr, err := ws.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = ws.Close() })
	c, err := Dial(addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = c.Close() })
	if _, err := c.Exec("CREATE TABLE W (A INT)"); err != nil {
		tb.Fatal(err)
	}
	return c
}

func BenchmarkWireRoundTrip(b *testing.B) {
	c := benchWireClient(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Exec("INSERT INTO W VALUES (1)"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWirePipelined(b *testing.B) {
	c := benchWireClient(b)
	// Bursts of 128 statements per BATCH envelope.
	const burst = 128
	sqls := make([]string, burst)
	for i := range sqls {
		sqls[i] = "INSERT INTO W VALUES (1)"
	}
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for done < b.N {
		n := burst
		if rem := b.N - done; rem < n {
			n = rem
		}
		_, errs := c.ExecBatch(sqls[:n])
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
		done += n
	}
}
