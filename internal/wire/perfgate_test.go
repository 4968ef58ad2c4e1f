//go:build perfgate

package wire

import (
	"testing"
	"time"
)

// This file holds wall-clock ratio gates. They compare two timings
// taken in the same process, which only means something on an otherwise
// idle machine: under a parallel `go test ./...` the other packages'
// tests steal the CPU and the ratio drifts below its bar. They are built
// only with the perfgate tag and run serially by `make perfgate`:
//
//	go test -p 1 -count=1 -tags perfgate -run TestBatchPipeliningSpeedup ./internal/wire/

func TestBatchPipeliningSpeedup(t *testing.T) {
	// Acceptance bar: a pipelined burst must beat the same statements
	// executed as individual round trips by more than 2x. Timing tests
	// are noisy, so take the best of three attempts before judging.
	if raceEnabled {
		t.Skip("race instrumentation inflates per-statement cost, drowning the round-trip saving this guard measures")
	}
	const n = 400
	sqls := make([]string, n)
	for i := range sqls {
		sqls[i] = "SELECT 1 AS X"
	}
	best := 0.0
	for attempt := 0; attempt < 3 && best <= 2.0; attempt++ {
		c := benchWireClient(t)
		start := time.Now()
		for _, sql := range sqls {
			if _, err := c.Exec(sql); err != nil {
				t.Fatal(err)
			}
		}
		serial := time.Since(start)
		start = time.Now()
		_, errs := c.ExecBatch(sqls)
		pipelined := time.Since(start)
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		ratio := float64(serial) / float64(pipelined)
		t.Logf("attempt %d: serial %v, pipelined %v, %.1fx", attempt, serial, pipelined, ratio)
		if ratio > best {
			best = ratio
		}
	}
	if best <= 2.0 {
		t.Errorf("batch pipelining speedup %.2fx, want > 2x", best)
	}
}
