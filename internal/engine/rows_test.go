package engine

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"divsql/internal/obs"
	"divsql/internal/sql/types"
)

// storeRow builds a one-column row holding v.
func storeRow(v int) []types.Value { return []types.Value{types.NewInt(int64(v))} }

// storeInts returns the stored values, walking the store page by page.
func storeInts(s *rowStore) []int64 {
	var out []int64
	for _, p := range s.pages() {
		for _, r := range p.rows {
			out = append(out, r[0].I)
		}
	}
	if len(out) != s.len() {
		panic("page walk disagrees with the row count")
	}
	return out
}

// filledStore returns a store holding 0..n-1.
func filledStore(n int) *rowStore {
	s := &rowStore{}
	for i := 0; i < n; i++ {
		s.push(storeRow(i))
	}
	return s
}

func seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

func wantInts(t *testing.T, what string, s *rowStore, want []int64) {
	t.Helper()
	if got := storeInts(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: got %v, want %v", what, got, want)
	}
	for i, w := range want {
		if got := s.at(i)[0].I; got != w {
			t.Fatalf("%s: at(%d) = %d, want %d", what, i, got, w)
		}
	}
}

// A clone stays unchanged under writes to its source, and the source
// under writes to the clone.
func TestRowStoreCloneIsolation(t *testing.T) {
	const n = 3*rowPageSize + 5
	src := filledStore(n)
	cl := src.clone()

	src.set(7, storeRow(-7))
	src.set(2*rowPageSize, storeRow(-1))
	src.push(storeRow(n))
	wantInts(t, "clone after source writes", &cl, seq(n))

	cl.set(9, storeRow(-9))
	cl.push(storeRow(1000))
	cl.push(storeRow(1001))
	want := append(seq(n), int64(n))
	want[7], want[2*rowPageSize] = -7, -1
	wantInts(t, "source after clone writes", src, want)

	wantClone := append(seq(n), 1000, 1001)
	wantClone[9] = -9
	wantInts(t, "clone", &cl, wantClone)

	// A second generation of clones stays independent too.
	cl2 := cl.clone()
	cl.truncate(3)
	wantInts(t, "second clone after truncate", &cl2, wantClone)
	wantInts(t, "truncated clone", &cl, []int64{0, 1, 2})
}

// push fills a shared last page and then crosses into a new page: the
// clone keeps its length and the page it shares.
func TestRowStorePushAcrossPageBoundaryAfterClone(t *testing.T) {
	src := filledStore(rowPageSize - 2)
	cl := src.clone()
	for i := rowPageSize - 2; i < rowPageSize+3; i++ {
		src.push(storeRow(i))
	}
	wantInts(t, "source", src, seq(rowPageSize+3))
	wantInts(t, "clone", &cl, seq(rowPageSize-2))
	if len(src.pages()) != 2 || len(cl.pages()) != 1 {
		t.Fatalf("pages: source %d, clone %d; want 2 and 1", len(src.pages()), len(cl.pages()))
	}

	// The clone's own pushes across the boundary do not reach the source.
	for i := 0; i < 5; i++ {
		cl.push(storeRow(500 + i))
	}
	wantInts(t, "source after clone pushes", src, seq(rowPageSize+3))
	if got := cl.at(rowPageSize + 2)[0].I; got != 504 {
		t.Fatalf("clone at(%d) = %d, want 504", rowPageSize+2, got)
	}
}

// set at the last slot of a page, the first slot of the next and the one
// after it writes exactly that position and copies only its page.
func TestRowStoreSetAtPageEdges(t *testing.T) {
	if rowPageSize != 128 {
		t.Fatalf("page-edge positions assume 128-row pages, have %d", rowPageSize)
	}
	var copies atomic.Uint64
	for _, pos := range []int{127, 128, 129} {
		src := filledStore(3 * rowPageSize)
		src.copies = &copies
		cl := src.clone()
		before := copies.Load()
		src.set(pos, storeRow(-1))
		if got := copies.Load() - before; got != 1 {
			t.Fatalf("set(%d) copied %d pages, want 1", pos, got)
		}
		want := seq(3 * rowPageSize)
		want[pos] = -1
		wantInts(t, "source", src, want)
		wantInts(t, "clone", &cl, seq(3*rowPageSize))
		// The page is owned now: a second write lands in place.
		src.set(pos, storeRow(-2))
		if got := copies.Load() - before; got != 1 {
			t.Fatalf("second set(%d) copied again (%d pages)", pos, got)
		}
	}
}

// remove keeps order, leaves the pages before the first removed row
// shared, and never reaches a clone.
func TestRowStoreRemove(t *testing.T) {
	src := filledStore(2*rowPageSize + 10)
	cl := src.clone()
	dels := []int{rowPageSize + 1, rowPageSize + 2, 2 * rowPageSize}
	src.remove(dels)
	var want []int64
	for i := 0; i < 2*rowPageSize+10; i++ {
		if i != dels[0] && i != dels[1] && i != dels[2] {
			want = append(want, int64(i))
		}
	}
	wantInts(t, "source", src, want)
	wantInts(t, "clone", &cl, seq(2*rowPageSize+10))
	if src.pages()[0] != cl.pages()[0] {
		t.Fatal("remove copied the page before the first removed row")
	}
}

// span serves a range within one page without copying.
func TestRowStoreSpanWithinPageDoesNotAllocate(t *testing.T) {
	s := filledStore(2 * rowPageSize)
	if n := testing.AllocsPerRun(100, func() { _ = s.span(rowPageSize+3, rowPageSize+30) }); n != 0 {
		t.Fatalf("span within a page allocated %.0f times", n)
	}
	got := s.span(rowPageSize-4, rowPageSize+4)
	if len(got) != 8 || got[0][0].I != rowPageSize-4 || got[7][0].I != rowPageSize+3 {
		t.Fatalf("span across a page boundary = %v", got)
	}
}

// A read-view capture followed by a one-row UPDATE copies exactly one
// row page, and the page-copy counter reaches ReadViewStats and the
// metrics collector.
func TestCaptureThenUpdateCopiesOnePage(t *testing.T) {
	e := NewOracle()
	w, r := e.NewSession(), e.NewSession()
	loadKV(t, w, 10*rowPageSize)
	for i := 0; i < 3; i++ {
		sexec(t, r, "SELECT V FROM KV WHERE K = 5") // capture
		before := e.ReadViewStats().PageCopies
		sexec(t, w, "UPDATE KV SET V = -1 WHERE K = 700")
		if got := e.ReadViewStats().PageCopies - before; got != 1 {
			t.Fatalf("round %d: capture + one-row UPDATE copied %d pages, want 1", i, got)
		}
	}
	// Without a capture in between the page is owned: no copy.
	before := e.ReadViewStats().PageCopies
	sexec(t, w, "UPDATE KV SET V = -2 WHERE K = 701")
	if got := e.ReadViewStats().PageCopies - before; got != 0 {
		t.Fatalf("uncaptured UPDATE copied %d pages, want 0", got)
	}
	reg := obs.NewRegistry()
	reg.Register(e.MetricsCollector(""))
	line := fmt.Sprintf("divsql_engine_row_page_copies_total %d\n", e.ReadViewStats().PageCopies)
	if doc := reg.Render(); !strings.Contains(doc, line) {
		t.Fatalf("engine scrape lacks %q", line)
	}
}

// A DELETE rolled back after another session committed an UPDATE to a
// kept row re-appends the deleted rows instead of re-installing the
// pre-delete row list: the committed update survives the rollback.
func TestDeleteRollbackKeepsInterleavedUpdate(t *testing.T) {
	e := NewOracle()
	a, b := e.NewSession(), e.NewSession()
	sexec(t, a, "CREATE TABLE T (K INT PRIMARY KEY, V INT)")
	sexec(t, a, "INSERT INTO T VALUES (1, 10), (2, 20), (3, 30)")
	sexec(t, a, "BEGIN")
	sexec(t, a, "DELETE FROM T WHERE K = 2")
	sexec(t, b, "UPDATE T SET V = 11 WHERE K = 1")
	sexec(t, a, "ROLLBACK")
	got := rowStrings(sexec(t, a, "SELECT K, V FROM T ORDER BY K"))
	if want := []string{"1|11", "2|20", "3|30"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rows %v, want %v", got, want)
	}
}
