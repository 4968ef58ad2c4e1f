package engine

import (
	"sync/atomic"

	"divsql/internal/sql/types"
)

// This file implements the engine's row storage: a paged store whose
// copies share pages copy-on-write.
//
// A table's rows live in fixed-size pages reached through a directory.
// Copying a store — read-view captures, committed-image clones, snapshot
// and restore header clones, undo re-installs — copies only the store
// header and shares the directory and every page, so a copy costs
// nothing per row. Ownership decides who may write in place: the
// directory and each page carry the generation of the store that
// allocated them, and a store writes in place only into structures of
// its own generation. A copy leaves both sides owning nothing
// (generation 0), so the first write after a copy mints a fresh
// generation and copies the directory (one pointer per page) and the
// one page it touches; later writes to that page land in place. The
// first UPDATE after a read-view capture therefore costs O(rowPageSize +
// pages), not O(table).
//
// Rows themselves ([]types.Value) are immutable once stored: UPDATE
// stores a replacement slice, so shared pages never share a mutable row.
//
// Locking: writes to a store, and copies of a store that is still
// written, run under the owning table's latch or the exclusive engine
// lock, like every other row mutation. Copying a store that owns nothing
// (a sealed snapshot table, a table retained by an undo record) does not
// write to it, so such a store can be copied from many goroutines at
// once.

// rowPageSize is the number of row slots per page: the unit of
// copy-on-write.
const rowPageSize = 128

// firstPageCap is the initial capacity of a table's first page, so small
// tables do not pay for a full page.
const firstPageCap = 8

// rowGen mints store generations; 0 is never minted and owns nothing.
var rowGen atomic.Uint64

// rowPage holds up to rowPageSize consecutive rows. gen is the
// generation of the store allowed to write it in place.
type rowPage struct {
	gen  uint64
	rows [][]types.Value
}

// rowDir is the ordered page list of a store. Every page but the last is
// full.
type rowDir struct {
	gen   uint64
	pages []*rowPage
}

// rowStore is a table's row sequence. The zero value is an empty store.
// Copy it only with clone: a plain struct copy would leave two stores
// owning the same pages.
type rowStore struct {
	dir *rowDir
	n   int
	// gen is the store's ownership generation; 0 until its first write
	// after a copy.
	gen uint64
	// copies, when set, counts the pages this store's writes copied (the
	// engine's row-page-copies counter; clones inherit it).
	copies *atomic.Uint64
}

// len returns the number of rows.
func (s *rowStore) len() int { return s.n }

// at returns the row at position i.
func (s *rowStore) at(i int) []types.Value {
	return s.dir.pages[i/rowPageSize].rows[i%rowPageSize]
}

// pages returns the page list, for whole-store scans:
//
//	for _, p := range s.pages() { for _, row := range p.rows { ... } }
func (s *rowStore) pages() []*rowPage {
	if s.dir == nil {
		return nil
	}
	return s.dir.pages
}

// chunk returns the rows from position i to the end of i's page, cut
// at position end. A range scan walks [lo, hi) page by page:
//
//	for i := lo; i < hi; { rows := s.chunk(i, hi); ...; i += len(rows) }
func (s *rowStore) chunk(i, end int) [][]types.Value {
	rows := s.dir.pages[i/rowPageSize].rows[i%rowPageSize:]
	if len(rows) > end-i {
		rows = rows[:end-i]
	}
	if len(rows) == 0 {
		// Only reachable if a page was written by a store that did not
		// own it; fail loudly instead of letting the scan spin.
		panic("engine: row store pages disagree with its row count")
	}
	return rows
}

// span returns rows [lo, hi): a capacity-capped subslice of one page
// when the range lies within a page (no allocation), else a fresh copy.
// The result is read-only.
func (s *rowStore) span(lo, hi int) [][]types.Value {
	if lo == hi {
		return nil
	}
	if rows := s.chunk(lo, hi); len(rows) == hi-lo {
		return rows[:len(rows):len(rows)]
	}
	out := make([][]types.Value, 0, hi-lo)
	for i := lo; i < hi; {
		rows := s.chunk(i, hi)
		out = append(out, rows...)
		i += len(rows)
	}
	return out
}

// appendTo appends every row to dst.
func (s *rowStore) appendTo(dst [][]types.Value) [][]types.Value {
	for _, p := range s.pages() {
		dst = append(dst, p.rows...)
	}
	return dst
}

// flat returns every row as one slice: the page itself for a store of
// at most one page, else a copy. The result is read-only.
func (s *rowStore) flat() [][]types.Value {
	if ps := s.pages(); len(ps) <= 1 {
		if len(ps) == 0 {
			return nil
		}
		return ps[0].rows
	}
	return s.appendTo(make([][]types.Value, 0, s.n))
}

// clone returns a copy sharing the directory and every page. The source
// gives up ownership (unless it owns nothing already, in which case it
// is not written), so neither side writes a shared page in place.
func (s *rowStore) clone() rowStore {
	s.seal()
	return *s
}

// seal gives up ownership of every page: the next write copies first.
// A sealed store is copied without being written.
func (s *rowStore) seal() {
	if s.gen != 0 {
		s.gen = 0
	}
}

// ownDir makes the directory writable, minting a generation for a store
// that owns none and copying a shared directory.
func (s *rowStore) ownDir() {
	if s.gen == 0 {
		s.gen = rowGen.Add(1)
	}
	switch {
	case s.dir == nil:
		s.dir = &rowDir{gen: s.gen}
	case s.dir.gen != s.gen:
		s.dir = &rowDir{gen: s.gen, pages: append([]*rowPage(nil), s.dir.pages...)}
	}
}

// writable returns page pi ready for an in-place write, copying it
// first when another store may share it.
func (s *rowStore) writable(pi int) *rowPage {
	if s.gen == 0 || s.dir.gen != s.gen {
		s.ownDir()
	}
	p := s.dir.pages[pi]
	if p.gen != s.gen {
		p = &rowPage{gen: s.gen, rows: append(make([][]types.Value, 0, cap(p.rows)), p.rows...)}
		s.dir.pages[pi] = p
		if s.copies != nil {
			s.copies.Add(1)
		}
	}
	return p
}

// set replaces the row at position i.
func (s *rowStore) set(i int, row []types.Value) {
	s.writable(i / rowPageSize).rows[i%rowPageSize] = row
}

// push appends a row.
func (s *rowStore) push(row []types.Value) {
	if s.n%rowPageSize == 0 {
		s.ownDir()
		c := rowPageSize
		if s.n == 0 {
			c = firstPageCap
		}
		s.dir.pages = append(s.dir.pages, &rowPage{gen: s.gen, rows: make([][]types.Value, 0, c)})
	}
	p := s.writable(s.n / rowPageSize)
	if len(p.rows) == cap(p.rows) {
		grown := make([][]types.Value, len(p.rows), min(2*cap(p.rows), rowPageSize))
		copy(grown, p.rows)
		p.rows = grown
	}
	p.rows = append(p.rows, row)
	s.n++
}

// truncate drops every row from position n on.
func (s *rowStore) truncate(n int) {
	if n >= s.n {
		return
	}
	s.ownDir()
	np := (n + rowPageSize - 1) / rowPageSize
	clear(s.dir.pages[np:])
	s.dir.pages = s.dir.pages[:np]
	if r := n % rowPageSize; r != 0 {
		p := s.writable(np - 1)
		clear(p.rows[r:])
		p.rows = p.rows[:r]
	}
	s.n = n
}

// remove deletes the rows at the given ascending positions, keeping the
// rest in order. Rows before the first position are not rewritten, so
// their pages stay shared with any copy.
func (s *rowStore) remove(dels []int) {
	if len(dels) == 0 {
		return
	}
	w, d := dels[0], 0
	for i := w; i < s.n; {
		rows := s.chunk(i, s.n)
		for j, row := range rows {
			if d < len(dels) && dels[d] == i+j {
				d++
				continue
			}
			s.set(w, row)
			w++
		}
		i += len(rows)
	}
	s.truncate(w)
}
