package engine

import (
	"fmt"

	"divsql/internal/sql/ast"
	"divsql/internal/sql/types"
)

// dmlEqCandidates narrows an UPDATE/DELETE row visit through the lazy
// index machinery, under the same contract as the compiled SELECT path
// (plan.Analyze + candidateRows): the top-level AND conjuncts of the
// form `col = value` (INT column of t, literal or parameter value)
// select an equality index, and the probe returns a superset of the
// WHERE-true positions in table order — narrowing only skips rows that
// provably cannot satisfy an indexed conjunct. The second result is
// false when only a full scan is sound (no usable conjuncts, non-INT
// key value that could still match through loose coercion, poisoned
// index).
func (s *Session) dmlEqCandidates(t *Table, where ast.Expr) ([]int, bool) {
	if where == nil {
		return nil, false
	}
	var cols []int
	var vals []ast.Expr
	stack := []ast.Expr{where}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		b, ok := x.(*ast.Binary)
		if !ok {
			continue
		}
		switch b.Op {
		case ast.OpAnd:
			stack = append(stack, b.L, b.R)
			continue
		case ast.OpEq:
		default:
			continue
		}
		cr, val := b.L, b.R
		if _, ok := cr.(*ast.ColumnRef); !ok {
			cr, val = b.R, b.L
		}
		ref, ok := cr.(*ast.ColumnRef)
		if !ok {
			continue
		}
		switch val.(type) {
		case *ast.Literal, *ast.Param:
		default:
			continue
		}
		if q := up(ref.Table); q != "" && q != t.Name {
			continue
		}
		ci := t.colIndex(ref.Column)
		if ci < 0 || t.Cols[ci].Kind != types.KindInt {
			continue
		}
		dup := false
		for _, c := range cols {
			if c == ci {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		cols = append(cols, ci)
		vals = append(vals, val)
	}
	if len(cols) == 0 {
		return nil, false
	}
	keys := make([]int64, len(cols))
	for i, vx := range vals {
		v, err := s.evalExpr(vx, nil)
		if err != nil {
			return nil, false
		}
		switch v.K {
		case types.KindInt:
			keys[i] = v.I
		case types.KindNull:
			// Equality with NULL is Unknown on every row: provably empty.
			return []int{}, true
		default:
			return nil, false
		}
	}
	return t.ic.eqLookup(t, cols, keys)
}

func (e *Session) execInsert(ins *ast.Insert) (*Result, error) {
	t, ok := e.eng.st.tables[up(ins.Table)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrTableNotFound, ins.Table)
	}
	targets, err := insertTargets(t, ins.Columns)
	if err != nil {
		return nil, err
	}

	var sourceRows [][]types.Value
	if ins.Select != nil {
		res, err := e.evalSelect(ins.Select, nil)
		if err != nil {
			return nil, err
		}
		sourceRows = res.Rows
	} else {
		for _, exprRow := range ins.Rows {
			row := make([]types.Value, 0, len(exprRow))
			for _, ex := range exprRow {
				v, err := e.evalExpr(ex, nil)
				if err != nil {
					return nil, err
				}
				row = append(row, v)
			}
			sourceRows = append(sourceRows, row)
		}
	}

	var added [][]types.Value
	// Statement atomicity: a failure on any row unwinds the rows this
	// statement already appended. Without this, a mid-statement error
	// would leave rows that no undo record covers — ROLLBACK would keep
	// them and Snapshot's committed-image rewind would leak them. The
	// statement holds the table latch, so its rows are still the tail.
	undoPartial := func() {
		if len(added) > 0 {
			t.rows.truncate(t.rows.len() - len(added))
			t.touchBase()
		}
	}
	for _, src := range sourceRows {
		if len(src) != len(targets) {
			undoPartial()
			return nil, fmt.Errorf("INSERT has %d values for %d columns", len(src), len(targets))
		}
		row, err := e.buildRow(t, targets, src)
		if err != nil {
			undoPartial()
			return nil, err
		}
		if err := e.checkConstraints(t, row, -1, nil); err != nil {
			undoPartial()
			return nil, err
		}
		t.rows.push(row)
		added = append(added, row)
	}
	if len(added) > 0 {
		t.touch()
		// Undo by row identity, not by position: other sessions'
		// statements may land between this insert and a rollback, so
		// truncating the tail could remove their rows instead of ours.
		tname := t.Name
		e.logUndoTable(tname, func(dst *state, _ bool) {
			if dt, ok := dst.tables[tname]; ok {
				dt.removeRowsByIdentity(added)
			}
		})
	}
	return &Result{Kind: ResultCount, Affected: int64(len(added))}, nil
}

// removeRowsByIdentity deletes the given row slices from the table,
// matching by slice identity rather than value, so a rollback removes
// exactly the transaction's own rows even when statements from other
// sessions interleaved after the insert.
func (t *Table) removeRowsByIdentity(rows [][]types.Value) {
	drop := make(map[*types.Value]bool, len(rows))
	for _, r := range rows {
		if len(r) > 0 {
			drop[&r[0]] = true
		}
	}
	var dels []int
	for lo, n := 0, t.rows.len(); lo < n; {
		rows := t.rows.chunk(lo, n)
		for j, r := range rows {
			if len(r) > 0 && drop[&r[0]] {
				dels = append(dels, lo+j)
			}
		}
		lo += len(rows)
	}
	t.rows.remove(dels)
	t.touchBase()
}

// sameRow reports whether two rows are the same storage slice.
func sameRow(a, b []types.Value) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// insertTargets maps the INSERT column list to column indexes (all
// columns, in order, when the list is empty).
func insertTargets(t *Table, cols []string) ([]int, error) {
	if len(cols) == 0 {
		idx := make([]int, len(t.Cols))
		for i := range t.Cols {
			idx[i] = i
		}
		return idx, nil
	}
	idx := make([]int, 0, len(cols))
	seen := make(map[int]bool, len(cols))
	for _, c := range cols {
		i := t.colIndex(c)
		if i < 0 {
			return nil, fmt.Errorf("unknown column %s in table %s", c, t.Name)
		}
		if seen[i] {
			return nil, fmt.Errorf("column %s specified twice", c)
		}
		seen[i] = true
		idx = append(idx, i)
	}
	return idx, nil
}

// buildRow produces a full storage row from target column values,
// applying defaults, coercion and NOT NULL checks.
func (e *Session) buildRow(t *Table, targets []int, src []types.Value) ([]types.Value, error) {
	row := make([]types.Value, len(t.Cols))
	provided := make([]bool, len(t.Cols))
	for i, ci := range targets {
		v, err := coerce(src[i], t.Cols[ci].Kind)
		if err != nil {
			return nil, fmt.Errorf("column %s: %w", t.Cols[ci].Name, err)
		}
		row[ci] = v
		provided[ci] = true
	}
	for ci, col := range t.Cols {
		if provided[ci] {
			continue
		}
		switch {
		case col.Default != nil:
			dv, err := e.evalConst(col.Default)
			if err != nil {
				return nil, err
			}
			if col.RawDefault {
				// Quirk path (bug 217042(3)): the invalid default was
				// accepted at CREATE TABLE and is applied verbatim,
				// bypassing coercion — an ill-typed value lands in the row.
				row[ci] = dv
				continue
			}
			cv, err := coerce(dv, col.Kind)
			if err != nil {
				return nil, fmt.Errorf("default for column %s: %w", col.Name, err)
			}
			row[ci] = cv
		default:
			row[ci] = types.Null()
		}
	}
	for ci, col := range t.Cols {
		if col.NotNull && row[ci].IsNull() {
			return nil, fmt.Errorf("%w: column %s is NOT NULL", ErrConstraint, col.Name)
		}
	}
	return row, nil
}

// checkConstraints verifies PK/UNIQUE/CHECK for a candidate row. skipIdx
// excludes one row position (the row being updated), -1 for inserts;
// setCols lists the columns the UPDATE sets (nil for inserts).
func (e *Session) checkConstraints(t *Table, row []types.Value, skipIdx int, setCols []int) error {
	keysets := make([][]int, 0, 1+len(t.Uniques))
	if len(t.PKCols) > 0 {
		keysets = append(keysets, t.PKCols)
	}
	keysets = append(keysets, t.Uniques...)
	for _, key := range keysets {
		allSet := true
		allInt := true
		for _, ci := range key {
			switch row[ci].K {
			case types.KindNull:
				allSet = false
			case types.KindInt:
			default:
				allInt = false
			}
		}
		if !allSet {
			continue // NULLs never collide under UNIQUE
		}
		// Fast path: when the candidate key is all-INT and the
		// statement sets none of the key's columns (always true for an
		// insert), probe the lazily maintained equality index instead
		// of scanning. Inserts extend the index incrementally
		// (index.go), so a run of them pays O(1) amortized per check
		// instead of O(table). A key-stable UPDATE can trust the index
		// mid-statement: each replacement bumps only the SET columns'
		// versions and never moves a position, so the key's index stays
		// exact while earlier rows of the same statement are replaced.
		// Any matching position other than skipIdx is a duplicate —
		// the scan's verdict, even on a table already carrying
		// duplicates. A keyset the statement sets, a non-INT candidate
		// and a poisoned index (non-INT value in a key column somewhere
		// in the table) fall back to the scan.
		if allInt && !sharesCol(key, setCols) {
			keys := make([]int64, len(key))
			for i, ci := range key {
				keys[i] = row[ci].I
			}
			if hits, ok := t.ic.eqLookup(t, key, keys); ok {
				for _, ri := range hits {
					if ri != skipIdx {
						return fmt.Errorf("%w: duplicate key in table %s", ErrConstraint, t.Name)
					}
				}
				continue
			}
		}
		for lo, n := 0, t.rows.len(); lo < n; {
			rows := t.rows.chunk(lo, n)
			for j, existing := range rows {
				if lo+j == skipIdx {
					continue
				}
				same := true
				for _, ci := range key {
					if !types.Identical(existing[ci], row[ci]) {
						same = false
						break
					}
				}
				if same {
					return fmt.Errorf("%w: duplicate key in table %s", ErrConstraint, t.Name)
				}
			}
			lo += len(rows)
		}
	}
	for _, chk := range t.Checks {
		sc := &scope{cols: tableScopeCols(t), vals: row}
		v, err := e.evalExpr(chk, sc)
		if err != nil {
			return err
		}
		if types.TruthOf(v) == types.False {
			return fmt.Errorf("%w: CHECK failed on table %s", ErrConstraint, t.Name)
		}
	}
	return nil
}

// sharesCol reports whether the two column ordinal lists intersect.
func sharesCol(a, b []int) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

func tableScopeCols(t *Table) []scopeCol {
	cols := make([]scopeCol, len(t.Cols))
	for i, c := range t.Cols {
		cols[i] = scopeCol{qual: t.Name, name: c.Name}
	}
	return cols
}

// findDuplicate returns the index of a row that collides with another on
// the given key columns, or -1.
func (t *Table) findDuplicate(key []int) int {
	seen := make(map[string]bool, t.rows.len())
	for lo, n := 0, t.rows.len(); lo < n; {
		rows := t.rows.chunk(lo, n)
		for j, row := range rows {
			allSet := true
			var kb []byte
			for _, ci := range key {
				if row[ci].IsNull() {
					allSet = false
					break
				}
				kb = append(kb, row[ci].String()...)
				kb = append(kb, 0x1f)
			}
			if !allSet {
				continue
			}
			k := string(kb)
			if seen[k] {
				return lo + j
			}
			seen[k] = true
		}
		lo += len(rows)
	}
	return -1
}

func (e *Session) execUpdate(upd *ast.Update) (*Result, error) {
	t, ok := e.eng.st.tables[up(upd.Table)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrTableNotFound, upd.Table)
	}
	setIdx := make([]int, len(upd.Sets))
	for i, sc := range upd.Sets {
		ci := t.colIndex(sc.Column)
		if ci < 0 {
			return nil, fmt.Errorf("unknown column %s in table %s", sc.Column, t.Name)
		}
		setIdx[i] = ci
	}
	cols := tableScopeCols(t)
	var affected int64
	type change struct {
		pos      int
		old, new []types.Value
	}
	var changes []change
	// Statement atomicity: a failure on any row swaps back the rows this
	// statement already replaced (see execInsert for why partial effects
	// must not survive an error). The statement holds the table latch and
	// replacements never move a row, so each change is still at pos.
	undoPartial := func() {
		for i := len(changes) - 1; i >= 0; i-- {
			t.rows.set(changes[i].pos, changes[i].old)
		}
		if len(changes) > 0 {
			t.bumpCols(setIdx)
		}
	}
	// One scope reused across the scan (vals swapped per row): the
	// evaluator never retains a scope past the call, and the allocation
	// would otherwise dominate the statement on long tables.
	sc := &scope{cols: cols}
	// updateRow applies the statement to one row position; the caller
	// runs undoPartial on error.
	updateRow := func(ri int, row []types.Value) error {
		if upd.Where != nil {
			sc.vals = row
			v, err := e.evalExpr(upd.Where, sc)
			if err != nil {
				return err
			}
			if types.TruthOf(v) != types.True {
				return nil
			}
		}
		newRow := append([]types.Value(nil), row...)
		for i, scl := range upd.Sets {
			sc.vals = row
			v, err := e.evalExpr(scl.Value, sc)
			if err != nil {
				return err
			}
			cv, err := coerce(v, t.Cols[setIdx[i]].Kind)
			if err != nil {
				return fmt.Errorf("column %s: %w", t.Cols[setIdx[i]].Name, err)
			}
			if t.Cols[setIdx[i]].NotNull && cv.IsNull() {
				return fmt.Errorf("%w: column %s is NOT NULL", ErrConstraint, t.Cols[setIdx[i]].Name)
			}
			newRow[setIdx[i]] = cv
		}
		if err := e.checkConstraints(t, newRow, ri, setIdx); err != nil {
			return err
		}
		changes = append(changes, change{pos: ri, old: row, new: newRow})
		t.rows.set(ri, newRow)
		// Per-replacement version bump: only the SET columns' indexes
		// invalidate (positions never move), and a subquery evaluated for
		// a later row of this same statement sees the replacement.
		t.bumpCols(setIdx)
		affected++
		return nil
	}
	// Candidate narrowing makes point UPDATEs O(matched), not O(table):
	// positions are computed from the pre-statement index (in-place
	// replacements never move a position), each visited at most once
	// with its pre-statement row image — exactly the rows and values the
	// full scan would have visited and found WHERE-true.
	if cands, narrowed := e.dmlEqCandidates(t, upd.Where); narrowed {
		for _, ri := range cands {
			if err := updateRow(ri, t.rows.at(ri)); err != nil {
				undoPartial()
				return nil, err
			}
		}
	} else {
		// A replacement copies a shared page before writing it; the
		// chunk being walked keeps the pre-statement rows either way.
		for lo, n := 0, t.rows.len(); lo < n; {
			rows := t.rows.chunk(lo, n)
			for j, row := range rows {
				if err := updateRow(lo+j, row); err != nil {
					undoPartial()
					return nil, err
				}
			}
			lo += len(rows)
		}
	}
	if len(changes) > 0 {
		// Undo by row identity: find the replacement row wherever it now
		// sits and swap the original back. Positional restore would panic
		// or clobber other sessions' rows if the table shifted between
		// the update and the rollback; identity restore is a no-op for a
		// row another session deleted meanwhile. The update-time position
		// is tried first; only when some replacement moved does one
		// position map keep the rollback linear in the table size.
		saved, tname := changes, t.Name
		e.logUndoTable(tname, func(dst *state, _ bool) {
			t, ok := dst.tables[tname]
			if !ok {
				return
			}
			var pos map[*types.Value]int
			for i := len(saved) - 1; i >= 0; i-- {
				ch := saved[i]
				if len(ch.new) == 0 {
					continue
				}
				if ch.pos < t.rows.len() && sameRow(t.rows.at(ch.pos), ch.new) {
					t.rows.set(ch.pos, ch.old)
					continue
				}
				if pos == nil {
					pos = rowPositions(&t.rows)
				}
				if ri, ok := pos[&ch.new[0]]; ok {
					t.rows.set(ri, ch.old)
				}
			}
			t.bumpCols(setIdx)
		})
	}
	return &Result{Kind: ResultCount, Affected: affected}, nil
}

func (e *Session) execDelete(del *ast.Delete) (*Result, error) {
	t, ok := e.eng.st.tables[up(del.Table)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrTableNotFound, del.Table)
	}
	sc := &scope{cols: tableScopeCols(t)}
	// dels collects the WHERE-true positions in ascending order; rows
	// move only once every predicate has been evaluated.
	var dels []int
	if cands, narrowed := e.dmlEqCandidates(t, del.Where); narrowed {
		// Candidate narrowing: rows outside the candidate set provably
		// fail an equality conjunct and are kept without evaluating the
		// predicate.
		for _, ri := range cands {
			sc.vals = t.rows.at(ri)
			v, err := e.evalExpr(del.Where, sc)
			if err != nil {
				return nil, err
			}
			if types.TruthOf(v) == types.True {
				dels = append(dels, ri)
			}
		}
	} else {
		for lo, n := 0, t.rows.len(); lo < n; {
			rows := t.rows.chunk(lo, n)
			for j, row := range rows {
				if del.Where != nil {
					sc.vals = row
					v, err := e.evalExpr(del.Where, sc)
					if err != nil {
						return nil, err
					}
					if types.TruthOf(v) != types.True {
						continue
					}
				}
				dels = append(dels, lo+j)
			}
			lo += len(rows)
		}
	}
	if len(dels) == 0 {
		return &Result{Kind: ResultCount, Affected: 0}, nil
	}
	removed := make([][]types.Value, len(dels))
	for i, ri := range dels {
		removed[i] = t.rows.at(ri)
	}
	// Inside a transaction the undo record keeps the pre-delete store: a
	// clone shares its pages, so retaining it copies no rows, and the
	// removal below then copies only the pages from the first deleted
	// row on. Outside one no undo record is kept (logUndo), and the
	// removal writes the table's own pages in place.
	var old rowStore
	if e.inTxn {
		old = t.rows.clone()
	}
	t.rows.remove(dels)
	t.touchBase()
	tname := t.Name
	e.logUndoTable(tname, func(dst *state, _ bool) {
		t, ok := dst.tables[tname]
		if !ok {
			return
		}
		// When the table is untouched since the delete (every kept row
		// still in place), re-install the pre-delete store — exact order
		// and all; it owns no page, so the next write copies what it
		// touches. Otherwise other sessions' statements interleaved:
		// re-append the removed rows instead, so a stale row list cannot
		// erase their committed changes.
		if keptIntact(&t.rows, &old, removed) {
			t.rows = old.clone()
		} else {
			for _, r := range removed {
				t.rows.push(r)
			}
		}
		t.touchBase()
	})
	return &Result{Kind: ResultCount, Affected: int64(len(dels))}, nil
}

// keptIntact reports whether cur holds exactly old's rows minus removed
// (a subsequence of old, in order), compared by row identity.
func keptIntact(cur, old *rowStore, removed [][]types.Value) bool {
	if cur.len() != old.len()-len(removed) {
		return false
	}
	k, w := 0, 0
	for lo, n := 0, old.len(); lo < n; {
		rows := old.chunk(lo, n)
		for _, row := range rows {
			if k < len(removed) && sameRow(row, removed[k]) {
				k++
				continue
			}
			if !sameRow(cur.at(w), row) {
				return false
			}
			w++
		}
		lo += len(rows)
	}
	return true
}

// rowPositions maps each stored row's identity to its position.
func rowPositions(s *rowStore) map[*types.Value]int {
	pos := make(map[*types.Value]int, s.len())
	for lo, n := 0, s.len(); lo < n; {
		rows := s.chunk(lo, n)
		for j, r := range rows {
			if len(r) > 0 {
				pos[&r[0]] = lo + j
			}
		}
		lo += len(rows)
	}
	return pos
}
