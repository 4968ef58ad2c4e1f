package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"divsql/internal/sql/ast"
	"divsql/internal/sql/types"
)

// relation is an intermediate result during query evaluation.
type relation struct {
	cols []scopeCol
	rows [][]types.Value
}

// evalSelect evaluates a (possibly compound) query expression. outer is
// the enclosing scope for correlated subqueries (nil at top level).
//
// ORDER BY keys may reference source columns that are not projected; for
// simple (non-DISTINCT, non-UNION) queries they are computed as hidden
// trailing columns in the source scope and stripped after sorting. For
// DISTINCT/UNION results, SQL requires the keys to appear in the output,
// so they are resolved against the output columns.
func (e *Session) evalSelect(s *ast.Select, outer *scope) (*Result, error) {
	simple := s.Union == nil && !s.Distinct
	if simple && len(s.OrderBy) > 0 {
		res, err := e.evalSelectHiddenOrder(s, outer)
		if err != nil {
			return nil, err
		}
		applyLimit(s, res)
		return res, nil
	}

	res, err := e.evalSelectCore(s, outer)
	if err != nil {
		return nil, err
	}
	for u := s.Union; u != nil; u = u.Union {
		branch, err := e.evalSelectCore(u, outer)
		if err != nil {
			return nil, err
		}
		if len(branch.Columns) != len(res.Columns) {
			return nil, errors.New("UNION branches have different column counts")
		}
		res.Rows = append(res.Rows, branch.Rows...)
		if !unionAllAt(s, u) {
			res.Rows = dedupeRows(res.Rows)
		}
	}
	if len(s.OrderBy) > 0 {
		if err := orderRows(e, res, s.OrderBy, outer); err != nil {
			return nil, err
		}
	}
	applyLimit(s, res)
	return res, nil
}

func applyLimit(s *ast.Select, res *Result) {
	if s.LimitSyn != ast.LimitNone && int64(len(res.Rows)) > s.Limit {
		res.Rows = res.Rows[:s.Limit]
	}
}

// evalSelectHiddenOrder evaluates a simple SELECT, computing non-
// positional ORDER BY keys as hidden trailing columns in the source
// scope, sorting, then stripping the hidden columns.
func (e *Session) evalSelectHiddenOrder(s *ast.Select, outer *scope) (*Result, error) {
	cp := *s
	cp.Items = append([]ast.SelectItem(nil), s.Items...)
	// keyCol[k] >= 0 identifies the hidden column (offset from the end);
	// keyCol[k] < 0 encodes a 1-based output position as -(pos).
	keyCol := make([]int, len(s.OrderBy))
	hidden := 0
	for k, o := range s.OrderBy {
		if lit, ok := o.Expr.(*ast.Literal); ok && lit.Val.K == types.KindInt {
			keyCol[k] = -int(lit.Val.I)
			continue
		}
		cp.Items = append(cp.Items, ast.SelectItem{Expr: o.Expr, Alias: "__SORT__"})
		keyCol[k] = hidden
		hidden++
	}
	res, err := e.evalSelectCore(&cp, outer)
	if err != nil {
		return nil, err
	}
	visible := len(res.Columns) - hidden
	keyIdx := make([]int, len(keyCol))
	for k, kc := range keyCol {
		if kc >= 0 {
			keyIdx[k] = visible + kc
		} else {
			pos := -kc - 1
			if pos < 0 || pos >= visible {
				return nil, fmt.Errorf("ORDER BY position %d out of range", -kc)
			}
			keyIdx[k] = pos
		}
	}
	sort.SliceStable(res.Rows, func(i, j int) bool {
		for k, item := range s.OrderBy {
			c := compareForSort(res.Rows[i][keyIdx[k]], res.Rows[j][keyIdx[k]])
			if c == 0 {
				continue
			}
			if item.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	res.Columns = res.Columns[:visible]
	for i, row := range res.Rows {
		res.Rows[i] = row[:visible]
	}
	return res, nil
}

// unionAllAt reports whether the branch u was attached with UNION ALL.
func unionAllAt(first *ast.Select, u *ast.Select) bool {
	for cur := first; cur != nil; cur = cur.Union {
		if cur.Union == u {
			return cur.UnionAll
		}
	}
	return false
}

func dedupeRows(rows [][]types.Value) [][]types.Value {
	seen := make(map[string]bool, len(rows))
	out := rows[:0:0]
	for _, r := range rows {
		k := rowKey(r)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, r)
	}
	return out
}

func rowKey(row []types.Value) string {
	var b strings.Builder
	for _, v := range row {
		b.WriteString(v.String())
		b.WriteByte('\x1f')
		b.WriteByte(byte('0' + int(v.K)))
		b.WriteByte('\x1e')
	}
	return b.String()
}

func orderRows(e *Session, res *Result, order []ast.OrderItem, outer *scope) error {
	outCols := make([]scopeCol, len(res.Columns))
	for i, c := range res.Columns {
		outCols[i] = scopeCol{name: up(c)}
	}
	keyOf := func(row []types.Value, item ast.OrderItem) (types.Value, error) {
		// Positional: ORDER BY 2.
		if lit, ok := item.Expr.(*ast.Literal); ok && lit.Val.K == types.KindInt {
			idx := int(lit.Val.I) - 1
			if idx < 0 || idx >= len(row) {
				return types.Value{}, fmt.Errorf("ORDER BY position %d out of range", lit.Val.I)
			}
			return row[idx], nil
		}
		// Column references match output columns by name, ignoring any
		// table qualifier (the source tables are gone at this point).
		if cr, ok := item.Expr.(*ast.ColumnRef); ok {
			name := up(cr.Column)
			for i, c := range outCols {
				if c.name == name {
					return row[i], nil
				}
			}
			return types.Value{}, fmt.Errorf("ORDER BY column %s must appear in the select list", refName(cr))
		}
		sc := &scope{cols: outCols, vals: row, parent: outer}
		return e.evalExpr(item.Expr, sc)
	}
	var sortErr error
	sort.SliceStable(res.Rows, func(i, j int) bool {
		if sortErr != nil {
			return false
		}
		for _, item := range order {
			a, err := keyOf(res.Rows[i], item)
			if err != nil {
				sortErr = err
				return false
			}
			b, err := keyOf(res.Rows[j], item)
			if err != nil {
				sortErr = err
				return false
			}
			c := compareForSort(a, b)
			if c == 0 {
				continue
			}
			if item.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return sortErr
}

// compareForSort orders values with NULLs first, mixed kinds by kind.
func compareForSort(a, b types.Value) int {
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0
		case a.IsNull():
			return -1
		default:
			return 1
		}
	}
	if c, err := types.Compare(a, b); err == nil {
		return c
	}
	if a.K != b.K {
		return int(a.K) - int(b.K)
	}
	return strings.Compare(a.String(), b.String())
}

// ---------------------------------------------------------------------------
// Core SELECT (one branch, before UNION/ORDER/LIMIT)

func (e *Session) evalSelectCore(s *ast.Select, outer *scope) (*Result, error) {
	rel, err := e.buildFrom(s, outer)
	if err != nil {
		return nil, err
	}
	// Plan-time validation: column references must resolve against the
	// FROM relation (or an enclosing scope) even when no rows exist.
	for _, it := range s.Items {
		if !it.Star {
			if err := e.validateRefs(it.Expr, rel.cols, outer); err != nil {
				return nil, err
			}
		}
	}
	for _, x := range []ast.Expr{s.Where, s.Having} {
		if err := e.validateRefs(x, rel.cols, outer); err != nil {
			return nil, err
		}
	}
	for _, g := range s.GroupBy {
		if err := e.validateRefs(g, rel.cols, outer); err != nil {
			return nil, err
		}
	}
	if s.Where != nil {
		filtered := rel.rows[:0:0]
		for _, row := range rel.rows {
			sc := &scope{cols: rel.cols, vals: row, parent: outer}
			v, err := e.evalExpr(s.Where, sc)
			if err != nil {
				return nil, err
			}
			if types.TruthOf(v) == types.True {
				filtered = append(filtered, row)
			}
		}
		rel.rows = filtered
	}

	grouped := len(s.GroupBy) > 0 || s.Having != nil || selectHasAggregate(s)
	var res *Result
	if grouped {
		res, err = e.projectGrouped(s, rel, outer)
	} else {
		res, err = e.projectRows(s, rel, outer)
	}
	if err != nil {
		return nil, err
	}
	if s.Distinct {
		res.Rows = dedupeRows(res.Rows)
	}
	return res, nil
}

// selectHasAggregate reports whether the select's own items or HAVING
// aggregate over its rows. Subqueries are opaque: an aggregate inside a
// scalar subquery item aggregates the subquery's rows, not this
// select's, so descending into it (as the generic expression walker
// does) would wrongly collapse a row-wise outer query to one grouped
// row.
func selectHasAggregate(s *ast.Select) bool {
	for _, it := range s.Items {
		if hasOwnAggregate(it.Expr) {
			return true
		}
	}
	return hasOwnAggregate(s.Having)
}

// hasOwnAggregate walks one expression without entering subqueries.
func hasOwnAggregate(x ast.Expr) bool {
	switch n := x.(type) {
	case *ast.FuncCall:
		if isAggregateName(n.Name) {
			return true
		}
		for _, a := range n.Args {
			if hasOwnAggregate(a) {
				return true
			}
		}
	case *ast.Binary:
		return hasOwnAggregate(n.L) || hasOwnAggregate(n.R)
	case *ast.Unary:
		return hasOwnAggregate(n.X)
	case *ast.In:
		// n.Select is a subquery scope of its own.
		if hasOwnAggregate(n.X) {
			return true
		}
		for _, a := range n.List {
			if hasOwnAggregate(a) {
				return true
			}
		}
	case *ast.Between:
		return hasOwnAggregate(n.X) || hasOwnAggregate(n.Lo) || hasOwnAggregate(n.Hi)
	case *ast.Like:
		return hasOwnAggregate(n.X) || hasOwnAggregate(n.Pattern)
	case *ast.IsNull:
		return hasOwnAggregate(n.X)
	case *ast.Case:
		if hasOwnAggregate(n.Operand) || hasOwnAggregate(n.Else) {
			return true
		}
		for _, w := range n.Whens {
			if hasOwnAggregate(w.Cond) || hasOwnAggregate(w.Then) {
				return true
			}
		}
	case *ast.Cast:
		return hasOwnAggregate(n.X)
	}
	return false
}

func isAggregateName(name string) bool {
	switch strings.ToUpper(name) {
	case "AVG", "SUM", "COUNT", "MIN", "MAX":
		return true
	default:
		return false
	}
}

// validateRefs checks that every column reference outside nested
// subqueries resolves against the relation columns or an enclosing
// scope. Subqueries are skipped: they establish their own FROM scopes
// and are validated when evaluated.
func (e *Session) validateRefs(x ast.Expr, cols []scopeCol, outer *scope) error {
	var walk func(ast.Expr) error
	walk = func(n ast.Expr) error {
		switch v := n.(type) {
		case nil:
			return nil
		case *ast.ColumnRef:
			probe := &scope{cols: cols, vals: make([]types.Value, len(cols)), parent: outer}
			if _, ok, err := probe.lookup(v.Table, v.Column); err == nil && !ok {
				return fmt.Errorf("unknown column %s", refName(v))
			}
			return nil
		case *ast.Binary:
			if err := walk(v.L); err != nil {
				return err
			}
			return walk(v.R)
		case *ast.Unary:
			return walk(v.X)
		case *ast.FuncCall:
			if b, ok := e.eng.cfg.Funcs[strings.ToUpper(v.Name)]; ok && b.SeqFunc {
				return nil // first argument is a sequence name, not a column
			}
			for _, a := range v.Args {
				if err := walk(a); err != nil {
					return err
				}
			}
			return nil
		case *ast.Between:
			for _, a := range []ast.Expr{v.X, v.Lo, v.Hi} {
				if err := walk(a); err != nil {
					return err
				}
			}
			return nil
		case *ast.Like:
			if err := walk(v.X); err != nil {
				return err
			}
			return walk(v.Pattern)
		case *ast.IsNull:
			return walk(v.X)
		case *ast.Case:
			if err := walk(v.Operand); err != nil {
				return err
			}
			for _, w := range v.Whens {
				if err := walk(w.Cond); err != nil {
					return err
				}
				if err := walk(w.Then); err != nil {
					return err
				}
			}
			return walk(v.Else)
		case *ast.Cast:
			return walk(v.X)
		case *ast.In:
			if err := walk(v.X); err != nil {
				return err
			}
			for _, a := range v.List {
				if err := walk(a); err != nil {
					return err
				}
			}
			return nil // subquery validated on evaluation
		default:
			return nil // Exists/Subquery/Literal
		}
	}
	return walk(x)
}

// buildFrom constructs the source relation of a SELECT.
func (e *Session) buildFrom(s *ast.Select, outer *scope) (*relation, error) {
	if len(s.From) == 0 {
		return &relation{rows: [][]types.Value{{}}}, nil
	}
	var rel *relation
	for _, fi := range s.From {
		r, err := e.buildFromItem(fi, outer)
		if err != nil {
			return nil, err
		}
		if rel == nil {
			rel = r
		} else {
			rel = crossProduct(rel, r)
		}
	}
	return rel, nil
}

func (e *Session) buildFromItem(fi ast.FromItem, outer *scope) (*relation, error) {
	left, err := e.tableRefRelation(fi.Table, outer, false)
	if err != nil {
		return nil, err
	}
	for _, j := range fi.Joins {
		skipDistinct := j.Type == ast.JoinLeft && e.eng.cfg.Quirks.LeftJoinDistinctViewDup
		right, err := e.tableRefRelation(j.Right, outer, skipDistinct)
		if err != nil {
			return nil, err
		}
		left, err = e.joinRelations(left, right, j, outer)
		if err != nil {
			return nil, err
		}
	}
	return left, nil
}

func crossProduct(a, b *relation) *relation {
	out := &relation{cols: append(append([]scopeCol(nil), a.cols...), b.cols...)}
	out.rows = make([][]types.Value, 0, len(a.rows)*len(b.rows))
	for _, ra := range a.rows {
		for _, rb := range b.rows {
			row := make([]types.Value, 0, len(ra)+len(rb))
			row = append(row, ra...)
			row = append(row, rb...)
			out.rows = append(out.rows, row)
		}
	}
	return out
}

func (e *Session) joinRelations(a, b *relation, j ast.Join, outer *scope) (*relation, error) {
	out := &relation{cols: append(append([]scopeCol(nil), a.cols...), b.cols...)}
	if j.Type == ast.JoinCross || j.On == nil {
		return crossProduct(a, b), nil
	}
	matchOn := func(ra, rb []types.Value) (bool, error) {
		row := make([]types.Value, 0, len(ra)+len(rb))
		row = append(row, ra...)
		row = append(row, rb...)
		sc := &scope{cols: out.cols, vals: row, parent: outer}
		v, err := e.evalExpr(j.On, sc)
		if err != nil {
			return false, err
		}
		return types.TruthOf(v) == types.True, nil
	}
	rightMatched := make([]bool, len(b.rows))
	for _, ra := range a.rows {
		matched := false
		for bi, rb := range b.rows {
			ok, err := matchOn(ra, rb)
			if err != nil {
				return nil, err
			}
			if ok {
				matched = true
				rightMatched[bi] = true
				row := make([]types.Value, 0, len(ra)+len(rb))
				row = append(row, ra...)
				row = append(row, rb...)
				out.rows = append(out.rows, row)
			}
		}
		if !matched && (j.Type == ast.JoinLeft || j.Type == ast.JoinFull) {
			row := make([]types.Value, len(out.cols))
			copy(row, ra)
			out.rows = append(out.rows, row)
		}
	}
	if j.Type == ast.JoinRight || j.Type == ast.JoinFull {
		for bi, rb := range b.rows {
			if rightMatched[bi] {
				continue
			}
			row := make([]types.Value, len(out.cols))
			copy(row[len(a.cols):], rb)
			out.rows = append(out.rows, row)
		}
	}
	return out, nil
}

// tableRefRelation resolves a FROM reference: base table, view, or
// derived table. skipViewDistinct implements the LeftJoinDistinctViewDup
// quirk: the DISTINCT of a view definition is dropped when the view is
// expanded on the right of a LEFT OUTER JOIN.
func (e *Session) tableRefRelation(tr ast.TableRef, outer *scope, skipViewDistinct bool) (*relation, error) {
	if tr.Subquery != nil {
		res, err := e.evalSelect(tr.Subquery, outer)
		if err != nil {
			return nil, err
		}
		return resultToRelation(res, up(tr.Alias)), nil
	}
	name := up(tr.Name)
	qual := name
	if tr.Alias != "" {
		qual = up(tr.Alias)
	}
	if t, ok := e.lookupTable(name); ok {
		rel := &relation{cols: make([]scopeCol, len(t.Cols))}
		for i, c := range t.Cols {
			rel.cols[i] = scopeCol{qual: qual, name: c.Name}
		}
		rel.rows = t.rows.appendTo(rel.rows)
		return rel, nil
	}
	if v, ok := e.lookupView(name); ok {
		sel := v.Select
		if skipViewDistinct && sel.Distinct {
			cp := *sel
			cp.Distinct = false
			sel = &cp
		}
		res, err := e.evalSelect(sel, nil)
		if err != nil {
			return nil, fmt.Errorf("expanding view %s: %w", name, err)
		}
		if len(v.Columns) > 0 {
			if len(v.Columns) != len(res.Columns) {
				return nil, fmt.Errorf("view %s column list does not match definition", name)
			}
			res.Columns = append([]string(nil), v.Columns...)
		}
		return resultToRelation(res, qual), nil
	}
	return nil, fmt.Errorf("%w: %s", ErrTableNotFound, name)
}

func resultToRelation(res *Result, qual string) *relation {
	rel := &relation{cols: make([]scopeCol, len(res.Columns)), rows: res.Rows}
	for i, c := range res.Columns {
		rel.cols[i] = scopeCol{qual: qual, name: up(c)}
	}
	return rel
}

// ---------------------------------------------------------------------------
// Projection

func (e *Session) projectRows(s *ast.Select, rel *relation, outer *scope) (*Result, error) {
	cols, exprs, err := e.expandItems(s, rel)
	if err != nil {
		return nil, err
	}
	res := &Result{Kind: ResultRows, Columns: cols}
	for _, row := range rel.rows {
		sc := &scope{cols: rel.cols, vals: row, parent: outer}
		out := make([]types.Value, len(exprs))
		for i, ex := range exprs {
			if ex.star >= 0 {
				out[i] = row[ex.star]
				continue
			}
			v, err := e.evalExpr(ex.expr, sc)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

type projExpr struct {
	expr ast.Expr
	star int // >=0: direct column index from a * expansion
}

// expandItems resolves the SELECT list into output column names and
// projection expressions, expanding * and tbl.*.
func (e *Session) expandItems(s *ast.Select, rel *relation) ([]string, []projExpr, error) {
	var cols []string
	var exprs []projExpr
	for _, it := range s.Items {
		switch {
		case it.Star && it.StarTable == "":
			for i, c := range rel.cols {
				cols = append(cols, c.name)
				exprs = append(exprs, projExpr{star: i})
			}
		case it.Star:
			q := up(it.StarTable)
			found := false
			for i, c := range rel.cols {
				if c.qual == q {
					cols = append(cols, c.name)
					exprs = append(exprs, projExpr{star: i})
					found = true
				}
			}
			if !found {
				return nil, nil, fmt.Errorf("unknown table qualifier %s.*", it.StarTable)
			}
		default:
			name, err := e.outputName(it)
			if err != nil {
				return nil, nil, err
			}
			cols = append(cols, name)
			exprs = append(exprs, projExpr{expr: it.Expr, star: -1})
		}
	}
	return cols, exprs, nil
}

// outputName determines the result column name for a projection item,
// honouring the unaliased-aggregate quirks (bug 222476).
func (e *Session) outputName(it ast.SelectItem) (string, error) {
	if it.Alias != "" {
		return up(it.Alias), nil
	}
	switch x := it.Expr.(type) {
	case *ast.ColumnRef:
		return up(x.Column), nil
	case *ast.FuncCall:
		name := strings.ToUpper(x.Name)
		if name == "AVG" || name == "SUM" {
			if e.eng.cfg.Quirks.UnaliasedAggregateError {
				// Quirk (bug 222476 on MS): unaliased AVG/SUM makes the
				// statement fail with a spurious internal error.
				return "", fmt.Errorf("internal error: unnamed aggregate result column in %s()", name)
			}
			if e.eng.cfg.Quirks.BlankAggregateAliases {
				// Quirk (bug 222476 on IB): the field name comes back
				// empty, although the value itself is correct.
				return "", nil
			}
		}
		return renderExprName(it.Expr), nil
	default:
		return renderExprName(it.Expr), nil
	}
}

func renderExprName(x ast.Expr) string {
	sel := &ast.Select{Items: []ast.SelectItem{{Expr: x}}}
	text := ast.Render(sel)
	return strings.ToUpper(strings.TrimPrefix(text, "SELECT "))
}

// ---------------------------------------------------------------------------
// Grouped projection (GROUP BY / aggregates)

func (e *Session) projectGrouped(s *ast.Select, rel *relation, outer *scope) (*Result, error) {
	type group struct {
		key  string
		rows [][]types.Value
	}
	var groups []*group
	if len(s.GroupBy) > 0 {
		index := make(map[string]*group)
		for _, row := range rel.rows {
			sc := &scope{cols: rel.cols, vals: row, parent: outer}
			var kb strings.Builder
			for _, gexpr := range s.GroupBy {
				v, err := e.evalExpr(gexpr, sc)
				if err != nil {
					return nil, err
				}
				kb.WriteString(v.String())
				kb.WriteByte('\x1f')
				kb.WriteByte(byte('0' + int(v.K)))
				kb.WriteByte('\x1e')
			}
			k := kb.String()
			g, ok := index[k]
			if !ok {
				g = &group{key: k}
				index[k] = g
				groups = append(groups, g)
			}
			g.rows = append(g.rows, row)
		}
	} else {
		// Global aggregate: one group over all rows (possibly empty).
		groups = append(groups, &group{rows: rel.rows})
	}

	cols := make([]string, 0, len(s.Items))
	for _, it := range s.Items {
		if it.Star {
			return nil, errors.New("cannot use * with GROUP BY or aggregates")
		}
		name, err := e.outputName(it)
		if err != nil {
			return nil, err
		}
		cols = append(cols, name)
	}
	res := &Result{Kind: ResultRows, Columns: cols}
	for _, g := range groups {
		if s.Having != nil {
			hv, err := e.evalGroupExpr(s.Having, g.rows, rel.cols, outer)
			if err != nil {
				return nil, err
			}
			if types.TruthOf(hv) != types.True {
				continue
			}
		}
		out := make([]types.Value, len(s.Items))
		for i, it := range s.Items {
			v, err := e.evalGroupExpr(it.Expr, g.rows, rel.cols, outer)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

// evalGroupExpr evaluates an expression in grouped context: aggregate
// calls accumulate over the group's rows; other leaves resolve against
// the group's first row.
func (e *Session) evalGroupExpr(x ast.Expr, groupRows [][]types.Value, cols []scopeCol, outer *scope) (types.Value, error) {
	if fc, ok := x.(*ast.FuncCall); ok && isAggregateName(fc.Name) {
		return e.evalAggregate(fc, groupRows, cols, outer)
	}
	switch n := x.(type) {
	case *ast.Binary:
		l, err := e.evalGroupExpr(n.L, groupRows, cols, outer)
		if err != nil {
			return types.Value{}, err
		}
		r, err := e.evalGroupExpr(n.R, groupRows, cols, outer)
		if err != nil {
			return types.Value{}, err
		}
		return e.evalBinary(&ast.Binary{Op: n.Op, L: &ast.Literal{Val: l}, R: &ast.Literal{Val: r}}, nil)
	case *ast.Unary:
		v, err := e.evalGroupExpr(n.X, groupRows, cols, outer)
		if err != nil {
			return types.Value{}, err
		}
		return e.evalUnary(&ast.Unary{Op: n.Op, X: &ast.Literal{Val: v}}, nil)
	default:
		var row []types.Value
		if len(groupRows) > 0 {
			row = groupRows[0]
		} else {
			row = make([]types.Value, len(cols))
		}
		sc := &scope{cols: cols, vals: row, parent: outer}
		return e.evalExpr(x, sc)
	}
}

func (e *Session) evalAggregate(fc *ast.FuncCall, groupRows [][]types.Value, cols []scopeCol, outer *scope) (types.Value, error) {
	name := strings.ToUpper(fc.Name)
	if fc.Star {
		if name != "COUNT" {
			return types.Value{}, fmt.Errorf("%s(*) is not valid", name)
		}
		return types.NewInt(int64(len(groupRows))), nil
	}
	if len(fc.Args) != 1 {
		return types.Value{}, fmt.Errorf("%s takes exactly one argument", name)
	}
	var vals []types.Value
	seen := make(map[string]bool)
	for _, row := range groupRows {
		sc := &scope{cols: cols, vals: row, parent: outer}
		v, err := e.evalExpr(fc.Args[0], sc)
		if err != nil {
			return types.Value{}, err
		}
		if v.IsNull() {
			continue
		}
		if fc.Distinct {
			k := v.String() + "\x1f" + v.K.String()
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		vals = append(vals, v)
	}
	switch name {
	case "COUNT":
		return types.NewInt(int64(len(vals))), nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return types.Null(), nil
		}
		allInt := true
		sum := 0.0
		var isum int64
		for _, v := range vals {
			nv, err := numericOperand(v)
			if err != nil {
				return types.Value{}, err
			}
			if nv.K != types.KindInt {
				allInt = false
			}
			sum += nv.AsFloat()
			isum += nv.AsInt()
		}
		if name == "SUM" {
			if allInt {
				return types.NewInt(isum), nil
			}
			return types.NewFloat(sum), nil
		}
		return types.NewFloat(sum / float64(len(vals))), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return types.Null(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c, err := types.Compare(v, best)
			if err != nil {
				return types.Value{}, err
			}
			if (name == "MIN" && c < 0) || (name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	default:
		return types.Value{}, fmt.Errorf("unknown aggregate %s", name)
	}
}
