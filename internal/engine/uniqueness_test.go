package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"divsql/internal/sql/types"
)

// liveTable returns the engine-resident table by name.
func liveTable(t *testing.T, e *Engine, name string) *Table {
	t.Helper()
	tbl, ok := e.st.tables[name]
	if !ok {
		t.Fatalf("no table %s", name)
	}
	return tbl
}

// hasEqIndex reports whether the table's cache holds an equality index
// over exactly the given column set.
func hasEqIndex(tbl *Table, cols ...int) bool {
	tbl.ic.mu.Lock()
	defer tbl.ic.mu.Unlock()
	_, ok := tbl.ic.hash[colsetKey(cols)]
	return ok
}

func wantConstraint(t *testing.T, s *Session, sql string) {
	t.Helper()
	if err := sexecErr(t, s, sql); !errors.Is(err, ErrConstraint) {
		t.Fatalf("%s: want ErrConstraint, got %v", sql, err)
	}
}

func TestKeyStableUpdateLargeTable(t *testing.T) {
	e := NewOracle()
	s := e.NewSession()
	const n = 10000
	loadKV(t, s, n)
	res := sexec(t, s, "UPDATE KV SET V = V + 1")
	if res.Affected != n {
		t.Fatalf("whole-table update touched %d rows, want %d", res.Affected, n)
	}
	for k := 0; k < n; k += 997 {
		sexec(t, s, fmt.Sprintf("UPDATE KV SET V = %d WHERE K = %d", -k, k))
	}
	wantConstraint(t, s, "INSERT INTO KV VALUES (42, 0)")

	rows := sexec(t, s, "SELECT K, V FROM KV").Rows
	if len(rows) != n {
		t.Fatalf("table holds %d rows, want %d", len(rows), n)
	}
	seen := make(map[int64]bool, n)
	for _, r := range rows {
		k, v := r[0].I, r[1].I
		if seen[k] {
			t.Fatalf("duplicate key %d after key-stable updates", k)
		}
		seen[k] = true
		want := k + 1
		if k%997 == 0 {
			want = -k
		}
		if v != want {
			t.Fatalf("K=%d: V=%d, want %d", k, v, want)
		}
	}
}

func TestKeyChangingUpdateIsAtomic(t *testing.T) {
	e := NewOracle()
	s := e.NewSession()
	sexec(t, s, "CREATE TABLE T (K INT PRIMARY KEY, V INT)")
	sexec(t, s, "INSERT INTO T VALUES (1, 10), (2, 20), (3, 30)")
	before := rowStrings(sexec(t, s, "SELECT K, V FROM T"))

	wantConstraint(t, s, "UPDATE T SET K = K + 1")
	if got := rowStrings(sexec(t, s, "SELECT K, V FROM T")); !reflect.DeepEqual(got, before) {
		t.Fatalf("failed update left partial effects: %v, want %v", got, before)
	}

	// A swap inside one statement collides on its first row: the check
	// runs per row against the partially updated table, not deferred to
	// statement end.
	wantConstraint(t, s, "UPDATE T SET K = CASE WHEN K = 1 THEN 2 WHEN K = 2 THEN 1 ELSE K END")
	if got := rowStrings(sexec(t, s, "SELECT K, V FROM T")); !reflect.DeepEqual(got, before) {
		t.Fatalf("failed swap left partial effects: %v, want %v", got, before)
	}

	// Shifting keys downward in table order never collides mid-statement.
	sexec(t, s, "UPDATE T SET K = K - 1")
	if got := rowStrings(sexec(t, s, "SELECT K, V FROM T")); !reflect.DeepEqual(got, []string{"0|10", "1|20", "2|30"}) {
		t.Fatalf("key shift: %v", got)
	}
}

// A keyset outside the SET list is checked through its equality index;
// a keyset the statement sets is checked by scanning.
func TestUpdateProbesOnlyKeysetsItDoesNotSet(t *testing.T) {
	e := NewOracle()
	s := e.NewSession()
	sexec(t, s, "CREATE TABLE T (ID INT PRIMARY KEY, A INT, B INT, V INT)")
	sexec(t, s, "CREATE UNIQUE INDEX UA ON T (A)")
	sexec(t, s, "CREATE UNIQUE INDEX UB ON T (B)")
	sexec(t, s, "INSERT INTO T VALUES (1, 10, 100, 0), (2, 20, 200, 0), (3, 30, 300, 0)")
	tbl := liveTable(t, e, "T")

	// A range predicate: DML candidate narrowing builds no index, so any
	// index present afterwards was built by the uniqueness check.
	tbl.ic = newIndexCache()
	sexec(t, s, "UPDATE T SET B = B + 1, V = 1 WHERE ID > 1")
	if !hasEqIndex(tbl, 0) || !hasEqIndex(tbl, 1) {
		t.Error("keysets outside the SET list were not probed")
	}
	if hasEqIndex(tbl, 2) {
		t.Error("keyset in the SET list was probed instead of scanned")
	}

	wantConstraint(t, s, "UPDATE T SET B = 201 WHERE ID = 3")
	wantConstraint(t, s, "UPDATE T SET A = 10 WHERE ID = 2")
	sexec(t, s, "UPDATE T SET A = 40 WHERE ID = 3")
	wantConstraint(t, s, "INSERT INTO T VALUES (4, 40, 400, 0)")
	sexec(t, s, "INSERT INTO T VALUES (4, 30, 400, 0)")
	got := rowStrings(sexec(t, s, "SELECT ID, A, B, V FROM T"))
	want := []string{"1|10|100|0", "2|20|201|1", "3|40|301|1", "4|30|400|0"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows %v, want %v", got, want)
	}
}

// The probe reports any matching position other than the updated row,
// exactly like the scan — also on a table that already carries a
// duplicate (planted here below the SQL layer, which never admits one).
func TestProbeVerdictOnTableWithDuplicates(t *testing.T) {
	e := NewOracle()
	s := e.NewSession()
	sexec(t, s, "CREATE TABLE T (K INT PRIMARY KEY, V INT)")
	sexec(t, s, "INSERT INTO T VALUES (1, 10), (2, 20)")
	tbl := liveTable(t, e, "T")
	tbl.rows.push(append([]types.Value(nil), tbl.rows.at(0)...))
	tbl.touch()

	wantConstraint(t, s, "UPDATE T SET V = 11 WHERE K = 1")        // probe
	wantConstraint(t, s, "UPDATE T SET K = K, V = 11 WHERE K = 1") // scan
	sexec(t, s, "UPDATE T SET V = 21 WHERE K = 2")
	got := rowStrings(sexec(t, s, "SELECT K, V FROM T"))
	if want := []string{"1|10", "2|21", "1|10"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rows %v, want %v", got, want)
	}
}

// A key change bumps the key column's version, so a later key-stable
// UPDATE in the same transaction rebuilds the index instead of probing
// positions that now hold other keys; rollback bumps it again.
func TestKeyStableUpdateAfterKeyChangeInTxn(t *testing.T) {
	e := NewOracle()
	s := e.NewSession()
	sexec(t, s, "CREATE TABLE T (K INT PRIMARY KEY, V INT)")
	// Enough rows that the first ones sit in a published index segment
	// rather than the linearly scanned append tail (indexTailMax).
	var vals []string
	for k := 1; k <= 2*indexTailMax; k++ {
		vals = append(vals, fmt.Sprintf("(%d, %d)", k, 10*k))
	}
	sexec(t, s, "INSERT INTO T VALUES "+strings.Join(vals, ", "))
	sexec(t, s, "UPDATE T SET V = 11 WHERE K = 1")
	query := "SELECT K, V FROM T WHERE K < 4"

	sexec(t, s, "BEGIN")
	sexec(t, s, "UPDATE T SET K = 0 WHERE K = 1")
	sexec(t, s, "UPDATE T SET K = 1 WHERE K = 2")
	// A stale index would map K=1 to the first row (now K=0) and report
	// a false duplicate here.
	if res := sexec(t, s, "UPDATE T SET V = 99 WHERE K = 1"); res.Affected != 1 {
		t.Fatalf("key-stable update after key change touched %d rows", res.Affected)
	}
	wantConstraint(t, s, "INSERT INTO T VALUES (0, 0)")
	got := rowStrings(sexec(t, s, query))
	if want := []string{"0|11", "1|99", "3|30"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("in-transaction rows %v, want %v", got, want)
	}
	sexec(t, s, "ROLLBACK")

	if res := sexec(t, s, "UPDATE T SET V = 22 WHERE K = 2"); res.Affected != 1 {
		t.Fatalf("key-stable update after rollback touched %d rows", res.Affected)
	}
	wantConstraint(t, s, "INSERT INTO T VALUES (1, 0)")
	sexec(t, s, "INSERT INTO T VALUES (0, 0)")
	got = rowStrings(sexec(t, s, query))
	if want := []string{"1|11", "2|22", "3|30", "0|0"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rows after rollback %v, want %v", got, want)
	}
}

// A key column holding an ill-typed value (raw-default quirk) poisons
// its index: every check on that keyset falls back to the scan and
// reports the same errors.
func TestPoisonedKeyIndexFallsBackToScan(t *testing.T) {
	e := New(Config{Quirks: Quirks{SkipDefaultTypeCheck: true}})
	s := e.NewSession()
	sexec(t, s, "CREATE TABLE P (ID INT DEFAULT 'ABC' PRIMARY KEY, V INT)")
	sexec(t, s, "INSERT INTO P (V) VALUES (0)") // ID = 'ABC' stored verbatim
	sexec(t, s, "INSERT INTO P VALUES (1, 1), (2, 2)")
	tbl := liveTable(t, e, "P")
	if _, ok := tbl.ic.eqLookup(tbl, []int{0}, []int64{2}); ok {
		t.Fatal("index over a column holding 'ABC' is not poisoned")
	}
	wantConstraint(t, s, "INSERT INTO P (V) VALUES (9)")
	wantConstraint(t, s, "INSERT INTO P VALUES (2, 9)")
	if res := sexec(t, s, "UPDATE P SET V = V + 10"); res.Affected != 3 {
		t.Fatalf("key-stable update touched %d rows, want 3", res.Affected)
	}
	wantConstraint(t, s, "UPDATE P SET ID = 2 WHERE V = 11")

	// A planted duplicate of key 2: the key-stable update of it must
	// fail through the scan.
	tbl.rows.push(append([]types.Value(nil), tbl.rows.at(2)...))
	tbl.touch()
	wantConstraint(t, s, "UPDATE P SET V = 5 WHERE ID = 2")
	got := rowStrings(sexec(t, s, "SELECT ID, V FROM P"))
	if want := []string{"ABC|10", "1|11", "2|12", "2|12"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rows %v, want %v", got, want)
	}
}

// A seeded random mix of INSERT/UPDATE/DELETE, with transactions rolled
// back or committed, must agree with a map model of both keysets.
func TestRandomDMLAgreesWithKeyModel(t *testing.T) {
	e := NewOracle()
	s := e.NewSession()
	sexec(t, s, "CREATE TABLE T (K INT PRIMARY KEY, U INT, V INT)")
	sexec(t, s, "CREATE UNIQUE INDEX UU ON T (U)")

	type row struct{ u, v int64 } // u < 0 encodes NULL
	model := map[int64]row{}
	uOwner := func(m map[int64]row, u int64) (int64, bool) {
		for k, r := range m {
			if r.u == u {
				return k, true
			}
		}
		return 0, false
	}
	uSQL := func(u int64) string {
		if u < 0 {
			return "NULL"
		}
		return fmt.Sprint(u)
	}
	var saved map[int64]row
	rng := rand.New(rand.NewSource(12))
	for step := 0; step < 3000; step++ {
		k := int64(rng.Intn(40))
		u := int64(rng.Intn(60)) - 5
		if u < 0 {
			u = -1
		}
		v := int64(rng.Intn(1000))
		var sql string
		fail := false
		// The model after the statement succeeds; statements never
		// mutate model itself, so saved may alias it.
		next := make(map[int64]row, len(model))
		for k, r := range model {
			next[k] = r
		}
		switch op := rng.Intn(10); {
		case op < 3:
			sql = fmt.Sprintf("INSERT INTO T VALUES (%d, %s, %d)", k, uSQL(u), v)
			_, dupK := model[k]
			_, dupU := uOwner(model, u)
			fail = dupK || (u >= 0 && dupU)
			next[k] = row{u, v}
		case op < 5:
			sql = fmt.Sprintf("UPDATE T SET V = %d WHERE K = %d", v, k)
			if r, ok := next[k]; ok {
				next[k] = row{r.u, v}
			}
		case op == 5:
			sql = fmt.Sprintf("UPDATE T SET V = V + 1 WHERE V < %d", v)
			for kk, r := range next {
				if r.v < v {
					next[kk] = row{r.u, r.v + 1}
				}
			}
		case op == 6:
			k2 := int64(rng.Intn(40))
			sql = fmt.Sprintf("UPDATE T SET K = %d WHERE K = %d", k2, k)
			if r, ok := next[k]; ok {
				_, taken := next[k2]
				fail = taken && k2 != k
				delete(next, k)
				next[k2] = r
			}
		case op == 7:
			sql = fmt.Sprintf("UPDATE T SET U = %s WHERE K = %d", uSQL(u), k)
			if r, ok := next[k]; ok {
				owner, taken := uOwner(next, u)
				fail = u >= 0 && taken && owner != k
				next[k] = row{u, r.v}
			}
		case op == 8:
			sql = fmt.Sprintf("DELETE FROM T WHERE K = %d", k)
			delete(next, k)
		default:
			switch {
			case saved == nil:
				sql, saved = "BEGIN", model
			case rng.Intn(2) == 0:
				sql, saved, next = "ROLLBACK", nil, saved
			default:
				sql, saved = "COMMIT", nil
			}
		}
		err := sexecErr(t, s, sql)
		switch {
		case fail && !errors.Is(err, ErrConstraint):
			t.Fatalf("step %d %s: want ErrConstraint, got %v", step, sql, err)
		case !fail && err != nil:
			t.Fatalf("step %d %s: %v", step, sql, err)
		case !fail:
			model = next
		}

		var want []string
		for k, r := range model {
			want = append(want, fmt.Sprintf("%d|%s|%d", k, uSQL(r.u), r.v))
		}
		got := rowStrings(sexec(t, s, "SELECT K, U, V FROM T"))
		sort.Strings(want)
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d %s: table %v, model %v", step, sql, got, want)
		}
	}
}
