package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// This file holds the seeded model test of the paged row store's
// sharing rules: thousands of interleaved writes, transactions, read
// views, snapshots and restores over tables of several pages, each
// image checked against a model of the committed state taken at the
// moment the image was made — and re-checked long after, once the live
// tables have moved on.

var modelTables = []string{"MA", "MB", "MC"}

// modelImage renders a key -> value map as sorted "K|V" strings.
func modelImage(m map[int64]int64) []string {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = fmt.Sprintf("%d|%d", k, m[k])
	}
	return out
}

// tableImage renders a table's row store the same way.
func tableImage(t *Table) []string {
	m := make(map[int64]int64, t.rows.len())
	for _, p := range t.rows.pages() {
		for _, r := range p.rows {
			m[r[0].I] = r[1].I
		}
	}
	if len(m) != t.rows.len() {
		panic("duplicate key in a captured image")
	}
	return modelImage(m)
}

// modelWriter is one writing session. Writer w owns the keys of parity
// w, so the two writers never touch each other's rows and the committed
// model stays exact under any interleaving of their transactions.
type modelWriter struct {
	s       *Session
	parity  int64
	next    int64
	inTxn   bool
	pending map[string]map[int64]*int64 // nil value: deleted in the txn
}

type savedImage struct {
	table string
	want  []string
}

type savedCapture struct {
	tbl  *Table
	want []string
}

type savedSnapshot struct {
	st   *State
	want map[string][]string
}

type pagedModel struct {
	t         *testing.T
	rng       *rand.Rand
	e         *Engine
	committed map[string]map[int64]int64
	w         [2]*modelWriter
	rc, rr    *Session
	rrImages  []savedImage // the open REPEATABLE READ transaction's images
	captures  []savedCapture
	snaps     []savedSnapshot
}

func (m *pagedModel) exec(s *Session, sql string) *Result {
	m.t.Helper()
	return sexec(m.t, s, sql)
}

// view returns writer w's image of a table: committed plus its own
// pending changes.
func (m *pagedModel) view(w *modelWriter, table string) map[int64]int64 {
	out := make(map[int64]int64, len(m.committed[table]))
	for k, v := range m.committed[table] {
		out[k] = v
	}
	for k, v := range w.pending[table] {
		if v == nil {
			delete(out, k)
		} else {
			out[k] = *v
		}
	}
	return out
}

// record applies a write to the model: to the committed state in
// autocommit mode, to the writer's pending overlay inside a transaction.
func (m *pagedModel) record(w *modelWriter, table string, k int64, v *int64) {
	if !w.inTxn {
		if v == nil {
			delete(m.committed[table], k)
		} else {
			m.committed[table][k] = *v
		}
		return
	}
	if w.pending[table] == nil {
		w.pending[table] = make(map[int64]*int64)
	}
	w.pending[table][k] = v
}

// ownKeys returns up to n random keys of writer w's parity visible to it.
func (m *pagedModel) ownKeys(w *modelWriter, table string, n int) []int64 {
	var keys []int64
	for k := range m.view(w, table) {
		if k%2 == w.parity {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	m.rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	if len(keys) > n {
		keys = keys[:n]
	}
	return keys
}

func keyPredicate(keys []int64) string {
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("K = %d", k)
	}
	return strings.Join(parts, " OR ")
}

func (m *pagedModel) write(w *modelWriter) {
	table := modelTables[m.rng.Intn(len(modelTables))]
	switch op := m.rng.Intn(10); {
	case op < 3: // INSERT one or two rows
		n := 1 + m.rng.Intn(2)
		vals := make([]string, n)
		for i := range vals {
			k, v := w.next, m.rng.Int63n(1000)
			w.next += 2
			vals[i] = fmt.Sprintf("(%d, %d)", k, v)
			m.record(w, table, k, &v)
		}
		m.exec(w.s, "INSERT INTO "+table+" VALUES "+strings.Join(vals, ", "))
	case op < 7: // UPDATE by key list
		keys := m.ownKeys(w, table, 1+m.rng.Intn(3))
		if len(keys) == 0 {
			return
		}
		cur := m.view(w, table)
		res := m.exec(w.s, "UPDATE "+table+" SET V = V + 1 WHERE "+keyPredicate(keys))
		if res.Affected != int64(len(keys)) {
			m.t.Fatalf("UPDATE touched %d rows, want %d", res.Affected, len(keys))
		}
		for _, k := range keys {
			v := cur[k] + 1
			m.record(w, table, k, &v)
		}
	default: // DELETE by key list
		keys := m.ownKeys(w, table, 1+m.rng.Intn(2))
		if len(keys) == 0 {
			return
		}
		res := m.exec(w.s, "DELETE FROM "+table+" WHERE "+keyPredicate(keys))
		if res.Affected != int64(len(keys)) {
			m.t.Fatalf("DELETE removed %d rows, want %d", res.Affected, len(keys))
		}
		for _, k := range keys {
			m.record(w, table, k, nil)
		}
	}
}

func (m *pagedModel) begin(w *modelWriter) {
	m.exec(w.s, "BEGIN")
	w.inTxn, w.pending = true, map[string]map[int64]*int64{}
}

func (m *pagedModel) end(w *modelWriter, commit bool) {
	if commit {
		m.exec(w.s, "COMMIT")
		for table, ch := range w.pending {
			for k, v := range ch {
				if v == nil {
					delete(m.committed[table], k)
				} else {
					m.committed[table][k] = *v
				}
			}
		}
	} else {
		m.exec(w.s, "ROLLBACK")
	}
	w.inTxn, w.pending = false, nil
}

// checkSelect compares a session's full read of a table with want.
func (m *pagedModel) checkSelect(s *Session, table string, want []string, what string) {
	m.t.Helper()
	got := rowStrings(m.exec(s, "SELECT K, V FROM "+table+" ORDER BY K"))
	if !reflect.DeepEqual(got, want) {
		m.t.Fatalf("%s of %s: %d rows differ from the model's %d (first got %v, want %v)",
			what, table, len(got), len(want), head(got), head(want))
	}
}

func head(rows []string) []string {
	if len(rows) > 3 {
		return rows[:3]
	}
	return rows
}

// readCommitted reads a table at READ COMMITTED and keeps the read
// view's capture of it for later re-checks.
func (m *pagedModel) readCommitted() {
	table := modelTables[m.rng.Intn(len(modelTables))]
	want := modelImage(m.committed[table])
	m.checkSelect(m.rc, table, want, "READ COMMITTED read")
	if v := m.e.curView.Load(); v != nil {
		if vt := v.tables[table]; vt != nil {
			vt.mu.Lock()
			mat := vt.mat
			vt.mu.Unlock()
			if mat != nil {
				m.captures = append(m.captures, savedCapture{tbl: mat, want: want})
				if len(m.captures) > 8 {
					m.captures = m.captures[1:]
				}
			}
		}
	}
}

// repeatableRead opens a REPEATABLE READ transaction that reads every
// table at once (pinning their images), re-reads a pinned image, or
// ends the transaction.
func (m *pagedModel) repeatableRead() {
	if m.rrImages == nil {
		m.exec(m.rr, "BEGIN")
		for _, table := range modelTables {
			want := modelImage(m.committed[table])
			m.checkSelect(m.rr, table, want, "REPEATABLE READ first read")
			m.rrImages = append(m.rrImages, savedImage{table: table, want: want})
		}
		return
	}
	if m.rng.Intn(6) == 0 {
		m.exec(m.rr, "COMMIT")
		m.rrImages = nil
		return
	}
	img := m.rrImages[m.rng.Intn(len(m.rrImages))]
	m.checkSelect(m.rr, img.table, img.want, "REPEATABLE READ re-read")
}

func (m *pagedModel) snapshot() {
	want := make(map[string][]string, len(modelTables))
	for _, table := range modelTables {
		want[table] = modelImage(m.committed[table])
	}
	m.snaps = append(m.snaps, savedSnapshot{st: m.e.Snapshot(), want: want})
	if len(m.snaps) > 3 {
		m.snaps = m.snaps[1:]
	}
}

// restoreTwice restores one saved snapshot into two engines at once
// and checks both against the snapshot's model image.
func (m *pagedModel) restoreTwice() {
	if len(m.snaps) == 0 {
		return
	}
	sn := m.snaps[m.rng.Intn(len(m.snaps))]
	engines := [2]*Engine{NewOracle(), NewOracle()}
	var wg sync.WaitGroup
	for _, re := range engines {
		wg.Add(1)
		go func(re *Engine) {
			defer wg.Done()
			re.Restore(sn.st)
		}(re)
	}
	wg.Wait()
	for i, re := range engines {
		s := re.NewSession()
		for _, table := range modelTables {
			m.checkSelect(s, table, sn.want[table], fmt.Sprintf("restored engine %d", i))
		}
		// A write to the restored copy must not reach the snapshot.
		m.exec(s, "UPDATE "+modelTables[0]+" SET V = V + 1000")
		m.exec(s, "DELETE FROM "+modelTables[1]+" WHERE K < 50")
	}
}

// dropRollback drops a table inside a transaction, reads and snapshots
// it while the drop is uncommitted, and rolls the transaction back.
func (m *pagedModel) dropRollback(w, other *modelWriter) {
	if other.inTxn {
		return
	}
	if !w.inTxn {
		m.begin(w)
	}
	table := modelTables[m.rng.Intn(len(modelTables))]
	m.exec(w.s, "DROP TABLE "+table)
	m.readCommitted()
	m.snapshot()
	m.end(w, false)
	m.checkSelect(w.s, table, modelImage(m.committed[table]), "table after DROP rollback")
}

// verifySaved re-checks every kept capture and the pinned images.
func (m *pagedModel) verifySaved() {
	for i, c := range m.captures {
		if got := tableImage(c.tbl); !reflect.DeepEqual(got, c.want) {
			m.t.Fatalf("capture %d of %s changed: %d rows, want %d", i, c.tbl.Name, len(got), len(c.want))
		}
	}
	for _, img := range m.rrImages {
		m.checkSelect(m.rr, img.table, img.want, "pinned REPEATABLE READ view")
	}
}

func TestPagedStoreModel(t *testing.T) {
	const (
		initRows = 4*rowPageSize + 17
		steps    = 3200
	)
	e := NewOracle()
	m := &pagedModel{
		t:         t,
		rng:       rand.New(rand.NewSource(20041)),
		e:         e,
		committed: map[string]map[int64]int64{},
		rc:        e.NewSession(),
		rr:        e.NewSession(),
	}
	sexec(t, m.rr, "SET TRANSACTION ISOLATION LEVEL REPEATABLE READ")
	for i := range m.w {
		m.w[i] = &modelWriter{s: e.NewSession(), parity: int64(i), next: initRows + int64(i)}
		if m.w[i].next%2 != m.w[i].parity {
			m.w[i].next++
		}
	}
	for _, table := range modelTables {
		m.exec(m.rc, "CREATE TABLE "+table+" (K INT PRIMARY KEY, V INT)")
		m.committed[table] = map[int64]int64{}
		for lo := 0; lo < initRows; lo += 100 {
			var vals []string
			for k := lo; k < lo+100 && k < initRows; k++ {
				vals = append(vals, fmt.Sprintf("(%d, %d)", k, k))
				m.committed[table][int64(k)] = int64(k)
			}
			m.exec(m.rc, "INSERT INTO "+table+" VALUES "+strings.Join(vals, ", "))
		}
	}
	for step := 0; step < steps; step++ {
		wi := m.rng.Intn(2)
		w, other := m.w[wi], m.w[1-wi]
		switch r := m.rng.Intn(100); {
		case r < 45:
			m.write(w)
		case r < 52:
			if !w.inTxn {
				m.begin(w)
			}
		case r < 58:
			if w.inTxn {
				m.end(w, m.rng.Intn(3) != 0)
			}
		case r < 68:
			m.readCommitted()
		case r < 78:
			m.repeatableRead()
		case r < 83:
			m.snapshot()
		case r < 87:
			m.restoreTwice()
		case r < 89:
			m.dropRollback(w, other)
		case r < 94:
			table := modelTables[m.rng.Intn(len(modelTables))]
			m.checkSelect(w.s, table, modelImage(m.view(w, table)), "writer's own view")
		default:
			m.verifySaved()
		}
	}
	m.verifySaved()
	for _, sn := range m.snaps {
		m.snaps = []savedSnapshot{sn}
		m.restoreTwice()
	}
	for _, table := range modelTables {
		if n := len(m.committed[table]); n <= 3*rowPageSize {
			t.Fatalf("table %s shrank to %d rows: the model no longer spans more than 3 pages", table, n)
		}
	}
}
