package relstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/securefs"
	"repro/internal/wal"
)

// selectAll is the whole-result select: one chunk no result can fill.
func selectAll(db *DB, table string, pred Predicate) ([]Row, error) {
	return db.SelectChunk(table, pred, "", NoLimit)
}

func testSchema() Schema {
	return Schema{
		Name: "records",
		Columns: []Column{
			{Name: "key", Type: TypeText},
			{Name: "data", Type: TypeText},
			{Name: "usr", Type: TypeText},
			{Name: "ttl", Type: TypeTime},
			{Name: "pur", Type: TypeTextList},
			{Name: "score", Type: TypeInt},
		},
		PrimaryKey: "key",
	}
}

func row(key, data, usr string, ttl time.Time, pur []string, score int64) Row {
	return Row{key, data, usr, ttl, pur, score}
}

func openDB(t *testing.T, cfg Config) *DB {
	t.Helper()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(testSchema()); err != nil {
		t.Fatal(err)
	}
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestSchemaValidate(t *testing.T) {
	good := testSchema()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*Schema){
		"empty name":       func(s *Schema) { s.Name = "" },
		"no columns":       func(s *Schema) { s.Columns = nil },
		"unnamed column":   func(s *Schema) { s.Columns[0].Name = "" },
		"duplicate column": func(s *Schema) { s.Columns[1].Name = "key" },
		"missing pk":       func(s *Schema) { s.PrimaryKey = "nope" },
		"non-text pk":      func(s *Schema) { s.PrimaryKey = "score" },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			s := testSchema()
			mutate(&s)
			if err := s.Validate(); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestInsertGetUpdateDelete(t *testing.T) {
	db := openDB(t, Config{})
	exp := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	r := row("k1", "data1", "neo", exp, []string{"ads"}, 7)
	if err := db.Insert("records", r); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("records", r); err == nil {
		t.Fatal("duplicate insert should fail")
	}
	got, ok, err := db.Get("records", "k1")
	if err != nil || !ok {
		t.Fatalf("Get = %v %v", ok, err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("got %v want %v", got, r)
	}
	// Returned row is a copy.
	got[1] = "mutated"
	again, _, _ := db.Get("records", "k1")
	if again[1] != "data1" {
		t.Fatal("Get returned aliased row")
	}
	r2 := row("k1", "data2", "neo", exp, []string{"ads", "2fa"}, 8)
	if err := db.Update("records", "k1", r2); err != nil {
		t.Fatal(err)
	}
	got, _, _ = db.Get("records", "k1")
	if got[1] != "data2" {
		t.Fatalf("update lost: %v", got[1])
	}
	if err := db.Update("records", "missing", r2); err == nil {
		t.Fatal("update of missing row should fail")
	}
	// Update must not change the PK.
	bad := r2.Clone()
	bad[0] = "other"
	if err := db.Update("records", "k1", bad); err == nil {
		t.Fatal("pk-changing update should fail")
	}
	existed, err := db.Delete("records", "k1")
	if err != nil || !existed {
		t.Fatalf("Delete = %v %v", existed, err)
	}
	if existed, _ := db.Delete("records", "k1"); existed {
		t.Fatal("double delete reported true")
	}
	if n, _ := db.Count("records"); n != 0 {
		t.Fatalf("count = %d", n)
	}
}

func TestRowTypeChecking(t *testing.T) {
	db := openDB(t, Config{})
	bad := []Row{
		{"k", "d", "u", time.Time{}, []string{"p"}},                // wrong arity
		{"k", 42, "u", time.Time{}, []string{"p"}, int64(1)},       // int for text
		{"k", "d", "u", "not-time", []string{"p"}, int64(1)},       // string for time
		{"k", "d", "u", time.Time{}, "not-list", int64(1)},         // string for list
		{"k", "d", "u", time.Time{}, []string{"p"}, 3.14},          // float for int
		{"k\x00x", "d", "u", time.Time{}, []string{"p"}, int64(1)}, // NUL in text
		{"k", "d", "u", time.Time{}, []string{"p\x00q"}, int64(1)}, // NUL in list
		{"", "d", "u", time.Time{}, []string{"p"}, int64(1)},       // empty pk
	}
	for i, r := range bad {
		if err := db.Insert("records", r); err == nil {
			t.Fatalf("row %d should be rejected", i)
		}
	}
	// nil list value is allowed.
	if err := db.Insert("records", Row{"k", "d", "u", time.Time{}, nil, int64(1)}); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownTableErrors(t *testing.T) {
	db := openDB(t, Config{})
	if err := db.Insert("nope", Row{}); err == nil {
		t.Fatal("insert into unknown table")
	}
	if _, _, err := db.Get("nope", "k"); err == nil {
		t.Fatal("get from unknown table")
	}
	if _, err := selectAll(db, "nope", All()); err == nil {
		t.Fatal("select from unknown table")
	}
	if err := db.CreateIndex("nope", "usr"); err == nil {
		t.Fatal("index on unknown table")
	}
	if err := db.CreateTable(testSchema()); err == nil {
		t.Fatal("duplicate table create")
	}
}

func TestSelectPredicates(t *testing.T) {
	db := openDB(t, Config{})
	now := time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)
	rows := []Row{
		row("k1", "d1", "neo", now.Add(time.Hour), []string{"ads", "2fa"}, 1),
		row("k2", "d2", "neo", now.Add(-time.Hour), []string{"ads"}, 2),
		row("k3", "d3", "smith", time.Time{}, []string{"2fa"}, 3),
	}
	for _, r := range rows {
		if err := db.Insert("records", r); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		pred Predicate
		want []string
	}{
		{"all", All(), []string{"k1", "k2", "k3"}},
		{"eq usr", Eq("usr", "neo"), []string{"k1", "k2"}},
		{"eq miss", Eq("usr", "oracle"), nil},
		{"contains", Contains("pur", "2fa"), []string{"k1", "k3"}},
		{"le time", Le("ttl", now), []string{"k2"}},
		{"le excludes zero time", Le("ttl", now.Add(100*365*24*time.Hour)), []string{"k1", "k2"}},
	}
	for _, withIndex := range []bool{false, true} {
		if withIndex {
			for _, col := range []string{"usr", "pur", "ttl"} {
				if err := db.CreateIndex("records", col); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s-index=%v", c.name, withIndex), func(t *testing.T) {
				keys, err := db.SelectKeys("records", c.pred)
				if err != nil {
					t.Fatal(err)
				}
				if len(keys) != len(c.want) {
					t.Fatalf("keys = %v, want %v", keys, c.want)
				}
				for i := range c.want {
					if keys[i] != c.want[i] {
						t.Fatalf("keys = %v, want %v", keys, c.want)
					}
				}
			})
		}
	}
}

func TestSelectTypeErrors(t *testing.T) {
	db := openDB(t, Config{})
	db.Insert("records", row("k1", "d", "u", time.Time{}, nil, 0))
	bad := []Predicate{
		Eq("ttl", "x"),
		Contains("usr", "x"),
		Le("usr", time.Now()),
		Eq("missing", "x"),
		{Op: PredOp(99), Col: "usr"},
	}
	for i, p := range bad {
		if _, err := selectAll(db, "records", p); err == nil {
			t.Fatalf("predicate %d should fail", i)
		}
	}
}

func TestExplainChoosesIndex(t *testing.T) {
	db := openDB(t, Config{})
	plan, err := db.Explain("records", Eq("usr", "neo"))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Access != "seqscan" {
		t.Fatalf("plan without index = %+v", plan)
	}
	if err := db.CreateIndex("records", "usr"); err != nil {
		t.Fatal(err)
	}
	plan, _ = db.Explain("records", Eq("usr", "neo"))
	if plan.Access != "index" || plan.Index != "usr" {
		t.Fatalf("plan with index = %+v", plan)
	}
	// All() never uses an index.
	plan, _ = db.Explain("records", All())
	if plan.Access != "seqscan" {
		t.Fatalf("All plan = %+v", plan)
	}
}

func TestIndexMaintenanceOnUpdateAndDelete(t *testing.T) {
	db := openDB(t, Config{})
	for _, col := range []string{"usr", "pur"} {
		if err := db.CreateIndex("records", col); err != nil {
			t.Fatal(err)
		}
	}
	db.Insert("records", row("k1", "d", "neo", time.Time{}, []string{"ads"}, 0))
	// Move the row to another user; index must follow.
	if err := db.Update("records", "k1", row("k1", "d", "trinity", time.Time{}, []string{"2fa"}, 0)); err != nil {
		t.Fatal(err)
	}
	if keys, _ := db.SelectKeys("records", Eq("usr", "neo")); len(keys) != 0 {
		t.Fatalf("stale index entry: %v", keys)
	}
	if keys, _ := db.SelectKeys("records", Eq("usr", "trinity")); len(keys) != 1 {
		t.Fatalf("missing index entry: %v", keys)
	}
	if keys, _ := db.SelectKeys("records", Contains("pur", "ads")); len(keys) != 0 {
		t.Fatalf("stale list index entry: %v", keys)
	}
	db.Delete("records", "k1")
	if keys, _ := db.SelectKeys("records", Eq("usr", "trinity")); len(keys) != 0 {
		t.Fatalf("index entry after delete: %v", keys)
	}
	heap, idx, err := db.Sizes("records")
	if err != nil || heap != 0 || idx != 0 {
		t.Fatalf("sizes after emptying = %d %d %v", heap, idx, err)
	}
}

func TestCreateIndexBackfillsAndDrops(t *testing.T) {
	db := openDB(t, Config{})
	for i := 0; i < 10; i++ {
		db.Insert("records", row(fmt.Sprintf("k%d", i), "d", fmt.Sprintf("u%d", i%2), time.Time{}, nil, 0))
	}
	if err := db.CreateIndex("records", "usr"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("records", "usr"); err == nil {
		t.Fatal("duplicate index create should fail")
	}
	keys, _ := db.SelectKeys("records", Eq("usr", "u0"))
	if len(keys) != 5 {
		t.Fatalf("backfilled index found %d", len(keys))
	}
	_, idxBytes, _ := db.Sizes("records")
	if idxBytes <= 0 {
		t.Fatal("index bytes not accounted")
	}
	if err := db.DropIndex("records", "usr"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropIndex("records", "usr"); err == nil {
		t.Fatal("double drop should fail")
	}
	if err := db.CreateIndex("records", "missing"); err == nil {
		t.Fatal("index on missing column should fail")
	}
	_, idxBytes, _ = db.Sizes("records")
	if idxBytes != 0 {
		t.Fatalf("index bytes after drop = %d", idxBytes)
	}
}

func TestUpdateFuncAndWhere(t *testing.T) {
	db := openDB(t, Config{})
	for i := 0; i < 6; i++ {
		db.Insert("records", row(fmt.Sprintf("k%d", i), "d", "neo", time.Time{}, nil, int64(i)))
	}
	ok, err := db.UpdateFunc("records", "k0", func(r Row) (Row, error) {
		r[5] = int64(100)
		return r, nil
	})
	if err != nil || !ok {
		t.Fatalf("UpdateFunc = %v %v", ok, err)
	}
	got, _, _ := db.Get("records", "k0")
	if got[5].(int64) != 100 {
		t.Fatalf("score = %v", got[5])
	}
	ok, err = db.UpdateFunc("records", "missing", func(r Row) (Row, error) { return r, nil })
	if err != nil || ok {
		t.Fatalf("UpdateFunc missing = %v %v", ok, err)
	}
	n, err := db.UpdateWhere("records", Eq("usr", "neo"), func(r Row) (Row, error) {
		r[2] = "switched"
		return r, nil
	})
	if err != nil || n != 6 {
		t.Fatalf("UpdateWhere = %d %v", n, err)
	}
	if keys, _ := db.SelectKeys("records", Eq("usr", "switched")); len(keys) != 6 {
		t.Fatalf("after UpdateWhere: %v", keys)
	}
	fnErr := fmt.Errorf("boom")
	if _, err := db.UpdateWhere("records", All(), func(Row) (Row, error) { return nil, fnErr }); err == nil {
		t.Fatal("fn error should propagate")
	}
}

func TestDeleteWhere(t *testing.T) {
	db := openDB(t, Config{})
	now := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		ttl := now.Add(time.Hour)
		if i < 4 {
			ttl = now.Add(-time.Hour)
		}
		db.Insert("records", row(fmt.Sprintf("k%d", i), "d", "neo", ttl, nil, 0))
	}
	n, err := db.DeleteWhere("records", Le("ttl", now))
	if err != nil || n != 4 {
		t.Fatalf("DeleteWhere = %d %v", n, err)
	}
	if cnt, _ := db.Count("records"); cnt != 6 {
		t.Fatalf("count = %d", cnt)
	}
}

func TestWALRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rel.wal")
	cfg := Config{WALPath: path, WALSync: wal.SyncOnCommit}
	db := openDB(t, cfg)
	exp := time.Date(2031, 5, 1, 0, 0, 0, 0, time.UTC)
	db.Insert("records", row("k1", "d1", "neo", exp, []string{"ads"}, 1))
	db.Insert("records", row("k2", "d2", "smith", time.Time{}, nil, 2))
	db.Update("records", "k1", row("k1", "d1b", "neo", exp, []string{"ads", "2fa"}, 1))
	db.Delete("records", "k2")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDB(t, cfg)
	got, ok, err := db2.Get("records", "k1")
	if err != nil || !ok {
		t.Fatalf("recovered Get = %v %v", ok, err)
	}
	if got[1] != "d1b" {
		t.Fatalf("recovered data = %v", got[1])
	}
	if got[3].(time.Time).IsZero() || !got[3].(time.Time).Equal(exp) {
		t.Fatalf("recovered ttl = %v", got[3])
	}
	if l, _ := got[4].([]string); len(l) != 2 {
		t.Fatalf("recovered list = %v", got[4])
	}
	if _, ok, _ := db2.Get("records", "k2"); ok {
		t.Fatal("deleted row recovered")
	}
	if n, _ := db2.Count("records"); n != 1 {
		t.Fatalf("recovered count = %d", n)
	}
}

func TestWALRecoveryEncrypted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rel.wal")
	key := securefs.Key("rel")
	cfg := Config{WALPath: path, EncryptionKey: key, WALSync: wal.SyncOnCommit}
	db := openDB(t, cfg)
	db.Insert("records", row("k1", "secret", "neo", time.Time{}, nil, 0))
	db.Close()

	// Wrong key must fail recovery loudly... actually the frame layer
	// treats auth failure as a torn tail; the DB then sees an empty log.
	// Right key restores the row.
	db2 := openDB(t, cfg)
	if _, ok, _ := db2.Get("records", "k1"); !ok {
		t.Fatal("encrypted recovery lost the row")
	}
}

func TestRecoverTwiceFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rel.wal")
	db, err := Open(Config{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable(testSchema()); err != nil {
		t.Fatal(err)
	}
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := db.Recover(); err == nil {
		t.Fatal("second Recover should fail")
	}
}

func TestStatementLogging(t *testing.T) {
	log, err := audit.Open(audit.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	db := openDB(t, Config{Audit: log, LogStatements: true})
	db.Insert("records", row("k1", "d", "neo", time.Time{}, nil, 0))
	db.Get("records", "k1")
	selectAll(db, "records", Eq("usr", "neo"))
	db.Delete("records", "k1")
	if got := log.Total(); got != 4 {
		t.Fatalf("audit entries = %d, want 4", got)
	}
	tail, err := log.Tail(10)
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]bool{}
	for _, e := range tail {
		ops[e.Op] = true
		if !strings.HasPrefix(e.Target, "records:") {
			t.Fatalf("target = %q", e.Target)
		}
	}
	for _, want := range []string{"INSERT", "SELECT", "DELETE"} {
		if !ops[want] {
			t.Fatalf("missing op %s in %v", want, ops)
		}
	}
}

// TestStatementLogPerWrite pins the csvlog entry of every write method
// when it changes rows, changes nothing and fails: each statement that
// resolved its table logs exactly one entry, after its commit wait, with
// the rows it changed and OK = (err == nil). Insert and Update cannot
// succeed without changing a row, so they have no no-op case.
func TestStatementLogPerWrite(t *testing.T) {
	errFn := errors.New("fn refused the row")
	touch := func(r Row) (Row, error) { r[1] = "touched"; return r, nil }
	refuse := func(Row) (Row, error) { return nil, errFn }
	newRow := func(k string) Row { return row(k, "d", "neo", time.Time{}, nil, 0) }
	neo, nobody, bad := Eq("usr", "neo"), Eq("usr", "nobody"), Eq("nocol", "x")
	cases := []struct {
		name   string
		run    func(db *DB) error
		target string
		rows   int
		ok     bool
	}{
		{"Insert/changed", func(db *DB) error { return db.Insert("records", newRow("k9")) }, "k9", 1, true},
		{"Insert/failed", func(db *DB) error { return db.Insert("records", newRow("k1")) }, "", 0, false},
		{"InsertBatch/changed", func(db *DB) error {
			return db.InsertBatch("records", []Row{newRow("k8"), newRow("k9")})
		}, "batch=2", 2, true},
		{"InsertBatch/nothing", func(db *DB) error { return db.InsertBatch("records", nil) }, "batch=0", 0, true},
		{"InsertBatch/failed", func(db *DB) error {
			return db.InsertBatch("records", []Row{newRow("k9"), newRow("k1")})
		}, "batch=2", 1, false},
		{"Update/changed", func(db *DB) error { return db.Update("records", "k1", newRow("k1")) }, "pk=k1", 1, true},
		{"Update/failed", func(db *DB) error { return db.Update("records", "nope", newRow("nope")) }, "pk=nope", 0, false},
		{"UpdateFunc/changed", func(db *DB) error { _, err := db.UpdateFunc("records", "k1", touch); return err }, "pk=k1", 1, true},
		{"UpdateFunc/nothing", func(db *DB) error { _, err := db.UpdateFunc("records", "nope", touch); return err }, "pk=nope", 0, true},
		{"UpdateFunc/failed", func(db *DB) error { _, err := db.UpdateFunc("records", "k1", refuse); return err }, "pk=k1", 0, false},
		{"Delete/changed", func(db *DB) error { _, err := db.Delete("records", "k1"); return err }, "pk=k1", 1, true},
		{"Delete/nothing", func(db *DB) error { _, err := db.Delete("records", "nope"); return err }, "pk=nope", 0, true},
		{"Delete/failed", func(db *DB) error {
			// A WAL that refuses the record: the row is already gone from
			// the live table, so the entry counts it.
			db.wal.Close()
			_, err := db.Delete("records", "k1")
			return err
		}, "pk=k1", 1, false},
		{"DeleteWhere/changed", func(db *DB) error { _, err := db.DeleteWhere("records", neo); return err }, neo.String(), 2, true},
		{"DeleteWhere/nothing", func(db *DB) error { _, err := db.DeleteWhere("records", nobody); return err }, nobody.String(), 0, true},
		{"DeleteWhere/failed", func(db *DB) error { _, err := db.DeleteWhere("records", bad); return err }, bad.String(), 0, false},
		{"UpdateWhere/changed", func(db *DB) error { _, err := db.UpdateWhere("records", neo, touch); return err }, neo.String(), 2, true},
		{"UpdateWhere/nothing", func(db *DB) error { _, err := db.UpdateWhere("records", nobody, touch); return err }, nobody.String(), 0, true},
		{"UpdateWhere/failed", func(db *DB) error { _, err := db.UpdateWhere("records", neo, refuse); return err }, neo.String(), 0, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			log, err := audit.Open(audit.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer log.Close()
			db := openDB(t, Config{Audit: log, LogStatements: true, WALPath: filepath.Join(t.TempDir(), "pg.wal")})
			if err := db.InsertBatch("records", []Row{newRow("k1"), newRow("k2"), row("k3", "d", "trinity", time.Time{}, nil, 0)}); err != nil {
				t.Fatal(err)
			}
			before := log.Total()
			if err := c.run(db); (err == nil) != c.ok {
				t.Fatalf("err = %v, want ok=%v", err, c.ok)
			}
			if n := log.Total() - before; n != 1 {
				t.Fatalf("statement logged %d entries, want 1", n)
			}
			tail, err := log.Tail(1)
			if err != nil {
				t.Fatal(err)
			}
			e := tail[0]
			// Insert…, Update… and Delete… all log their first six letters.
			want := audit.Entry{Actor: "relstore", Op: strings.ToUpper(c.name[:6]), Target: "records:" + c.target, OK: c.ok, Note: fmt.Sprintf("rows=%d", c.rows)}
			if e.Actor != want.Actor || e.Op != want.Op || e.Target != want.Target || e.OK != want.OK || e.Note != want.Note {
				t.Fatalf("entry = %s %q ok=%v %q, want %s %q ok=%v %q",
					e.Op, e.Target, e.OK, e.Note, want.Op, want.Target, want.OK, want.Note)
			}
		})
	}
}

func TestTTLDaemonWithSimClock(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	db := openDB(t, Config{Clock: sim})
	now := sim.Now()
	for i := 0; i < 10; i++ {
		ttl := now.Add(time.Hour)
		if i < 3 {
			ttl = now.Add(time.Second)
		}
		db.Insert("records", row(fmt.Sprintf("k%d", i), "d", "u", ttl, nil, 0))
	}
	sim.Advance(time.Minute)
	n, err := db.SweepExpired("records", "ttl")
	if err != nil || n != 3 {
		t.Fatalf("sweep = %d %v", n, err)
	}
	if cnt, _ := db.Count("records"); cnt != 7 {
		t.Fatalf("count = %d", cnt)
	}
}

func TestTTLDaemonBackground(t *testing.T) {
	db := openDB(t, Config{})
	now := time.Now()
	for i := 0; i < 20; i++ {
		db.Insert("records", row(fmt.Sprintf("k%d", i), "d", "u", now.Add(30*time.Millisecond), nil, 0))
	}
	if err := db.StartTTLDaemon("records", "ttl", 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := db.StartTTLDaemon("records", "ttl", time.Second); err == nil {
		t.Fatal("second daemon should fail")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, _ := db.Count("records")
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon left %d rows", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
	db.StopTTLDaemon()
	db.StopTTLDaemon() // idempotent
}

func TestTTLDaemonValidatesColumn(t *testing.T) {
	db := openDB(t, Config{})
	if err := db.StartTTLDaemon("records", "usr", time.Second); err == nil {
		t.Fatal("non-time TTL column should fail")
	}
	if err := db.StartTTLDaemon("missing", "ttl", time.Second); err == nil {
		t.Fatal("missing table should fail")
	}
}

func TestClosedDBRejectsOps(t *testing.T) {
	db := openDB(t, Config{})
	db.Close()
	if err := db.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := db.Insert("records", row("k", "d", "u", time.Time{}, nil, 0)); err == nil {
		t.Fatal("insert after close")
	}
	if _, err := db.DeleteWhere("records", All()); err == nil {
		t.Fatal("delete after close")
	}
	if err := db.CreateTable(Schema{Name: "x", Columns: []Column{{Name: "k", Type: TypeText}}, PrimaryKey: "k"}); err == nil {
		t.Fatal("create table after close")
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	s := testSchema()
	exp := time.Date(2030, 3, 4, 5, 6, 7, 0, time.UTC)
	rows := []Row{
		row("k1", "data", "neo", exp, []string{"a", "b"}, 42),
		row("k2", "", "", time.Time{}, nil, -1),
		row("k3", strings.Repeat("x", 1000), "u", exp, []string{}, 0),
	}
	for _, r := range rows {
		enc := encodeRow(s, r)
		got, err := decodeRow(s, enc)
		if err != nil {
			t.Fatal(err)
		}
		// nil and empty lists both decode to nil.
		want := r.Clone()
		if l, ok := want[4].([]string); ok && len(l) == 0 {
			want[4] = []string(nil)
		}
		if want[4] == nil {
			want[4] = []string(nil)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("roundtrip:\n got %#v\nwant %#v", got, want)
		}
	}
}

func TestEncodedRowSizeMatchesEncoder(t *testing.T) {
	s := testSchema()
	exp := time.Date(2030, 3, 4, 5, 6, 7, 0, time.UTC)
	rows := []Row{
		row("k1", "data", "neo", exp, []string{"a", "b"}, 42),
		row("k2", "", "", time.Time{}, nil, -1),
		row("k3", strings.Repeat("x", 1000), "u", exp, []string{strings.Repeat("y", 200)}, 0),
	}
	for i, r := range rows {
		if got, want := encodedRowSize(s, r), int64(len(encodeRow(s, r))); got != want {
			t.Fatalf("row %d: encodedRowSize = %d, encoder produced %d", i, got, want)
		}
	}
}

func TestRowCodecErrors(t *testing.T) {
	s := testSchema()
	good := encodeRow(s, row("k", "d", "u", time.Time{}, nil, 0))
	bad := [][]byte{
		{},
		good[:3],
		append(append([]byte{}, good...), 0xff),
	}
	for i, p := range bad {
		if _, err := decodeRow(s, p); err == nil {
			t.Fatalf("case %d should fail", i)
		}
	}
	// Wrong schema arity.
	s2 := Schema{Name: "t", Columns: []Column{{Name: "k", Type: TypeText}}, PrimaryKey: "k"}
	if _, err := decodeRow(s2, good); err == nil {
		t.Fatal("cross-schema decode should fail")
	}
}

func TestFeatures(t *testing.T) {
	db := openDB(t, Config{})
	db.CreateIndex("records", "usr")
	f := db.Features()
	if f["wal"] != "off" || !strings.Contains(f["indexes"], "records.usr") {
		t.Fatalf("features = %v", f)
	}
	if got := db.Tables(); len(got) != 1 || got[0] != "records" {
		t.Fatalf("tables = %v", got)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	db := openDB(t, Config{})
	db.CreateIndex("records", "usr")
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("w%d-k%d", w, i)
				if err := db.Insert("records", row(k, "d", fmt.Sprintf("u%d", w), time.Time{}, nil, 0)); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := db.Get("records", k); err != nil {
					t.Error(err)
					return
				}
				if i%10 == 0 {
					if _, err := selectAll(db, "records", Eq("usr", fmt.Sprintf("u%d", w))); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if n, _ := db.Count("records"); n != workers*200 {
		t.Fatalf("count = %d", n)
	}
}

func TestPgbenchRunsAndIndexesSlowItDown(t *testing.T) {
	run := func(cols []string) PgbenchResult {
		db, err := Open(Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		res, err := RunPgbench(db, PgbenchConfig{Accounts: 2000, Transactions: 4000, IndexColumns: cols, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r0 := run(nil)
	r2 := run([]string{"purpose", "usr"})
	if r0.TPS <= 0 || r2.TPS <= 0 {
		t.Fatalf("tps = %v, %v", r0.TPS, r2.TPS)
	}
	if r2.Indices != 2 || r0.Indices != 0 {
		t.Fatalf("indices = %d, %d", r0.Indices, r2.Indices)
	}
	if r2.TPS >= r0.TPS {
		t.Fatalf("indexes did not slow updates: %0.f -> %0.f tps", r0.TPS, r2.TPS)
	}
}

func TestPgbenchValidation(t *testing.T) {
	db, _ := Open(Config{})
	defer db.Close()
	if _, err := RunPgbench(db, PgbenchConfig{}); err == nil {
		t.Fatal("zero config should fail")
	}
	if _, err := RunPgbench(db, PgbenchConfig{Accounts: 10, Transactions: 10, IndexColumns: []string{"nope"}}); err == nil {
		t.Fatal("bad index column should fail")
	}
}

func TestPredicateStrings(t *testing.T) {
	if All().String() != "true" {
		t.Fatal("All string")
	}
	if !strings.Contains(Eq("usr", "neo").String(), "usr") {
		t.Fatal("Eq string")
	}
	if !strings.Contains(Contains("pur", "ads").String(), "@>") {
		t.Fatal("Contains string")
	}
	if !strings.Contains(Le("ttl", time.Unix(5, 0)).String(), "<=") {
		t.Fatal("Le string")
	}
	if ColType(9).String() == "" || TypeText.String() != "text" {
		t.Fatal("ColType string")
	}
}

func BenchmarkInsertNoIndexes(b *testing.B) {
	db, _ := Open(Config{})
	defer db.Close()
	db.CreateTable(testSchema())
	db.Recover()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.Insert("records", row(fmt.Sprintf("k%d", i), "data-payload", "neo", time.Time{}, []string{"ads"}, 0))
	}
}

func BenchmarkInsertThreeIndexes(b *testing.B) {
	db, _ := Open(Config{})
	defer db.Close()
	db.CreateTable(testSchema())
	db.Recover()
	for _, c := range []string{"usr", "pur", "ttl"} {
		db.CreateIndex("records", c)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.Insert("records", row(fmt.Sprintf("k%d", i), "data-payload", "neo", time.Time{}, []string{"ads"}, 0))
	}
}

func BenchmarkSelectByUserIndexed(b *testing.B) {
	db, _ := Open(Config{})
	defer db.Close()
	db.CreateTable(testSchema())
	db.Recover()
	db.CreateIndex("records", "usr")
	for i := 0; i < 100_000; i++ {
		db.Insert("records", row(fmt.Sprintf("k%d", i), "d", fmt.Sprintf("u%d", i%1000), time.Time{}, nil, 0))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := selectAll(db, "records", Eq("usr", fmt.Sprintf("u%d", i%1000))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectByUserSeqScan(b *testing.B) {
	db, _ := Open(Config{})
	defer db.Close()
	db.CreateTable(testSchema())
	db.Recover()
	for i := 0; i < 10_000; i++ {
		db.Insert("records", row(fmt.Sprintf("k%d", i), "d", fmt.Sprintf("u%d", i%1000), time.Time{}, nil, 0))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := selectAll(db, "records", Eq("usr", fmt.Sprintf("u%d", i%1000))); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWALRecoveryAfterTornTail(t *testing.T) {
	// Crash injection: truncate the WAL mid-record and verify the engine
	// recovers the intact prefix (like PostgreSQL crash recovery).
	dir := t.TempDir()
	path := filepath.Join(dir, "torn.wal")
	cfg := Config{WALPath: path, WALSync: wal.SyncOnCommit}
	db := openDB(t, cfg)
	for i := 0; i < 20; i++ {
		if err := db.Insert("records", row(fmt.Sprintf("k%02d", i), "d", "u", time.Time{}, nil, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o600); err != nil {
		t.Fatal(err)
	}
	db2 := openDB(t, cfg)
	n, err := db2.Count("records")
	if err != nil {
		t.Fatal(err)
	}
	// The torn record (k19) is lost; everything before it survives.
	if n != 19 {
		t.Fatalf("recovered rows = %d, want 19", n)
	}
	if _, ok, _ := db2.Get("records", "k18"); !ok {
		t.Fatal("intact row lost")
	}
	if _, ok, _ := db2.Get("records", "k19"); ok {
		t.Fatal("torn row resurrected")
	}
	// The engine keeps working after recovery.
	if err := db2.Insert("records", row("k19", "again", "u", time.Time{}, nil, 0)); err != nil {
		t.Fatalf("insert after torn recovery: %v", err)
	}
}
