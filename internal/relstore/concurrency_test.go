package relstore

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wal"
)

// TestConcurrentMixedStress hammers one table with mixed readers and
// writers. Run under -race this validates the table-lock + snapshot
// discipline: writers serialize on the table lock while readers run
// lock-free against published snapshots.
func TestConcurrentMixedStress(t *testing.T) {
	db := openDB(t, Config{})
	if err := db.CreateIndex("records", "usr"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("records", "pur"); err != nil {
		t.Fatal(err)
	}

	const writers, readers, per = 4, 4, 300
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				k := fmt.Sprintf("w%d-k%d", w, i)
				usr := fmt.Sprintf("u%d", w)
				if err := db.Insert("records", row(k, "d", usr, time.Time{}, []string{"ads"}, 0)); err != nil {
					t.Error(err)
					return
				}
				switch r.Intn(3) {
				case 0:
					if err := db.Update("records", k, row(k, "d2", usr, time.Time{}, []string{"2fa"}, 1)); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := db.UpdateFunc("records", k, func(r Row) (Row, error) {
						r[5] = r[5].(int64) + 1
						return r, nil
					}); err != nil {
						t.Error(err)
						return
					}
				}
				if i%7 == 0 && i > 0 {
					if _, err := db.Delete("records", fmt.Sprintf("w%d-k%d", w, i-1)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch r.Intn(5) {
				case 0:
					if _, _, err := db.Get("records", fmt.Sprintf("w%d-k%d", r.Intn(writers), r.Intn(per))); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := selectAll(db, "records", Eq("usr", fmt.Sprintf("u%d", r.Intn(writers)))); err != nil {
						t.Error(err)
						return
					}
				case 2:
					if _, err := selectAll(db, "records", Contains("pur", "ads")); err != nil {
						t.Error(err)
						return
					}
				case 3:
					if _, err := db.ScanPK("records", "", 50); err != nil {
						t.Error(err)
						return
					}
				default:
					if _, err := db.Count("records"); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}

	// Wait for writers, then stop readers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	// Writers finish first (readers loop until stop); poll row count to
	// know when, with a hard deadline.
	deadline := time.After(60 * time.Second)
	testDone := make(chan struct{})
	defer close(testDone)
	writersDone := make(chan struct{})
	go func() {
		for {
			select {
			case <-testDone:
				return
			default:
			}
			n, _ := db.Count("records")
			// Each writer nets per - (per-1)/7 rows (one delete every 7
			// inserts, starting at i=7).
			want := writers * (per - (per-1)/7)
			if n >= want {
				close(writersDone)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	select {
	case <-writersDone:
	case <-deadline:
	}
	close(stop)
	<-done

	// Verify final state: deterministic per-writer row sets.
	want := 0
	for w := 0; w < writers; w++ {
		for i := 0; i < per; i++ {
			deleted := i%7 == 6 && i+1 < per // k(i) deleted by iteration i+1 when (i+1)%7==0
			_, ok, err := db.Get("records", fmt.Sprintf("w%d-k%d", w, i))
			if err != nil {
				t.Fatal(err)
			}
			if ok == deleted {
				t.Fatalf("w%d-k%d: present=%v, want deleted=%v", w, i, ok, deleted)
			}
			if ok {
				want++
			}
		}
	}
	if n, _ := db.Count("records"); n != want {
		t.Fatalf("count = %d, want %d", n, want)
	}
}

// TestSnapshotReadsSeeAtomicRows verifies the copy-on-write snapshot
// property: a reader never observes a half-applied write. A writer
// atomically flips a row between two self-consistent states ({x,x} and
// {y,y}); readers running flat-out must never see a mixed row, and a
// Select by indexed column must never return a row whose value
// contradicts the index that found it.
func TestSnapshotReadsSeeAtomicRows(t *testing.T) {
	db := openDB(t, Config{})
	if err := db.CreateIndex("records", "usr"); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("records", row("k", "x", "x", time.Time{}, nil, 0)); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				got, ok, err := db.Get("records", "k")
				if err != nil || !ok {
					t.Errorf("Get = %v %v", ok, err)
					return
				}
				if got[1].(string) != got[2].(string) {
					t.Errorf("torn row visible: data=%v usr=%v", got[1], got[2])
					return
				}
				for _, state := range []string{"x", "y"} {
					rows, err := selectAll(db, "records", Eq("usr", state))
					if err != nil {
						t.Error(err)
						return
					}
					for _, r := range rows {
						if r[2].(string) != state {
							t.Errorf("index/value mismatch: found via usr=%s, row has %v", state, r[2])
							return
						}
					}
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		s := "x"
		if i%2 == 0 {
			s = "y"
		}
		if err := db.Update("records", "k", row("k", s, s, time.Time{}, nil, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestTablesLockIndependently verifies per-table locking: a writer
// holding one table's write path does not block operations on another
// table. Two goroutines each pound their own table; with the old global
// mutex this still passes but under -race it pins the two-lock scheme.
func TestTablesLockIndependently(t *testing.T) {
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, name := range []string{"ta", "tb"} {
		s := testSchema()
		s.Name = name
		if err := db.CreateTable(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, name := range []string{"ta", "tb"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", i)
				if err := db.Insert(name, row(k, "d", "u", time.Time{}, nil, 0)); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := db.Get(name, k); err != nil {
					t.Error(err)
					return
				}
			}
		}(name)
	}
	wg.Wait()
	for _, name := range []string{"ta", "tb"} {
		if n, _ := db.Count(name); n != 500 {
			t.Fatalf("%s count = %d", name, n)
		}
	}
}

// TestInsertBatch covers the bulk-load path: one call inserts many rows,
// errors surface mid-batch with the applied prefix kept, and the batch
// recovers from the WAL like per-row inserts do.
func TestInsertBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.wal")
	cfg := Config{WALPath: path, WALSync: wal.SyncOnCommit}
	db := openDB(t, cfg)
	var rows []Row
	for i := 0; i < 50; i++ {
		rows = append(rows, row(fmt.Sprintf("k%02d", i), "d", "u", time.Time{}, nil, int64(i)))
	}
	if err := db.InsertBatch("records", rows); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.Count("records"); n != 50 {
		t.Fatalf("count = %d", n)
	}
	// Duplicate mid-batch: prefix applies, error reported.
	bad := []Row{
		row("new-1", "d", "u", time.Time{}, nil, 0),
		row("k00", "d", "u", time.Time{}, nil, 0), // duplicate
		row("new-2", "d", "u", time.Time{}, nil, 0),
	}
	if err := db.InsertBatch("records", bad); err == nil {
		t.Fatal("duplicate in batch should fail")
	}
	if _, ok, _ := db.Get("records", "new-1"); !ok {
		t.Fatal("batch prefix lost")
	}
	if _, ok, _ := db.Get("records", "new-2"); ok {
		t.Fatal("batch suffix applied after error")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything the batch reported durable survives recovery.
	db2 := openDB(t, cfg)
	if n, _ := db2.Count("records"); n != 51 {
		t.Fatalf("recovered count = %d", n)
	}
}

// TestConcurrentWritersWithWAL exercises the group-commit write path
// under -race: concurrent writers on one table, each waiting for
// durability, must all recover.
func TestConcurrentWritersWithWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gc.wal")
	cfg := Config{WALPath: path, WALSync: wal.SyncOnCommit}
	db := openDB(t, cfg)
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := fmt.Sprintf("w%d-k%d", w, i)
				if err := db.Insert("records", row(k, "d", "u", time.Time{}, nil, 0)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openDB(t, cfg)
	if n, _ := db2.Count("records"); n != workers*per {
		t.Fatalf("recovered %d rows, want %d", n, workers*per)
	}
}
