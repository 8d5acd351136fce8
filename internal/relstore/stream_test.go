package relstore

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/audit"
)

// TestSelectChunkUsesIndex pins that a chunk walk over an indexed
// predicate reads through the secondary index, at every batch size. The
// test drops the index entries of every odd-numbered row behind the
// planner's back: a walk through the index cannot see those rows, while
// a primary-key range scan would return all twenty.
func TestSelectChunkUsesIndex(t *testing.T) {
	db := openDB(t, Config{})
	base := time.Unix(1_500_000_000, 0)
	ttl := func(i int) time.Time { return base.Add(time.Duration(i) * time.Second) }
	for i := 0; i < 20; i++ {
		if err := db.Insert("records", row(fmt.Sprintf("k%02d", i), "d", "neo", ttl(i), []string{"ads"}, 0)); err != nil {
			t.Fatal(err)
		}
	}
	for _, col := range []string{"usr", "pur", "ttl"} {
		if err := db.CreateIndex("records", col); err != nil {
			t.Fatal(err)
		}
	}
	tbl := db.tables["records"]
	tbl.mu.Lock()
	var want []string
	for i := 0; i < 20; i++ {
		pk := fmt.Sprintf("k%02d", i)
		if i%2 == 0 {
			want = append(want, pk)
			continue
		}
		tbl.live.indexes["usr"].Delete(compositeKey("neo", pk))
		tbl.live.indexes["pur"].Delete(compositeKey("ads", pk))
		tbl.live.indexes["ttl"].Delete(compositeKey(encodeIndexScalar(TypeTime, ttl(i)), pk))
	}
	tbl.markDirty()
	tbl.mu.Unlock()

	for _, pred := range []Predicate{Eq("usr", "neo"), Contains("pur", "ads"), Le("ttl", ttl(30))} {
		for _, limit := range []int{1, 3, NoLimit} {
			var got []string
			after := ""
			for {
				rows, err := db.SelectChunk("records", pred, after, limit)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range rows {
					got = append(got, r[0].(string))
				}
				if len(rows) < limit {
					break
				}
				after = rows[len(rows)-1][0].(string)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s limit %d visited %v, want only the indexed rows %v", pred, limit, got, want)
			}
		}
	}
}

// TestSelectChunkStatementText: a whole-result select is logged as the
// bare predicate (the statement text of a materialised SELECT), a
// bounded chunk with its cursor and limit.
func TestSelectChunkStatementText(t *testing.T) {
	log, err := audit.Open(audit.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	db := openDB(t, Config{Audit: log, LogStatements: true})
	if err := db.Insert("records", row("k1", "d", "neo", time.Time{}, nil, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SelectChunk("records", Eq("usr", "neo"), "", NoLimit); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SelectChunk("records", Eq("usr", "neo"), "k0", 3); err != nil {
		t.Fatal(err)
	}
	tail, err := log.Tail(2)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{`records:usr = "neo"`, `records:usr = "neo" pk>"k0" limit 3`}
	for i, e := range tail {
		if e.Target != want[i] || e.Note != "rows=1" {
			t.Fatalf("entry %d = %q %q, want %q rows=1", i, e.Target, e.Note, want[i])
		}
	}
}
