package core

import (
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/gdpr"
)

// Streaming equivalence at the middleware layer: for every engine
// profile, draining ReadDataStream / ReadMetadataStream must reproduce
// the materialized ReadData / ReadMetadata result exactly — same
// records, same order, same redaction — at any chunk size, including
// chunk sizes that force boundaries inside every multi-record result.

// streamProfile opens one engine profile for the equivalence matrix.
type streamProfile struct {
	name string
	open func(t *testing.T, sim *clock.Sim) DB
}

func streamProfiles() []streamProfile {
	comp := Compliance{Logging: true, AccessControl: true, Strict: true}
	idx := comp
	idx.MetadataIndexing = true
	openRedis := func(c Compliance, stripes int) func(t *testing.T, sim *clock.Sim) DB {
		return func(t *testing.T, sim *clock.Sim) DB {
			t.Helper()
			db, err := Open(Options{
				Engine: "redis", Dir: t.TempDir(), Compliance: c, Clock: sim, DisableDaemons: true,
				KVStripes: stripes,
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			return db
		}
	}
	openPG := func(c Compliance) func(t *testing.T, sim *clock.Sim) DB {
		return func(t *testing.T, sim *clock.Sim) DB {
			t.Helper()
			db, err := Open(Options{
				Engine: "postgres", Dir: t.TempDir(), Compliance: c, Clock: sim, DisableDaemons: true,
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			return db
		}
	}
	return []streamProfile{
		{"redis-scan", openRedis(comp, 0)},
		{"redis-indexed", openRedis(idx, 0)},
		{"redis-striped-indexed", openRedis(idx, 4)},
		{"postgres", openPG(comp)},
		{"postgres-indexed", openPG(idx)},
	}
}

// streamSelectors covers every §3.3 selector family the read path
// serves: point key, each metadata attribute, negation, and a selector
// matching nothing.
func streamSelectors(ds *Dataset) []gdpr.Selector {
	return []gdpr.Selector{
		gdpr.ByKey(ds.KeyAt(3)),
		gdpr.ByUser(ds.UserName(1)),
		gdpr.ByPurpose(ds.PurposeName(2)),
		gdpr.ByShare(ds.ShareName(1)),
		gdpr.ByDecision(ds.DecisionName(1)),
		gdpr.ByObjection(ds.PurposeName(0)),
		gdpr.ByNotObjecting(ds.PurposeName(0)),
		gdpr.ByUser("no-such-user"),
	}
}

// assertSameRecords requires got to equal want exactly, in order.
func assertSameRecords(t *testing.T, ctx string, want, got []gdpr.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records streamed, %d materialized", ctx, len(got), len(want))
	}
	for i := range want {
		if gdpr.Encode(got[i]) != gdpr.Encode(want[i]) {
			t.Fatalf("%s: record %d diverged:\n  materialized: %+v\n  streamed:     %+v",
				ctx, i, want[i], got[i])
		}
	}
}

func TestStreamDrainMatchesMaterializedSelect(t *testing.T) {
	cfg := Config{Records: 300, Operations: 10, Threads: 2, Seed: 11}.WithDefaults()
	for _, p := range streamProfiles() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			sim := clock.NewSim(time.Unix(1_500_000_000, 0))
			db := p.open(t, sim)
			ds, _, err := Load(db, cfg, sim)
			if err != nil {
				t.Fatal(err)
			}
			sr, ok := db.(StreamReader)
			if !ok {
				t.Fatalf("%T does not implement StreamReader", db)
			}
			reg := RegulatorActor()
			for _, sel := range streamSelectors(ds) {
				for _, chunk := range []int{1, 3, 0, WholeChunk} {
					want, err := db.ReadMetadata(reg, sel)
					if err != nil {
						t.Fatal(err)
					}
					cur, err := sr.ReadMetadataStream(reg, sel, chunk)
					if err != nil {
						t.Fatal(err)
					}
					got, err := Drain(cur)
					if err != nil {
						t.Fatal(err)
					}
					assertSameRecords(t, sel.String(), want, got)
					for _, rec := range got {
						if rec.Data != "" {
							t.Fatalf("metadata stream leaked data for %q", rec.Key)
						}
					}
				}
			}
			// Data streams under a customer actor: per-chunk ACL filtering
			// must equal the materialized filter.
			cust := ds.CustomerActor(1)
			for _, chunk := range []int{1, 0, WholeChunk} {
				want, err := db.ReadData(cust, gdpr.ByUser(ds.UserName(1)))
				if err != nil {
					t.Fatal(err)
				}
				cur, err := sr.ReadDataStream(cust, gdpr.ByUser(ds.UserName(1)), chunk)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Drain(cur)
				if err != nil {
					t.Fatal(err)
				}
				assertSameRecords(t, "customer data stream", want, got)
				if len(got) == 0 {
					t.Fatal("customer stream empty — test is vacuous")
				}
			}
		})
	}
}

// TestStreamCursorSemantics pins the RecordCursor contract: chunks
// respect the requested bound, io.EOF is sticky, Close is idempotent
// and safe mid-stream, and an empty result streams as immediate EOF.
func TestStreamCursorSemantics(t *testing.T) {
	cfg := Config{Records: 120, Seed: 5}.WithDefaults()
	sim := clock.NewSim(time.Unix(1_500_000_000, 0))
	db := streamProfiles()[2].open(t, sim) // redis-striped-indexed
	ds, _, err := Load(db, cfg, sim)
	if err != nil {
		t.Fatal(err)
	}
	sr := db.(StreamReader)
	reg := RegulatorActor()
	sel := gdpr.ByUser(ds.UserName(0))

	const chunk = 4
	cur, err := sr.ReadMetadataStream(reg, sel, chunk)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for {
		recs, err := cur.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 || len(recs) > chunk {
			t.Fatalf("chunk of %d records outside (0, %d]", len(recs), chunk)
		}
		total += len(recs)
	}
	if total == 0 {
		t.Fatal("stream yielded nothing")
	}
	// EOF is sticky; Close after EOF is fine, twice.
	if _, err := cur.Next(); err != io.EOF {
		t.Fatalf("Next after EOF = %v, want io.EOF", err)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}

	// Close mid-stream releases the cursor; the engine stays usable.
	cur2, err := sr.ReadMetadataStream(reg, sel, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur2.Next(); err != nil {
		t.Fatal(err)
	}
	if err := cur2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ReadMetadata(reg, sel); err != nil {
		t.Fatalf("engine broken after mid-stream Close: %v", err)
	}

	// Empty result: immediate EOF.
	cur3, err := sr.ReadMetadataStream(reg, gdpr.ByUser("no-such-user"), chunk)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur3.Next(); err != io.EOF {
		t.Fatalf("empty stream Next = %v, want io.EOF", err)
	}
	cur3.Close()
}

// TestStreamAuditsOnce: one completed stream writes one audit entry
// (READ-DATA-STREAM / READ-METADATA-STREAM), at completion — not one
// per chunk — with the streamed record count, mirroring the
// materialized read's accounting.
func TestStreamAuditsOnce(t *testing.T) {
	cfg := Config{Records: 60, Seed: 3}.WithDefaults()
	sim := clock.NewSim(time.Unix(1_500_000_000, 0))
	db := streamProfiles()[1].open(t, sim) // redis-indexed, logging on
	ds, _, err := Load(db, cfg, sim)
	if err != nil {
		t.Fatal(err)
	}
	sr := db.(StreamReader)
	reg := RegulatorActor()

	before, err := db.GetSystemLogs(reg, sim.Now().Add(-time.Hour), sim.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := sr.ReadMetadataStream(reg, gdpr.ByUser(ds.UserName(0)), 2)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := Drain(cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 3 {
		t.Fatalf("need a multi-chunk stream, got %d records", len(recs))
	}
	after, err := db.GetSystemLogs(reg, sim.Now().Add(-time.Hour), sim.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	var streamEntries int
	for _, e := range after[len(before):] {
		if e.Op == "READ-METADATA-STREAM" {
			streamEntries++
		}
	}
	if streamEntries != 1 {
		t.Fatalf("completed stream wrote %d READ-METADATA-STREAM audit entries, want exactly 1", streamEntries)
	}
}

// TestFailedReadAuditNote: a selector read that fails is audited by one
// rule whichever shape asked for it — a failed READ-DATA and a stream
// that fails to open both leave one not-OK entry noting n=0.
func TestFailedReadAuditNote(t *testing.T) {
	sim := clock.NewSim(time.Unix(1_500_000_000, 0))
	db := streamProfiles()[3].open(t, sim) // postgres, logging on
	sr := db.(StreamReader)
	reg := RegulatorActor()
	// DATA has no relational predicate, so every shape fails to resolve it.
	sel := gdpr.Selector{Attr: gdpr.AttrData, Value: "x"}
	if _, err := db.ReadData(reg, sel); err == nil {
		t.Fatal("READ-DATA by DATA resolved on the postgres model")
	}
	if _, err := sr.ReadDataStream(reg, sel, 4); err == nil {
		t.Fatal("READ-DATA-STREAM by DATA opened on the postgres model")
	}
	if _, err := sr.ReadMetadataStream(reg, sel, 0); err == nil {
		t.Fatal("READ-METADATA-STREAM by DATA opened on the postgres model")
	}
	entries, err := db.GetSystemLogs(reg, sim.Now().Add(-time.Hour), sim.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, e := range entries {
		if e.Actor == reg.String() && e.Target == sel.String() {
			if e.OK {
				t.Fatalf("failed %s audited as OK", e.Op)
			}
			got[e.Op] = e.Note
		}
	}
	want := map[string]string{"READ-DATA": "n=0", "READ-DATA-STREAM": "n=0", "READ-METADATA-STREAM": "n=0"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("failed-read audit notes = %v, want %v", got, want)
	}
}
