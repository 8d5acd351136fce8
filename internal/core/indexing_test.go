package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/gdpr"
)

// These tests pin the acceptance bar of the metadata-index layer on the
// Redis model: with MetadataIndexing on, equality attribute selectors are
// served entirely by the inverted index (no full-keyspace scan), return
// exactly what the scan path returns, and the non-indexable shapes
// (negated selectors, SRC equality) still fall back to the scan.

func openIndexingClient(t *testing.T, sim *clock.Sim, indexed bool) (DB, *Dataset) {
	t.Helper()
	client, err := Open(Options{
		Engine:         "redis",
		Compliance:     Compliance{Strict: true, MetadataIndexing: indexed},
		Clock:          sim,
		DisableDaemons: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	cfg := Config{Records: 400, Seed: 7}.WithDefaults()
	ds, _, err := Load(client, cfg, sim)
	if err != nil {
		t.Fatal(err)
	}
	return client, ds
}

func TestIndexedSelectPerformsNoFullScan(t *testing.T) {
	sim := clock.NewSim(time.Unix(1_500_000_000, 0))
	client, ds := openIndexingClient(t, sim, true)
	actor := ControllerActor()

	selectors := []gdpr.Selector{
		gdpr.ByUser(ds.UserName(3)),
		gdpr.ByPurpose(ds.PurposeName(1)),
		gdpr.ByObjection(ds.PurposeName(1)),
		gdpr.ByDecision(ds.DecisionName(0)),
		gdpr.ByShare(ds.ShareName(0)),
	}
	for _, sel := range selectors {
		if _, err := client.ReadData(actor, sel); err != nil {
			t.Fatalf("%v: %v", sel, err)
		}
		if _, err := client.UpdateMetadata(actor, sel, gdpr.Delta{
			Attr: gdpr.AttrTTL, Op: gdpr.DeltaSet, Expiry: sim.Now().Add(24 * time.Hour),
		}); err != nil {
			t.Fatalf("update %v: %v", sel, err)
		}
	}
	if _, err := client.DeleteRecord(actor, gdpr.ByExpiredAt(sim.Now())); err != nil {
		t.Fatal(err)
	}
	if got := kvStoreOf(client).FullScans(); got != 0 {
		t.Fatalf("indexed equality selectors performed %d full scans, want 0", got)
	}

	// Non-indexable shapes still work — through the scan fallback.
	before := kvStoreOf(client).FullScans()
	if _, err := client.ReadData(actor, gdpr.ByNotObjecting(ds.PurposeName(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := client.ReadData(actor, gdpr.Selector{Attr: gdpr.AttrSource, Value: ds.SourceName(0)}); err != nil {
		t.Fatal(err)
	}
	if got := kvStoreOf(client).FullScans(); got != before+2 {
		t.Fatalf("fallback selectors scanned %d times, want 2", got-before)
	}
}

func TestScanBaselineStillScans(t *testing.T) {
	sim := clock.NewSim(time.Unix(1_500_000_000, 0))
	client, ds := openIndexingClient(t, sim, false)
	if _, err := client.ReadData(ControllerActor(), gdpr.ByUser(ds.UserName(3))); err != nil {
		t.Fatal(err)
	}
	if got := kvStoreOf(client).FullScans(); got != 1 {
		t.Fatalf("baseline BY-USR read scanned %d times, want 1", got)
	}
	// Streamed, the same read is still one walk of the keyspace, however
	// many chunks it takes.
	cur, err := client.(StreamReader).ReadDataStream(ControllerActor(), gdpr.ByUser(ds.UserName(3)), 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Drain(cur); err != nil {
		t.Fatal(err)
	}
	if got := kvStoreOf(client).FullScans(); got != 2 {
		t.Fatalf("streamed baseline BY-USR read took the scan count to %d, want 2", got)
	}
}

// TestIndexedMatchesScanResults cross-checks every equality dimension,
// the TTL selector and the space accounting between an indexed and a
// scan-only client over the same dataset and mutation history.
func TestIndexedMatchesScanResults(t *testing.T) {
	sim := clock.NewSim(time.Unix(1_500_000_000, 0))
	indexed, ds := openIndexingClient(t, sim, true)
	scan, _ := openIndexingClient(t, sim, false)
	actor := ControllerActor()

	mutate := func(db DB) {
		// Deltas, deletes and TTL rewrites keep the two histories identical
		// while exercising index maintenance on update and delete.
		if _, err := db.UpdateMetadata(actor, gdpr.ByUser(ds.UserName(2)), gdpr.Delta{
			Attr: gdpr.AttrSharing, Op: gdpr.DeltaAdd, Values: []string{ds.ShareName(1)},
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.UpdateMetadata(actor, gdpr.ByPurpose(ds.PurposeName(2)), gdpr.Delta{
			Attr: gdpr.AttrTTL, Op: gdpr.DeltaSet, Expiry: sim.Now().Add(time.Minute),
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.DeleteRecord(actor, gdpr.ByUser(ds.UserName(5))); err != nil {
			t.Fatal(err)
		}
	}
	mutate(indexed)
	mutate(scan)
	sim.Advance(2 * time.Minute) // the rewritten TTLs fall due

	selectors := []gdpr.Selector{
		gdpr.ByUser(ds.UserName(2)),
		gdpr.ByUser(ds.UserName(5)),
		gdpr.ByPurpose(ds.PurposeName(2)),
		gdpr.ByObjection(ds.PurposeName(2)),
		gdpr.ByDecision(ds.DecisionName(1)),
		gdpr.ByShare(ds.ShareName(1)),
		gdpr.ByExpiredAt(sim.Now()),
	}
	for _, sel := range selectors {
		a, err := indexed.ReadData(actor, sel)
		if err != nil {
			t.Fatalf("indexed %v: %v", sel, err)
		}
		b, err := scan.ReadData(actor, sel)
		if err != nil {
			t.Fatalf("scan %v: %v", sel, err)
		}
		ka, kb := recordKeys(a), recordKeys(b)
		if !reflect.DeepEqual(ka, kb) {
			t.Fatalf("%v diverged: indexed=%v scan=%v", sel, ka, kb)
		}
	}

	// Purging by TTL must delete the same records on both clients.
	na, err := indexed.DeleteRecord(actor, gdpr.ByExpiredAt(sim.Now()))
	if err != nil {
		t.Fatal(err)
	}
	nb, err := scan.DeleteRecord(actor, gdpr.ByExpiredAt(sim.Now()))
	if err != nil {
		t.Fatal(err)
	}
	if na != nb || na == 0 {
		t.Fatalf("TTL purge: indexed=%d scan=%d (must match and be non-zero)", na, nb)
	}

	// The index layer costs space: total bytes must exceed the scan
	// client's, by exactly the reported index bytes.
	ua, err := indexed.SpaceUsage()
	if err != nil {
		t.Fatal(err)
	}
	ub, err := scan.SpaceUsage()
	if err != nil {
		t.Fatal(err)
	}
	if ua.PersonalBytes != ub.PersonalBytes {
		t.Fatalf("personal bytes diverged: %d vs %d", ua.PersonalBytes, ub.PersonalBytes)
	}
	idxBytes := kvStoreOf(indexed).IndexBytes()
	if idxBytes <= 0 {
		t.Fatal("indexed client reports no index bytes")
	}
	if ua.TotalBytes != ub.TotalBytes+idxBytes {
		t.Fatalf("total bytes: indexed=%d scan=%d index=%d", ua.TotalBytes, ub.TotalBytes, idxBytes)
	}
}

func recordKeys(recs []gdpr.Record) []string {
	keys := make([]string, len(recs))
	for i, r := range recs {
		keys[i] = r.Key
	}
	return gdpr.SortStrings(keys)
}

// TestIndexedStoreSurvivesAOFReplay pins that indexes are rebuilt during
// replay: a restarted store answers indexed selectors without scanning
// and with the same results as before the restart.
func TestIndexedStoreSurvivesAOFReplay(t *testing.T) {
	dir := t.TempDir()
	sim := clock.NewSim(time.Unix(1_500_000_000, 0))
	comp := Compliance{Strict: true, Logging: true, MetadataIndexing: true}
	open := func() DB {
		client, err := Open(Options{
			Engine: "redis", Dir: dir, Compliance: comp, Clock: sim, DisableDaemons: true,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return client
	}
	client := open()
	cfg := Config{Records: 120, Seed: 3}.WithDefaults()
	ds, _, err := Load(client, cfg, sim)
	if err != nil {
		t.Fatal(err)
	}
	actor := ControllerActor()
	sel := gdpr.ByUser(ds.UserName(1))
	want, err := client.ReadData(actor, sel)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("selector matched nothing — test is vacuous")
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}

	client = open()
	defer client.Close()
	got, err := client.ReadData(actor, sel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recordKeys(got), recordKeys(want)) {
		t.Fatalf("replayed index answered %v, want %v", recordKeys(got), recordKeys(want))
	}
	if n := kvStoreOf(client).FullScans(); n != 0 {
		t.Fatalf("post-replay indexed read scanned %d times, want 0", n)
	}
	if fmt.Sprintf("%v", kvStoreOf(client).Info()["metadata_indexing"]) != "true" {
		t.Fatal("replayed store lost its indexing flag")
	}
}
