package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/acl"
	"repro/internal/clock"
	"repro/internal/gdpr"
)

func openBatchClient(t *testing.T, comp Compliance) (DB, *Dataset) {
	t.Helper()
	sim := clock.NewSim(time.Time{})
	c, err := Open(Options{
		Engine: "postgres", Dir: t.TempDir(), Clock: sim, Compliance: comp, DisableDaemons: true,
		SynchronousCommit: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ds := NewDataset(Config{Records: 64, Seed: 1}.WithDefaults(), sim.Now())
	return c, ds
}

// TestCreateRecordsMatchesPerRecordPath: the batched load path must leave
// the store in the same state a record-by-record load produces.
func TestCreateRecordsMatchesPerRecordPath(t *testing.T) {
	comp := Compliance{AccessControl: true, Strict: true}
	batch, ds := openBatchClient(t, comp)
	single, _ := openBatchClient(t, comp)

	recs := make([]gdpr.Record, 64)
	for i := range recs {
		recs[i] = ds.RecordAt(i)
	}
	if err := batch.(BatchCreator).CreateRecords(ControllerActor(), recs); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := single.CreateRecord(ControllerActor(), rec); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []DB{batch, single} {
		got, err := c.ReadData(ControllerActor(), gdpr.ByUser(recs[0].Meta.User))
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, r := range recs {
			if r.Meta.User == recs[0].Meta.User {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("by-user read = %d records, want %d", len(got), want)
		}
	}
	bu, err := batch.SpaceUsage()
	if err != nil {
		t.Fatal(err)
	}
	su, err := single.SpaceUsage()
	if err != nil {
		t.Fatal(err)
	}
	if bu.PersonalBytes != su.PersonalBytes || bu.TotalBytes != su.TotalBytes {
		t.Fatalf("space diverged: batch=%+v single=%+v", bu, su)
	}
}

// TestCreateRecordsEnforcesValidationAndACL: the batch path keeps the
// per-record checks — an invalid record or denied actor rejects the
// batch before anything is written.
func TestCreateRecordsEnforcesValidationAndACL(t *testing.T) {
	c, ds := openBatchClient(t, Compliance{AccessControl: true, Strict: true})
	bad := ds.RecordAt(0)
	bad.Meta.User = "" // strict validation requires an owner
	if err := c.(BatchCreator).CreateRecords(ControllerActor(), []gdpr.Record{ds.RecordAt(1), bad}); err == nil {
		t.Fatal("invalid record in batch should fail")
	}
	customer := ds.CustomerActor(0)
	err := c.(BatchCreator).CreateRecords(customer, []gdpr.Record{ds.RecordAt(2)})
	var denied *acl.DeniedError
	if !errors.As(err, &denied) {
		t.Fatalf("customer create = %v, want denial", err)
	}
	// Nothing from the rejected batches landed.
	if got, err := c.ReadData(ControllerActor(), gdpr.ByKey(ds.KeyAt(1))); err != nil || len(got) != 0 {
		t.Fatalf("rejected batch leaked: %v %v", got, err)
	}
}

// TestLoadUsesBatchPathOnPostgres: core.Load against the Postgres client
// (a BatchCreator) must produce the full dataset.
func TestLoadUsesBatchPathOnPostgres(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	c, err := Open(Options{
		Engine: "postgres", Dir: t.TempDir(), Clock: sim, DisableDaemons: true, SynchronousCommit: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := interface{}(c).(BatchCreator); !ok {
		t.Fatal("the postgres model must implement BatchCreator")
	}
	cfg := Config{Records: 500, Threads: 4, Seed: 1}
	ds, run, err := Load(c, cfg, sim)
	if err != nil {
		t.Fatal(err)
	}
	if got := run.TotalOps(); got != 500 {
		t.Fatalf("load recorded %d ops, want 500", got)
	}
	for _, i := range []int{0, 250, 499} {
		got, err := c.ReadData(ControllerActor(), gdpr.ByKey(ds.KeyAt(i)))
		if err != nil || len(got) != 1 {
			t.Fatalf("record %d after batched load: %v %v", i, got, err)
		}
	}
}
