package core

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/acl"
	"repro/internal/clock"
	"repro/internal/gdpr"
	"repro/internal/kvstore"
)

func smallConfig() Config {
	return Config{
		Records:    400,
		Operations: 250,
		Threads:    4,
		Seed:       7,
	}.WithDefaults()
}

// engineOf reaches under the middleware for the storage adapter.
func engineOf(db DB) Engine {
	if b, ok := db.(*batchDB); ok {
		return b.eng
	}
	return db.(*middleware).eng
}

// kvStoreOf returns the kvstore under an unsharded Redis-model DB.
func kvStoreOf(db DB) *kvstore.Store { return engineOf(db).(*kvEngine).store }

// openRedis returns a fully-compliant Redis-model client on a sim clock.
func openRedis(t testing.TB, sim *clock.Sim, comp Compliance) DB {
	t.Helper()
	c, err := Open(Options{
		Engine:         "redis",
		Dir:            t.TempDir(),
		Compliance:     comp,
		Clock:          sim,
		DisableDaemons: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// openPostgres returns a Postgres-model client on a sim clock.
func openPostgres(t testing.TB, sim *clock.Sim, comp Compliance) DB {
	t.Helper()
	c, err := Open(Options{
		Engine:         "postgres",
		Dir:            t.TempDir(),
		Compliance:     comp,
		Clock:          sim,
		DisableDaemons: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestDefaultWorkloadsMatchTable2a(t *testing.T) {
	ws := DefaultWorkloads()
	if len(ws) != 4 {
		t.Fatalf("workloads = %d", len(ws))
	}
	sum := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s
	}
	// Controller: 25% create, 25% delete family, 50% update-metadata family; uniform.
	c := ws[Controller]
	if c.Dist != DistUniform {
		t.Fatal("controller dist")
	}
	if c.Weights[0] != 25 {
		t.Fatal("controller create weight")
	}
	if math.Abs(sum(c.Weights[1:4])-25) > 1e-9 || math.Abs(sum(c.Weights[4:])-50) > 1e-9 {
		t.Fatalf("controller family weights: %v", c.Weights)
	}
	// Customer: five query types at 20% each; zipf.
	cu := ws[Customer]
	if cu.Dist != DistZipf || len(cu.Queries) != 5 {
		t.Fatalf("customer mix: %+v", cu)
	}
	for _, w := range cu.Weights {
		if w != 20 {
			t.Fatalf("customer weights: %v", cu.Weights)
		}
	}
	// Processor: 80% read-by-key zipf, 20% metadata reads uniform.
	p := ws[Processor]
	if p.Weights[0] != 80 || math.Abs(sum(p.Weights[1:])-20) > 1e-9 {
		t.Fatalf("processor weights: %v", p.Weights)
	}
	if p.Dist != DistZipf || p.SecondaryDist != DistUniform {
		t.Fatal("processor dists")
	}
	// Regulator: 46/31/23 zipf.
	r := ws[Regulator]
	if !reflect.DeepEqual(r.Weights, []float64{46, 31, 23}) || r.Dist != DistZipf {
		t.Fatalf("regulator mix: %+v", r)
	}
	if r.Queries[0] != QReadMetaByUser || r.Queries[1] != QGetSystemLogs || r.Queries[2] != QVerifyDeletion {
		t.Fatalf("regulator queries: %v", r.Queries)
	}
	// Mix renders.
	if !strings.Contains(c.String(), "controller") {
		t.Fatal("mix string")
	}
}

func TestDatasetDeterministicAndStrictValid(t *testing.T) {
	cfg := smallConfig()
	ds := NewDataset(cfg, time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC))
	for i := 0; i < 100; i++ {
		a := ds.RecordAt(i)
		b := ds.RecordAt(i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("record %d not deterministic", i)
		}
		if err := a.Validate(true); err != nil {
			t.Fatalf("record %d invalid: %v", i, err)
		}
		if a.Meta.User != ds.UserAt(i) {
			t.Fatalf("record %d owner mismatch", i)
		}
		if len(a.Data) != cfg.DataSize {
			t.Fatalf("record %d data size = %d", i, len(a.Data))
		}
	}
	// Distinct records have distinct keys.
	if ds.KeyAt(1) == ds.KeyAt(2) {
		t.Fatal("keys collide")
	}
}

func TestComplianceString(t *testing.T) {
	if None().String() != "none" {
		t.Fatalf("none = %q", None().String())
	}
	full := Full().String()
	for _, want := range []string{"rest", "transit", "log", "ttl", "acl", "strict"} {
		if !strings.Contains(full, want) {
			t.Fatalf("full = %q missing %q", full, want)
		}
	}
	if strings.Contains(full, "idx") {
		t.Fatal("Full should not enable indexing by default")
	}
}

func TestSpaceUsageFactor(t *testing.T) {
	s := SpaceUsage{PersonalBytes: 10, TotalBytes: 35}
	if s.Factor() != 3.5 {
		t.Fatalf("factor = %f", s.Factor())
	}
	if (SpaceUsage{}).Factor() != 0 {
		t.Fatal("zero factor")
	}
}

func runAllWorkloads(t *testing.T, db DB, sim *clock.Sim, cfg Config) {
	t.Helper()
	ds, loadRun, err := Load(db, cfg, sim)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if loadRun.TotalErrors() != 0 {
		t.Fatalf("load errors: %s", loadRun.Summary())
	}
	for _, name := range WorkloadNames() {
		run, err := Run(db, ds, name, sim)
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, run.Summary())
		}
		if run.TotalErrors() != 0 {
			t.Fatalf("%s errors: %s", name, run.Summary())
		}
		if run.TotalOps() < int64(cfg.Operations) {
			t.Fatalf("%s ops = %d", name, run.TotalOps())
		}
	}
}

func TestRedisClientAllWorkloads(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	c := openRedis(t, sim, Full())
	runAllWorkloads(t, c, sim, smallConfig())
}

func TestPostgresClientAllWorkloads(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	c := openPostgres(t, sim, Full())
	runAllWorkloads(t, c, sim, smallConfig())
}

func TestPostgresClientAllWorkloadsIndexed(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	comp := Full()
	comp.MetadataIndexing = true
	c := openPostgres(t, sim, comp)
	runAllWorkloads(t, c, sim, smallConfig())
}

func TestBaselineNoComplianceWorkloads(t *testing.T) {
	// Without logging the regulator workload's GET-SYSTEM-LOGS fails, so
	// run only the other three.
	sim := clock.NewSim(time.Time{})
	c := openRedis(t, sim, None())
	cfg := smallConfig()
	ds, _, err := Load(c, cfg, sim)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []WorkloadName{Controller, Customer, Processor} {
		run, err := Run(c, ds, name, sim)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if run.TotalErrors() != 0 {
			t.Fatalf("%s errors: %s", name, run.Summary())
		}
	}
}

func validateClient(t *testing.T, open func() (DB, *Dataset, error), sim *clock.Sim, aclOn bool) CorrectnessReport {
	t.Helper()
	rep, err := ValidateAll(open, sim, aclOn)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Score() != 100 {
		t.Fatalf("correctness = %.2f%% (%d/%d)\nmismatches: %s",
			rep.Score(), rep.Matched, rep.Total, strings.Join(rep.Mismatches, "\n  "))
	}
	return rep
}

func TestRedisClientCorrectness(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	cfg := smallConfig()
	open := func() (DB, *Dataset, error) {
		c, err := Open(Options{
			Engine: "redis", Dir: t.TempDir(), Compliance: Full(), Clock: sim, DisableDaemons: true,
		}, nil)
		if err != nil {
			return nil, nil, err
		}
		ds, _, err := Load(c, cfg, sim)
		if err != nil {
			c.Close()
			return nil, nil, err
		}
		return c, ds, nil
	}
	rep := validateClient(t, open, sim, true)
	if rep.Total < 4*cfg.Operations {
		t.Fatalf("validated %d queries", rep.Total)
	}
}

func TestPostgresClientCorrectness(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		sim := clock.NewSim(time.Time{})
		cfg := smallConfig()
		comp := Full()
		comp.MetadataIndexing = indexed
		open := func() (DB, *Dataset, error) {
			c, err := Open(Options{
				Engine: "postgres", Dir: t.TempDir(), Compliance: comp, Clock: sim, DisableDaemons: true,
			}, nil)
			if err != nil {
				return nil, nil, err
			}
			ds, _, err := Load(c, cfg, sim)
			if err != nil {
				c.Close()
				return nil, nil, err
			}
			return c, ds, nil
		}
		validateClient(t, open, sim, true)
	}
}

func TestCorrectnessWithoutACL(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	cfg := smallConfig()
	comp := Compliance{Logging: true, Strict: true} // no ACL, no encryption
	open := func() (DB, *Dataset, error) {
		c, err := Open(Options{
			Engine: "redis", Dir: t.TempDir(), Compliance: comp, Clock: sim, DisableDaemons: true,
		}, nil)
		if err != nil {
			return nil, nil, err
		}
		ds, _, err := Load(c, cfg, sim)
		if err != nil {
			c.Close()
			return nil, nil, err
		}
		return c, ds, nil
	}
	validateClient(t, open, sim, false)
}

func TestACLEnforcedAcrossClients(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	cfg := Config{Records: 50, Operations: 10, Threads: 1, Seed: 3}.WithDefaults()
	for _, mk := range []func() DB{
		func() DB { return openRedis(t, sim, Full()) },
		func() DB { return openPostgres(t, sim, Full()) },
	} {
		db := mk()
		ds, _, err := Load(db, cfg, sim)
		if err != nil {
			t.Fatal(err)
		}
		// A customer reading another user's records gets nothing.
		other := ds.CustomerActor(1)
		got, err := db.ReadData(other, gdpr.ByUser(ds.UserName(0)))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Fatalf("customer read another user's %d records", len(got))
		}
		// A regulator cannot read personal data.
		got, err = db.ReadData(RegulatorActor(), gdpr.ByUser(ds.UserName(0)))
		if err != nil || len(got) != 0 {
			t.Fatalf("regulator read %d records (err=%v)", len(got), err)
		}
		// A processor without the right purpose reads nothing by key.
		rec := ds.RecordAt(0)
		wrongPurpose := acl.Actor{Role: acl.Processor, ID: "p", Purpose: "purpose-nope"}
		got, err = db.ReadData(wrongPurpose, gdpr.ByKey(rec.Key))
		if err != nil || len(got) != 0 {
			t.Fatalf("processor with wrong purpose read %d records (err=%v)", len(got), err)
		}
		// A processor cannot delete.
		n, err := db.DeleteRecord(ds.ProcessorActor(0), gdpr.ByKey(rec.Key))
		if err != nil || n != 0 {
			t.Fatalf("processor deleted %d records (err=%v)", n, err)
		}
		// Customers cannot read system logs.
		if _, err := db.GetSystemLogs(ds.CustomerActor(0), sim.Now().Add(-time.Hour), sim.Now()); err == nil {
			t.Fatal("customer read system logs")
		}
	}
}

func TestMetadataReadsAreRedacted(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	cfg := Config{Records: 30, Operations: 10, Threads: 1, Seed: 3}.WithDefaults()
	for _, db := range []DB{openRedis(t, sim, Full()), openPostgres(t, sim, Full())} {
		ds, _, err := Load(db, cfg, sim)
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.ReadMetadata(RegulatorActor(), gdpr.ByUser(ds.UserName(0)))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			t.Fatal("no metadata returned")
		}
		for _, r := range got {
			if r.Data != "" {
				t.Fatalf("metadata read leaked data %q", r.Data)
			}
			if r.Meta.User != ds.UserName(0) {
				t.Fatalf("wrong user %q", r.Meta.User)
			}
		}
	}
}

func TestTTLExpiryHidesRecordsOnRedis(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	c := openRedis(t, sim, Full())
	cfg := Config{Records: 100, Operations: 10, Threads: 1, Seed: 3, ShortTTLFraction: 0.3, ShortTTL: time.Minute}.WithDefaults()
	ds, _, err := Load(c, cfg, sim)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := c.ReadData(ControllerActor(), gdpr.ByUser(ds.UserName(0)))
	sim.Advance(2 * time.Minute) // past ShortTTL
	after, err := c.ReadData(ControllerActor(), gdpr.ByUser(ds.UserName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(before) {
		t.Fatalf("expired records still visible: %d -> %d", len(before), len(after))
	}
}

func TestTTLSweepOnPostgres(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	c := openPostgres(t, sim, Full())
	cfg := Config{Records: 100, Operations: 10, Threads: 1, Seed: 3, ShortTTLFraction: 0.3, ShortTTL: time.Minute}.WithDefaults()
	if _, _, err := Load(c, cfg, sim); err != nil {
		t.Fatal(err)
	}
	sim.Advance(2 * time.Minute)
	n, err := engineOf(c).(*relEngine).db.SweepExpired(RecordsTable, "ttl")
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("sweep deleted nothing")
	}
	// A second sweep finds nothing.
	n2, _ := engineOf(c).(*relEngine).db.SweepExpired(RecordsTable, "ttl")
	if n2 != 0 {
		t.Fatalf("second sweep deleted %d", n2)
	}
}

func TestGetSystemLogsRequiresLogging(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	comp := Compliance{AccessControl: true} // no logging
	for _, db := range []DB{openRedis(t, sim, comp), openPostgres(t, sim, comp)} {
		_, err := db.GetSystemLogs(RegulatorActor(), sim.Now().Add(-time.Hour), sim.Now())
		if !errors.Is(err, ErrFeatureDisabled) {
			t.Fatalf("err = %v, want ErrFeatureDisabled", err)
		}
	}
}

func TestSystemLogsRecordOperations(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	c := openRedis(t, sim, Full())
	cfg := Config{Records: 20, Operations: 10, Threads: 1, Seed: 3}.WithDefaults()
	ds, _, err := Load(c, cfg, sim)
	if err != nil {
		t.Fatal(err)
	}
	sim.Advance(time.Second)
	if _, err := c.ReadData(ds.ProcessorActor(0), gdpr.ByPurpose(ds.PurposeName(0))); err != nil {
		t.Fatal(err)
	}
	entries, err := c.GetSystemLogs(RegulatorActor(), sim.Now().Add(-time.Hour), sim.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < int(cfg.Records)+1 {
		t.Fatalf("log entries = %d, want >= %d", len(entries), cfg.Records+1)
	}
	found := false
	for _, e := range entries {
		if e.Op == "READ-DATA" && strings.HasPrefix(e.Actor, "processor:") {
			found = true
		}
	}
	if !found {
		t.Fatal("processor read not in audit trail")
	}
}

func TestSpaceUsageNearTable3Shape(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	cfg := Config{Records: 500, Operations: 10, Threads: 2, Seed: 3}.WithDefaults()

	redis := openRedis(t, sim, Full())
	if _, _, err := Load(redis, cfg, sim); err != nil {
		t.Fatal(err)
	}
	ru, err := redis.SpaceUsage()
	if err != nil {
		t.Fatal(err)
	}
	if ru.Factor() < 2 {
		t.Fatalf("redis space factor = %.2f, want metadata-dominated (>2)", ru.Factor())
	}

	pgPlain := openPostgres(t, sim, Full())
	if _, _, err := Load(pgPlain, cfg, sim); err != nil {
		t.Fatal(err)
	}
	pu, err := pgPlain.SpaceUsage()
	if err != nil {
		t.Fatal(err)
	}

	compIdx := Full()
	compIdx.MetadataIndexing = true
	pgIdx := openPostgres(t, sim, compIdx)
	if _, _, err := Load(pgIdx, cfg, sim); err != nil {
		t.Fatal(err)
	}
	iu, err := pgIdx.SpaceUsage()
	if err != nil {
		t.Fatal(err)
	}
	// Table 3's shape: indexes inflate the space factor substantially.
	if iu.Factor() <= pu.Factor()*1.2 {
		t.Fatalf("indexed factor %.2f not clearly above plain %.2f", iu.Factor(), pu.Factor())
	}
	t.Logf("space factors: redis=%.2f pg=%.2f pg+idx=%.2f", ru.Factor(), pu.Factor(), iu.Factor())
}

func TestVerifyDeletionCountsPresent(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	c := openPostgres(t, sim, Full())
	cfg := Config{Records: 10, Operations: 5, Threads: 1, Seed: 3}.WithDefaults()
	ds, _, err := Load(c, cfg, sim)
	if err != nil {
		t.Fatal(err)
	}
	owner := ds.CustomerActor(ds.OwnerOfKey(0))
	if _, err := c.DeleteRecord(owner, gdpr.ByKey(ds.KeyAt(0))); err != nil {
		t.Fatal(err)
	}
	n, err := c.VerifyDeletion(RegulatorActor(), []string{ds.KeyAt(0), ds.KeyAt(1)})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("present = %d, want 1", n)
	}
}

func TestGetSystemFeatures(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	comp := Full()
	comp.MetadataIndexing = true
	pg := openPostgres(t, sim, comp)
	f, err := pg.GetSystemFeatures(RegulatorActor())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f["indexes"], "personal_records.usr") {
		t.Fatalf("features = %v", f)
	}
	if f["compliance"] == "" || f["encrypt_in_transit"] != "true" {
		t.Fatalf("features = %v", f)
	}

	redis := openRedis(t, sim, Full())
	f, err = redis.GetSystemFeatures(RegulatorActor())
	if err != nil {
		t.Fatal(err)
	}
	if f["expiry_mode"] != "strict" || f["aof"] != "everysec" {
		t.Fatalf("redis features = %v", f)
	}
}

func TestRedisClientPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	sim := clock.NewSim(time.Time{})
	comp := Full()
	c, err := Open(Options{Engine: "redis", Dir: dir, Compliance: comp, Clock: sim, DisableDaemons: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Records: 25, Operations: 5, Threads: 1, Seed: 3}.WithDefaults()
	ds, _, err := Load(c, cfg, sim)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(Options{Engine: "redis", Dir: dir, Compliance: comp, Clock: sim, DisableDaemons: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got, err := c2.ReadData(ControllerActor(), gdpr.ByKey(ds.KeyAt(0)))
	if err != nil || len(got) != 1 {
		t.Fatalf("after reopen: %d records, err=%v", len(got), err)
	}
}

func TestPostgresClientPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	sim := clock.NewSim(time.Time{})
	comp := Full()
	open := func() DB {
		c, err := Open(Options{Engine: "postgres", Dir: dir, Compliance: comp, Clock: sim, DisableDaemons: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := open()
	cfg := Config{Records: 25, Operations: 5, Threads: 1, Seed: 3}.WithDefaults()
	ds, _, err := Load(c, cfg, sim)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := open()
	defer c2.Close()
	got, err := c2.ReadData(ControllerActor(), gdpr.ByKey(ds.KeyAt(0)))
	if err != nil || len(got) != 1 {
		t.Fatalf("after reopen: %d records, err=%v", len(got), err)
	}
}

func TestStrictModeRejectsBadRecords(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	c := openRedis(t, sim, Full())
	bad := gdpr.Record{Key: "k", Data: "d", Meta: gdpr.Metadata{User: "u"}} // no TTL
	if err := c.CreateRecord(ControllerActor(), bad); err == nil {
		t.Fatal("strict mode accepted record without TTL")
	}
}

func TestRunUnknownWorkloadFails(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	c := openRedis(t, sim, None())
	ds := NewDataset(Config{Records: 10}.WithDefaults(), sim.Now())
	if _, err := Run(c, ds, WorkloadName("nope"), sim); err == nil {
		t.Fatal("unknown workload should fail")
	}
	if _, err := Validate(c, ds, WorkloadName("nope"), sim, false); err == nil {
		t.Fatal("unknown workload validation should fail")
	}
}

func TestReportString(t *testing.T) {
	r := Report{
		Engine:  "redis",
		Records: 100,
		Results: []WorkloadResult{{
			Workload: Controller, Operations: 10, CompletionTime: time.Second,
			Throughput: 10, Correctness: 100,
		}},
		Space: SpaceUsage{PersonalBytes: 10, TotalBytes: 35},
	}
	s := r.String()
	for _, want := range []string{"redis", "controller", "3.50x", "correctness=100.0%"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}
