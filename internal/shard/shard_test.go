package shard

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/gdpr"
)

func testRecord(i int) gdpr.Record {
	return gdpr.Record{
		Key:  fmt.Sprintf("k%05d", i),
		Data: fmt.Sprintf("data-%05d", i),
		Meta: gdpr.Metadata{
			User:     fmt.Sprintf("u%03d", i%10),
			Purposes: []string{fmt.Sprintf("pur%02d", i%4)},
			Expiry:   time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC),
			Source:   "test",
		},
	}
}

func newMemRouter(t *testing.T, shards int) *Router {
	t.Helper()
	engines := make([]core.Engine, shards)
	for i := range engines {
		var err error
		engines[i], err = core.NewRedisEngine(core.RedisConfig{
			Clock: clock.NewSim(time.Time{}), DisableDaemons: true,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	r, err := New(engines)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestRouterPlacementIsStableAndSpread(t *testing.T) {
	r := newMemRouter(t, 4)
	const n = 400
	for i := 0; i < n; i++ {
		if err := r.Put(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Every key routes back to the shard holding it.
	for i := 0; i < n; i++ {
		rec, ok, err := r.Get(testRecord(i).Key)
		if err != nil || !ok {
			t.Fatalf("get %d: ok=%v err=%v", i, ok, err)
		}
		if rec.Data != testRecord(i).Data {
			t.Fatalf("get %d: wrong record %q", i, rec.Key)
		}
	}
	// The hash spreads keys over every shard (no empty shard at 100x the
	// shard count).
	counts := make([]int, r.Shards())
	for i := range r.shards {
		u, err := r.shards[i].SpaceUsage()
		if err != nil {
			t.Fatal(err)
		}
		if u.PersonalBytes == 0 {
			t.Fatalf("shard %d is empty", i)
		}
		counts[i] = int(u.PersonalBytes)
	}
	t.Logf("per-shard personal bytes: %v", counts)
}

func TestRouterScatterGatherMatchesSingleShard(t *testing.T) {
	one := newMemRouter(t, 1)
	four := newMemRouter(t, 4)
	const n = 300
	for i := 0; i < n; i++ {
		if err := one.Put(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The 4-shard router ingests through the batch fan-out path.
	recs := make([]gdpr.Record, n)
	for i := range recs {
		recs[i] = testRecord(i)
	}
	if err := four.PutBatch(recs); err != nil {
		t.Fatal(err)
	}
	sels := []gdpr.Selector{
		gdpr.ByUser("u003"),
		gdpr.ByPurpose("pur01"),
		{Attr: gdpr.AttrSource, Value: "test"},
	}
	for _, sel := range sels {
		a, err := one.Select(sel)
		if err != nil {
			t.Fatal(err)
		}
		b, err := four.Select(sel)
		if err != nil {
			t.Fatal(err)
		}
		if !sameKeySet(a, b) {
			t.Fatalf("%v: 1-shard %d records, 4-shard %d records", sel, len(a), len(b))
		}
		ka, err := one.SelectKeys(sel)
		if err != nil {
			t.Fatal(err)
		}
		kb, err := four.SelectKeys(sel)
		if err != nil {
			t.Fatal(err)
		}
		if len(ka) != len(a) || len(kb) != len(b) {
			t.Fatalf("%v: SelectKeys disagrees with Select (%d/%d vs %d/%d)", sel, len(ka), len(a), len(kb), len(b))
		}
	}
	// Delete by grouped keys: counts sum across shards.
	keys, err := four.SelectKeys(gdpr.ByUser("u003"))
	if err != nil {
		t.Fatal(err)
	}
	nDel, err := four.Delete(append(keys, "never-existed"))
	if err != nil {
		t.Fatal(err)
	}
	if nDel != len(keys) {
		t.Fatalf("deleted %d, want %d", nDel, len(keys))
	}
	after, err := four.Select(gdpr.ByUser("u003"))
	if err != nil || len(after) != 0 {
		t.Fatalf("after delete: %d records err=%v", len(after), err)
	}
}

func sameKeySet(a, b []gdpr.Record) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[string]int, len(a))
	for _, r := range a {
		seen[r.Key]++
	}
	for _, r := range b {
		seen[r.Key]--
		if seen[r.Key] < 0 {
			return false
		}
	}
	return true
}

// failingEngine errors on every scatter-gathered call.
type failingEngine struct{ core.Engine }

var errBroken = errors.New("shard-2 exploded")

func (f *failingEngine) Select(gdpr.Selector) ([]gdpr.Record, error) { return nil, errBroken }
func (f *failingEngine) SelectKeys(gdpr.Selector) ([]string, error)  { return nil, errBroken }

func TestRouterAggregatesPerShardErrors(t *testing.T) {
	good, err := core.NewRedisEngine(core.RedisConfig{Clock: clock.NewSim(time.Time{}), DisableDaemons: true})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := core.NewRedisEngine(core.RedisConfig{Clock: clock.NewSim(time.Time{}), DisableDaemons: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := New([]core.Engine{good, &failingEngine{bad}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Select(gdpr.ByUser("u001")); !errors.Is(err, errBroken) {
		t.Fatalf("select err = %v, want wrapped errBroken", err)
	}
	if _, err := r.SelectKeys(gdpr.ByUser("u001")); !errors.Is(err, errBroken) {
		t.Fatalf("select-keys err = %v, want wrapped errBroken", err)
	}
}

func TestRouterFeaturesReportTopology(t *testing.T) {
	r := newMemRouter(t, 4)
	f := r.Features()
	if f["shards"] != "4" || !strings.Contains(f["engine"], "x4") {
		t.Fatalf("features = %v", f)
	}
}

func TestNewRejectsEmpty(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("empty router should fail")
	}
	if _, err := Open(core.Options{Engine: "redis"}); err == nil {
		t.Fatal("0 shards should fail")
	}
}

// TestShardedClientsImplementBatchCreator: the wrapped sharded DB must
// batch (loads fan out per shard) while the plain Redis client must not
// (the paper's one-command-per-record load shape).
func TestShardedClientsImplementBatchCreator(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	sharded, err := Open(core.Options{Engine: "redis", Shards: 2, Clock: sim, DisableDaemons: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	if _, ok := sharded.(core.BatchCreator); !ok {
		t.Fatal("sharded redis DB must implement BatchCreator")
	}
	plain, err := core.Open(core.Options{Engine: "redis", Clock: sim, DisableDaemons: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, ok := interface{}(plain).(core.BatchCreator); ok {
		t.Fatal("plain redis client must NOT implement BatchCreator")
	}
}

// TestShardedCorrectnessOracle runs the §4.2.3 correctness pass against
// sharded engines: every query family must return exactly what the
// in-memory oracle expects, i.e. N shards behave like one store.
func TestShardedCorrectnessOracle(t *testing.T) {
	for _, tc := range []struct {
		engine string
		shards int
	}{
		{"redis", 3},
		{"postgres", 2},
	} {
		t.Run(fmt.Sprintf("%s-%d", tc.engine, tc.shards), func(t *testing.T) {
			sim := clock.NewSim(time.Time{})
			cfg := core.Config{Records: 300, Operations: 200, Threads: 2, Seed: 7}.WithDefaults()
			open := func() (core.DB, *core.Dataset, error) {
				db, err := Open(core.Options{
					Engine: tc.engine, Shards: tc.shards, Dir: t.TempDir(), Compliance: core.Full(), Clock: sim, DisableDaemons: true, AuditPolicy: audit.PipeAsync,
				})
				if err != nil {
					return nil, nil, err
				}
				ds, _, err := core.Load(db, cfg, sim)
				if err != nil {
					db.Close()
					return nil, nil, err
				}
				return db, ds, nil
			}
			rep, err := core.ValidateAll(open, sim, true)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Score() != 100 {
				t.Fatalf("correctness = %.2f%% (%d/%d)\nmismatches: %s",
					rep.Score(), rep.Matched, rep.Total, strings.Join(rep.Mismatches, "\n  "))
			}
		})
	}
}

// TestShardedWorkloadsRun drives all four Table 2a workloads end to end
// on sharded engines, including the audit-backed regulator workload.
func TestShardedWorkloadsRun(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	cfg := core.Config{Records: 300, Operations: 150, Threads: 4, Seed: 5}.WithDefaults()
	for _, engine := range []string{"redis", "postgres"} {
		db, err := Open(core.Options{
			Engine: engine, Shards: 3, Dir: t.TempDir(), Compliance: core.Full(), Clock: sim, DisableDaemons: true, AuditPolicy: audit.PipeBatched,
		})
		if err != nil {
			t.Fatal(err)
		}
		ds, _, err := core.Load(db, cfg, sim)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range core.WorkloadNames() {
			run, err := core.Run(db, ds, name, sim)
			if err != nil {
				t.Fatalf("%s/%s: %v", engine, name, err)
			}
			if run.TotalErrors() != 0 {
				t.Fatalf("%s/%s errors: %s", engine, name, run.Summary())
			}
		}
		if _, err := db.SpaceUsage(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedRedisPersistsAcrossReopen: each shard replays its own AOF.
func TestShardedRedisPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	sim := clock.NewSim(time.Time{})
	cfg := core.Config{Records: 60, Operations: 5, Threads: 1, Seed: 3}.WithDefaults()
	db, err := Open(core.Options{
		Engine: "redis", Shards: 3, Dir: dir, Compliance: core.Full(), Clock: sim, DisableDaemons: true, AuditPolicy: audit.PipeAsync,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, _, err := core.Load(db, cfg, sim)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(core.Options{
		Engine: "redis", Shards: 3, Dir: dir, Compliance: core.Full(), Clock: sim, DisableDaemons: true, AuditPolicy: audit.PipeAsync,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for _, i := range []int{0, 30, 59} {
		got, err := db2.ReadData(core.ControllerActor(), gdpr.ByKey(ds.KeyAt(i)))
		if err != nil || len(got) != 1 {
			t.Fatalf("after reopen, record %d: %d records err=%v", i, len(got), err)
		}
	}
}
