package shard

import (
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/gdpr"
)

// The cross-engine differential test: one seeded mini-workload (the
// shared internal/difftest harness) replayed against the Redis model
// (scanning and metadata-indexed), the PostgreSQL model (indexed) and
// sharded variants of both, recording every query's result as a
// canonical, order-insensitive transcript line. All engines must produce
// byte-identical transcripts — same selector results, same mutation
// counts — which is the acceptance bar for "compliance above storage":
// the middleware, not the backend, defines observable behavior, and the
// index layer changes cost, never results.

// variant opens one engine under test.
type variant struct {
	name string
	open func(t *testing.T, sim *clock.Sim) core.DB
}

func diffVariants() []variant {
	comp := core.Compliance{Logging: true, AccessControl: true, Strict: true, TimelyDeletion: true}
	idx := comp
	idx.MetadataIndexing = true
	mkStriped := func(engine string, shards int, c core.Compliance, policy audit.Pipeline, kvstripes int) func(t *testing.T, sim *clock.Sim) core.DB {
		return func(t *testing.T, sim *clock.Sim) core.DB {
			t.Helper()
			db, err := Open(core.Options{
				Engine: engine, Shards: shards, Dir: t.TempDir(), Compliance: c, Clock: sim, DisableDaemons: true, AuditPolicy: policy, KVStripes: kvstripes,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			return db
		}
	}
	mk := func(engine string, shards int, c core.Compliance, policy audit.Pipeline) func(t *testing.T, sim *clock.Sim) core.DB {
		return mkStriped(engine, shards, c, policy, 0)
	}
	return []variant{
		{"redis", func(t *testing.T, sim *clock.Sim) core.DB {
			t.Helper()
			db, err := core.Open(core.Options{
				Engine: "redis", Dir: t.TempDir(), Compliance: comp, Clock: sim, DisableDaemons: true,
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			return db
		}},
		{"postgres", func(t *testing.T, sim *clock.Sim) core.DB {
			t.Helper()
			db, err := core.Open(core.Options{
				Engine: "postgres", Dir: t.TempDir(), Compliance: idx, Clock: sim, DisableDaemons: true,
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			return db
		}},
		{"redis-indexed", func(t *testing.T, sim *clock.Sim) core.DB {
			t.Helper()
			db, err := core.Open(core.Options{
				Engine: "redis", Dir: t.TempDir(), Compliance: idx, Clock: sim, DisableDaemons: true,
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			return db
		}},
		{"redis-1shard", mk("redis", 1, comp, audit.PipeSync)},
		{"redis-4shard", mk("redis", 4, comp, audit.PipeSync)},
		{"redis-4shard-indexed", mk("redis", 4, idx, audit.PipeSync)},
		{"postgres-3shard", mk("postgres", 3, comp, audit.PipeSync)},
		// The audit pipeline must never change observable behavior: the
		// same legs under batched and async audit stay byte-identical.
		// The kvstore concurrency profile must never change observable
		// behavior: lock-striped legs (with their staged group-commit AOF)
		// stay byte-identical to the single-mutex baseline.
		{"redis-striped", func(t *testing.T, sim *clock.Sim) core.DB {
			t.Helper()
			db, err := core.Open(core.Options{
				Engine: "redis", Dir: t.TempDir(), Compliance: comp, Clock: sim, DisableDaemons: true,
				KVStripes: 8,
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			return db
		}},
		{"redis-striped-indexed", func(t *testing.T, sim *clock.Sim) core.DB {
			t.Helper()
			db, err := core.Open(core.Options{
				Engine: "redis", Dir: t.TempDir(), Compliance: idx, Clock: sim, DisableDaemons: true,
				KVStripes: 8,
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			return db
		}},
		{"redis-4shard-striped", mkStriped("redis", 4, comp, audit.PipeSync, 4)},
		{"redis-batched-audit", mk("redis", 1, comp, audit.PipeBatched)},
		{"redis-async-audit", mk("redis", 1, comp, audit.PipeAsync)},
		{"redis-4shard-async-audit", mk("redis", 4, comp, audit.PipeAsync)},
		{"postgres-async-audit", mk("postgres", 1, comp, audit.PipeAsync)},
		{"postgres-3shard-batched-audit", mk("postgres", 3, comp, audit.PipeBatched)},
	}
}

func TestDifferentialAcrossEnginesAndShardCounts(t *testing.T) {
	cfg := core.Config{Records: 240, Operations: 10, Threads: 2, Seed: 42}.WithDefaults()
	var wantName string
	var want []string
	for _, v := range diffVariants() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			sim := clock.NewSim(time.Unix(1_500_000_000, 0))
			db := v.open(t, sim)
			ds, _, err := core.Load(db, cfg, sim)
			if err != nil {
				t.Fatal(err)
			}
			got := difftest.Transcript(t, db, ds, sim)
			if want == nil {
				wantName, want = v.name, got
				return
			}
			difftest.AssertEqual(t, wantName, want, v.name, got)
		})
	}
}

// TestShardCountInvariantUnderExpiry pins the 1-shard-vs-N-shard
// equivalence through the TTL path within one engine model: after the
// clock passes the short-TTL horizon, scans hide the same records and
// DELETE-BY-TTL purges the same count regardless of shard count.
func TestShardCountInvariantUnderExpiry(t *testing.T) {
	cfg := core.Config{
		Records: 200, Operations: 10, Threads: 1, Seed: 9,
		ShortTTLFraction: 0.25, ShortTTL: time.Minute,
	}.WithDefaults()
	comp := core.Compliance{Logging: true, AccessControl: true, Strict: true, TimelyDeletion: true}
	run := func(engine string, shards int) (visible int, purged int) {
		sim := clock.NewSim(time.Unix(1_500_000_000, 0))
		db, err := Open(core.Options{
			Engine: engine, Shards: shards, Dir: t.TempDir(), Compliance: comp, Clock: sim, DisableDaemons: true, AuditPolicy: audit.PipeAsync,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		ds, _, err := core.Load(db, cfg, sim)
		if err != nil {
			t.Fatal(err)
		}
		sim.Advance(2 * time.Minute)
		recs, err := db.ReadData(core.ControllerActor(), gdpr.Selector{Attr: gdpr.AttrSource, Value: ds.SourceName(0)})
		if err != nil {
			t.Fatal(err)
		}
		n, err := db.DeleteRecord(core.ControllerActor(), gdpr.ByExpiredAt(sim.Now()))
		if err != nil {
			t.Fatal(err)
		}
		return len(recs), n
	}
	for _, engine := range []string{"redis", "postgres"} {
		v1, p1 := run(engine, 1)
		v4, p4 := run(engine, 4)
		if v1 != v4 || p1 != p4 {
			t.Fatalf("%s: 1-shard (visible=%d purged=%d) != 4-shard (visible=%d purged=%d)",
				engine, v1, p1, v4, p4)
		}
		if p1 == 0 {
			t.Fatalf("%s: TTL purge deleted nothing — test is vacuous", engine)
		}
		t.Logf("%s: visible=%d purged=%d at both shard counts", engine, v1, p1)
	}
}
