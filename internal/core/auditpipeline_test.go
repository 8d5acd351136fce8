package core

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/gdpr"
)

// These tests pin the middleware-level guarantees of the audit pipeline
// rebuild: GET-SYSTEM-LOGS answers from disk + memory, so its results
// are independent of the audit log's MemoryCap, survive a close/reopen
// of the trail, and are identical under every append-pipeline mode.

// auditScript runs a fixed single-threaded §3.3 op sequence so the audit
// trail is deterministic (same Seqs, same frozen-clock Times) across
// configurations.
func auditScript(t *testing.T, db DB, ds *Dataset, sim *clock.Sim) {
	t.Helper()
	for i := 0; i < 60; i++ {
		sim.Advance(time.Second)
		u := i % ds.Users
		if _, err := db.ReadData(ds.CustomerActor(u), gdpr.ByUser(ds.UserName(u))); err != nil {
			t.Fatal(err)
		}
		if _, err := db.ReadMetadata(RegulatorActor(), gdpr.ByUser(ds.UserName(u))); err != nil {
			t.Fatal(err)
		}
		if _, err := db.UpdateData(ds.CustomerActor(ds.OwnerOfKey(i)), ds.KeyAt(i),
			fmt.Sprintf("%0*d", ds.Cfg.DataSize, i)); err != nil {
			t.Fatal(err)
		}
	}
}

// trailFor loads a Redis-model engine wrapped with the given audit log
// configuration, runs the deterministic script, and returns the full
// GET-SYSTEM-LOGS answer.
func trailFor(t *testing.T, policy audit.Pipeline, memCap int) (entries []audit.Entry, auditPath string, reopen func() []audit.Entry) {
	t.Helper()
	dir := t.TempDir()
	sim := clock.NewSim(time.Time{})
	epoch := sim.Now()
	comp := Compliance{Logging: true, AccessControl: true, Strict: true}
	auditPath = filepath.Join(dir, "trail.log")
	log, err := audit.Open(audit.Config{
		Path: auditPath, Clock: sim, Policy: audit.SyncEverySec,
		Pipeline: policy, MemoryCap: memCap, SegmentBytes: 8 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewRedisEngine(RedisConfig{
		Dir: dir, Compliance: comp, Clock: sim, DisableDaemons: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Wrap(eng, WrapConfig{Compliance: comp, Clock: sim, Audit: log})
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })

	cfg := Config{Records: 120, Operations: 10, Threads: 1, Seed: 11}.WithDefaults()
	ds, _, err := Load(db, cfg, sim)
	if err != nil {
		t.Fatal(err)
	}
	auditScript(t, db, ds, sim)
	entries, err = db.GetSystemLogs(RegulatorActor(), epoch, sim.Now())
	if err != nil {
		t.Fatal(err)
	}
	reopen = func() []audit.Entry {
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := audit.Open(audit.Config{Path: auditPath, Clock: sim, Pipeline: policy, MemoryCap: memCap})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { re.Close() })
		out, err := re.Range(epoch, sim.Now())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	return entries, auditPath, reopen
}

func assertEntriesEqual(t *testing.T, what string, got, want []audit.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestGetSystemLogsUnaffectedByMemoryCapEviction is the acceptance pin:
// a regulator's GET-SYSTEM-LOGS answer must be byte-for-byte identical
// whether or not MemoryCap eviction discarded the in-memory tail — the
// evicted history is served from the segment store. The old
// implementation silently lost everything past the cap.
func TestGetSystemLogsUnaffectedByMemoryCapEviction(t *testing.T) {
	// Load(120 records) + 180 script ops ≈ 300+ audit entries: a cap of
	// 50 forces multiple evictions.
	uncapped, _, _ := trailFor(t, audit.PipeBatched, 1<<20)
	capped, _, _ := trailFor(t, audit.PipeBatched, 50)
	if len(uncapped) < 250 {
		t.Fatalf("trail has only %d entries — eviction never triggered, test is vacuous", len(uncapped))
	}
	assertEntriesEqual(t, "capped vs uncapped GET-SYSTEM-LOGS", capped, uncapped)
}

// TestGetSystemLogsSurvivesReopen pins crash-replay over segments: the
// trail reopened from disk answers the same Range as the live log did.
func TestGetSystemLogsSurvivesReopen(t *testing.T) {
	live, _, reopen := trailFor(t, audit.PipeAsync, 50)
	replayed := reopen()
	// The live answer includes one extra trailing entry: the audit
	// record of the GET-SYSTEM-LOGS call itself is appended after the
	// range is taken, so it lands outside `live` but inside the reopened
	// trail.
	if len(replayed) != len(live)+1 {
		t.Fatalf("reopened trail has %d entries, want %d+1", len(replayed), len(live))
	}
	assertEntriesEqual(t, "reopened prefix", replayed[:len(live)], live)
	if last := replayed[len(replayed)-1]; last.Op != "GET-SYSTEM-LOGS" {
		t.Fatalf("trailing entry = %+v, want the GET-SYSTEM-LOGS self-audit", last)
	}
}

// TestGetSystemLogsIdenticalAcrossPipelines pins that sync, batched and
// async audit produce byte-identical compliance trails for the same
// operation sequence — the pipeline changes cost, never evidence.
func TestGetSystemLogsIdenticalAcrossPipelines(t *testing.T) {
	want, _, _ := trailFor(t, audit.PipeSync, 1<<20)
	for _, policy := range []audit.Pipeline{audit.PipeBatched, audit.PipeAsync} {
		got, _, _ := trailFor(t, policy, 1<<20)
		assertEntriesEqual(t, policy.String()+" vs sync trail", got, want)
	}
}

// TestAuditStatsExposed pins the middleware's pipeline accounting (the
// gdprbench -json audit block's source).
func TestAuditStatsExposed(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	c := openRedis(t, sim, Full())
	cfg := Config{Records: 50, Operations: 10, Threads: 1, Seed: 3}.WithDefaults()
	if _, _, err := Load(c, cfg, sim); err != nil {
		t.Fatal(err)
	}
	st, ok := c.(*middleware).AuditStats()
	if !ok {
		t.Fatal("AuditStats reported logging off under Full compliance")
	}
	if st.Appended < 50 || st.Bytes <= 0 || st.Batches <= 0 || st.Segments < 1 {
		t.Fatalf("implausible audit stats: %+v", st)
	}
	// Logging off: no stats.
	noLog := openRedis(t, sim, Compliance{AccessControl: true})
	if _, ok := noLog.(*middleware).AuditStats(); ok {
		t.Fatal("AuditStats reported logging on without Logging")
	}
}
