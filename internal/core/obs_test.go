package core

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/gdpr"
	"repro/internal/obs"
)

// These tests pin the middleware's observability contract: every op
// increments its always-on counter, an armed slowlog threshold traces
// every op with phase attribution, denied ops count as errors, and the
// audit pipeline's counters surface through the pull-time collector.

// obsWrappedDB builds a Redis-model engine wrapped with a private
// registry whose slowlog threshold forces every-op tracing.
func obsWrappedDB(t *testing.T) (DB, *Dataset, *obs.Registry) {
	t.Helper()
	dir := t.TempDir()
	reg := obs.NewRegistry(nil)
	reg.SetSlowlogThreshold(time.Nanosecond)
	comp := Compliance{Logging: true, AccessControl: true, Strict: true, EncryptInTransit: true}
	eng, err := NewRedisEngine(RedisConfig{
		Dir: dir, Compliance: comp, DisableDaemons: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Wrap(eng, WrapConfig{
		Compliance:  comp,
		AuditPath:   filepath.Join(dir, "trail.log"),
		TransitKey:  []byte("0123456789abcdef0123456789abcdef"),
		Obs:         reg,
		AuditPolicy: 0, // sync: counters are current without a flush wait
	})
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })

	cfg := Config{Records: 60, Operations: 10, Threads: 1, Seed: 7}.WithDefaults()
	ds, _, err := Load(db, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return db, ds, reg
}

func TestMiddlewareOpCountersAndSpans(t *testing.T) {
	db, ds, reg := obsWrappedDB(t)

	const reads = 5
	for i := 0; i < reads; i++ {
		u := i % ds.Users
		if _, err := db.ReadData(ds.CustomerActor(u), gdpr.ByUser(ds.UserName(u))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.UpdateData(ds.CustomerActor(ds.OwnerOfKey(0)), ds.KeyAt(0), "fresh-payload"); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot(true)
	if got := snap.Counter(`gdpr_ops_total{op="READ-DATA"}`); got != reads {
		t.Fatalf("READ-DATA counter = %d, want %d", got, reads)
	}
	if got := snap.Counter(`gdpr_ops_total{op="UPDATE-DATA"}`); got != 1 {
		t.Fatalf("UPDATE-DATA counter = %d, want 1", got)
	}
	// The armed threshold forces tracing, so latency histograms track
	// the counters exactly.
	if got := snap.Hists[`gdpr_op_latency_ns{op="READ-DATA"}`].Count; got != reads {
		t.Fatalf("READ-DATA latency count = %d, want %d", got, reads)
	}

	// Slowlog: every op recorded (threshold 1ns), newest first, with
	// phase attribution that adds up to the total.
	var read *obs.SlowEntry
	for i := range snap.Slowlog {
		e := &snap.Slowlog[i]
		if e.Op == "READ-DATA" {
			read = e
			break
		}
	}
	if read == nil {
		t.Fatalf("no READ-DATA slowlog entry in %d entries", len(snap.Slowlog))
	}
	if read.Role != "customer" || read.KeyClass != "USR" {
		t.Fatalf("entry identity = role %q, keyClass %q; want customer/USR", read.Role, read.KeyClass)
	}
	if read.Err {
		t.Fatal("successful read marked as error")
	}
	if read.Total <= 0 {
		t.Fatalf("total = %v, want > 0", read.Total)
	}
	var phaseSum time.Duration
	for _, d := range read.Phases {
		if d < 0 {
			t.Fatalf("negative phase duration: %v", read.Phases)
		}
		phaseSum += d
	}
	if phaseSum > read.Total {
		t.Fatalf("phase sum %v exceeds total %v", phaseSum, read.Total)
	}
	if read.Phases[obs.PhaseEngine] <= 0 {
		t.Fatalf("engine phase not attributed: %v", read.Phases)
	}
	// With in-transit encryption on, the transit record layer is paid
	// and attributed around the engine phase.
	if read.Phases[obs.PhaseTransit] <= 0 {
		t.Fatalf("transit phase not attributed: %v", read.Phases)
	}

	// The audit pipeline's counters surface through the collector.
	if got := snap.Counter("audit_appended_total"); got <= 0 {
		t.Fatalf("audit_appended_total = %d, want > 0", got)
	}
}

func TestMiddlewareErrorCounter(t *testing.T) {
	db, ds, reg := obsWrappedDB(t)

	// Figure 1's matrix denies customers the audit trail.
	if _, err := db.GetSystemLogs(ds.CustomerActor(0), time.Time{}, time.Now()); err == nil {
		t.Fatal("customer GET-SYSTEM-LOGS unexpectedly allowed")
	}

	snap := reg.Snapshot(true)
	if got := snap.Counter(`gdpr_op_errors_total{op="GET-SYSTEM-LOGS"}`); got != 1 {
		t.Fatalf("GET-SYSTEM-LOGS error counter = %d, want 1", got)
	}
	// The denied op is still traced and its slowlog entry carries the
	// error flag.
	for _, e := range snap.Slowlog {
		if e.Op == "GET-SYSTEM-LOGS" && e.Err {
			return
		}
	}
	t.Fatal("no errored GET-SYSTEM-LOGS slowlog entry")
}
