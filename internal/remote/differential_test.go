package remote_test

import (
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/gdpr"
	"repro/internal/remote"
	"repro/internal/server"
)

// These tests are the acceptance bar for the network service layer: the
// stack behind a localhost-TCP connection must be observably identical
// to the embedded stack. Two forms:
//
//   - the difftest transcript (every §3.3 query family) must be
//     byte-identical embedded vs remote, for both engine models;
//   - the full validate-oracle pass (core.Validate, all four Table 2a
//     workloads) must produce identical correctness reports.
//
// Both legs share one simulated clock epoch, so the only variable is
// the service boundary itself.

var diffComp = core.Compliance{Logging: true, AccessControl: true, Strict: true, TimelyDeletion: true}

// openEmbeddedPolicy builds the embedded client for one engine model on
// sim with the given audit append pipeline.
func openEmbeddedPolicy(t *testing.T, engine string, sim *clock.Sim, policy audit.Pipeline) core.DB {
	t.Helper()
	var db core.DB
	var err error
	switch engine {
	case "redis":
		db, err = core.Open(core.Options{
			Engine: "redis", Dir: t.TempDir(), Compliance: diffComp, Clock: sim, DisableDaemons: true,
			AuditPolicy: policy,
		}, nil)
	case "redis-striped":
		// The lock-striped kvstore profile with its staged group-commit
		// AOF; must be observably identical to "redis" over the wire.
		db, err = core.Open(core.Options{
			Engine: "redis", Dir: t.TempDir(), Compliance: diffComp, Clock: sim, DisableDaemons: true,
			AuditPolicy: policy, KVStripes: 4,
		}, nil)
	case "postgres":
		db, err = core.Open(core.Options{
			Engine: "postgres", Dir: t.TempDir(), Compliance: diffComp, Clock: sim, DisableDaemons: true,
			AuditPolicy: policy,
		}, nil)
	default:
		t.Fatalf("unknown engine %q", engine)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func openEmbedded(t *testing.T, engine string, sim *clock.Sim) core.DB {
	t.Helper()
	return openEmbeddedPolicy(t, engine, sim, audit.PipeSync)
}

// openRemotePolicy serves a fresh embedded DB over localhost TCP and
// returns a connected client; the server announces the audit policy.
func openRemotePolicy(t *testing.T, engine string, sim *clock.Sim, policy audit.Pipeline) core.DB {
	t.Helper()
	hostDB := openEmbeddedPolicy(t, engine, sim, policy)
	srv := server.New(hostDB, server.Config{AuditPolicy: policy.String()})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := remote.Dial(remote.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	if got := cli.ServerAuditPolicy(); got != policy.String() {
		t.Fatalf("handshake announced audit policy %q, want %q", got, policy)
	}
	return cli
}

func openRemote(t *testing.T, engine string, sim *clock.Sim) core.DB {
	t.Helper()
	return openRemotePolicy(t, engine, sim, audit.PipeSync)
}

// TestRemoteTranscriptByteIdenticalToEmbedded replays the differential
// mini-workload embedded and over localhost TCP; the transcripts must
// be byte-identical for both engine models under every audit pipeline
// mode (the service boundary and the audit rebuild must both be
// observably free).
func TestRemoteTranscriptByteIdenticalToEmbedded(t *testing.T) {
	cfg := core.Config{Records: 240, Operations: 10, Threads: 2, Seed: 42}.WithDefaults()
	for _, engine := range []string{"redis", "redis-striped", "postgres"} {
		for _, policy := range []audit.Pipeline{audit.PipeSync, audit.PipeBatched, audit.PipeAsync} {
			t.Run(engine+"/"+policy.String(), func(t *testing.T) {
				run := func(open func(*testing.T, string, *clock.Sim, audit.Pipeline) core.DB) []string {
					sim := clock.NewSim(time.Unix(1_500_000_000, 0))
					db := open(t, engine, sim, policy)
					ds, _, err := core.Load(db, cfg, sim)
					if err != nil {
						t.Fatal(err)
					}
					return difftest.Transcript(t, db, ds, sim)
				}
				want := run(openEmbeddedPolicy)
				got := run(openRemotePolicy)
				difftest.AssertEqual(t, "embedded", want, "remote", got)
			})
		}
	}
}

// TestRemoteValidateOracleMatchesEmbedded runs the full single-threaded
// validate-oracle pass for every Table 2a workload, embedded and over
// the wire, and requires identical correctness reports.
func TestRemoteValidateOracleMatchesEmbedded(t *testing.T) {
	cfg := core.Config{Records: 240, Operations: 40, Threads: 2, Seed: 7}.WithDefaults()
	for _, engine := range []string{"redis", "redis-striped", "postgres"} {
		for _, name := range core.WorkloadNames() {
			t.Run(engine+"/"+string(name), func(t *testing.T) {
				validate := func(open func(*testing.T, string, *clock.Sim) core.DB) core.CorrectnessReport {
					sim := clock.NewSim(time.Unix(1_500_000_000, 0))
					db := open(t, engine, sim)
					ds, _, err := core.Load(db, cfg, sim)
					if err != nil {
						t.Fatal(err)
					}
					rep, err := core.Validate(db, ds, name, sim, diffComp.AccessControl)
					if err != nil {
						t.Fatal(err)
					}
					return rep
				}
				emb := validate(openEmbedded)
				rem := validate(openRemote)
				if emb.Total != rem.Total || emb.Matched != rem.Matched {
					t.Fatalf("reports diverged: embedded %d/%d, remote %d/%d\nembedded mismatches: %v\nremote mismatches: %v",
						emb.Matched, emb.Total, rem.Matched, rem.Total, emb.Mismatches, rem.Mismatches)
				}
				if emb.Score() != 100 {
					t.Fatalf("embedded oracle score %.2f%% — harness regression: %v", emb.Score(), emb.Mismatches)
				}
			})
		}
	}
}

// TestRemoteBatchLoadMatchesEmbeddedLoad pins that the batched wire
// load (CreateBatch frames) leaves the datastore in the same state as
// the embedded load path.
func TestRemoteBatchLoadMatchesEmbeddedLoad(t *testing.T) {
	cfg := core.Config{Records: 300, Operations: 10, Threads: 4, Seed: 3}.WithDefaults()
	count := func(open func(*testing.T, string, *clock.Sim) core.DB) (records int, space core.SpaceUsage) {
		sim := clock.NewSim(time.Unix(1_500_000_000, 0))
		db := open(t, "redis", sim)
		ds, _, err := core.Load(db, cfg, sim)
		if err != nil {
			t.Fatal(err)
		}
		// Count via per-user reads (covers every record exactly once).
		total := 0
		for u := 0; u < ds.Users; u++ {
			recs, err := db.ReadData(ds.CustomerActor(u), gdpr.ByUser(ds.UserName(u)))
			if err != nil {
				t.Fatal(err)
			}
			total += len(recs)
		}
		su, err := db.SpaceUsage()
		if err != nil {
			t.Fatal(err)
		}
		return total, su
	}
	embN, embSpace := count(openEmbedded)
	remN, remSpace := count(openRemote)
	if embN != remN || embN != cfg.Records {
		t.Fatalf("record counts diverged: embedded %d, remote %d, want %d", embN, remN, cfg.Records)
	}
	if embSpace != remSpace {
		t.Fatalf("space usage diverged: embedded %+v, remote %+v", embSpace, remSpace)
	}
}
