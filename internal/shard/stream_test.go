package shard

import (
	"io"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/gdpr"
)

// Streaming legs of the shard differential matrix: the scatter-gather
// merge cursor (per-shard streams, bounded per-shard buffers) must
// reproduce the materialized scatter-gather Select exactly — the same
// transcript, byte for byte — for both engine models, at chunk sizes
// that force merge boundaries inside every multi-shard result.

func TestShardStreamingTranscriptMatchesMaterialized(t *testing.T) {
	cfg := core.Config{Records: 240, Operations: 10, Threads: 2, Seed: 42}.WithDefaults()
	comp := core.Compliance{Logging: true, AccessControl: true, Strict: true, TimelyDeletion: true}
	idx := comp
	idx.MetadataIndexing = true
	for _, v := range []struct {
		name      string
		engine    string
		shards    int
		comp      core.Compliance
		kvstripes int
	}{
		{"redis-4shard", "redis", 4, comp, 0},
		{"redis-4shard-indexed", "redis", 4, idx, 0},
		{"redis-4shard-striped-indexed", "redis", 4, idx, 4},
		{"postgres-3shard", "postgres", 3, comp, 0},
	} {
		v := v
		t.Run(v.name, func(t *testing.T) {
			run := func(chunk int, streamed bool) []string {
				sim := clock.NewSim(time.Unix(1_500_000_000, 0))
				db, err := Open(core.Options{
					Engine: v.engine, Shards: v.shards, Dir: t.TempDir(), Compliance: v.comp, Clock: sim, DisableDaemons: true, AuditPolicy: audit.PipeSync, KVStripes: v.kvstripes,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { db.Close() })
				ds, _, err := core.Load(db, cfg, sim)
				if err != nil {
					t.Fatal(err)
				}
				under := core.DB(db)
				if streamed {
					under = difftest.StreamDB{DB: db, Chunk: chunk}
				}
				return difftest.Transcript(t, under, ds, sim)
			}
			want := run(0, false)
			for _, chunk := range []int{1, 3, 0, core.WholeChunk} {
				got := run(chunk, true)
				difftest.AssertEqual(t, "materialized", want, "streamed", got)
			}
		})
	}
}

// TestShardStreamCloseMidStream pins the merge cursor's lifetime
// contract: Close mid-stream cancels the per-shard workers and returns
// only after they exit, and the router stays fully usable.
func TestShardStreamCloseMidStream(t *testing.T) {
	cfg := core.Config{Records: 400, Seed: 8}.WithDefaults()
	sim := clock.NewSim(time.Unix(1_500_000_000, 0))
	comp := core.Compliance{AccessControl: true, Strict: true, MetadataIndexing: true}
	db, err := Open(core.Options{
		Engine: "redis", Shards: 4, Dir: t.TempDir(), Compliance: comp, Clock: sim, DisableDaemons: true, AuditPolicy: audit.PipeSync, KVStripes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ds, _, err := core.Load(db, cfg, sim)
	if err != nil {
		t.Fatal(err)
	}
	sr, ok := db.(core.StreamReader)
	if !ok {
		t.Fatalf("%T does not implement StreamReader", db)
	}
	reg := core.RegulatorActor()
	sel := gdpr.ByUser(ds.UserName(0))
	for i := 0; i < 8; i++ {
		cur, err := sr.ReadMetadataStream(reg, sel, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cur.Next(); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// A full drain after many abandoned streams still sees everything.
	cur, err := sr.ReadMetadataStream(reg, sel, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Drain(cur)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.ReadMetadata(reg, sel)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("drain after aborted streams saw %d records, want %d (>0)", len(got), len(want))
	}
}
