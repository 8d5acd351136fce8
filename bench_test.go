package gdprbench

// Go benchmarks for the paper's evaluation and the design choices
// DESIGN.md calls out. BenchmarkExperiments regenerates every table and
// figure through the experiment harness; the others time one op shape
// each, so
//
//	go test -run '^$' -bench=. -benchmem
//
// regenerates the paper's artifacts and the ablations.

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/acl"
	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/gdpr"
	"repro/internal/kvstore"
	"repro/internal/obs"
	"repro/internal/relstore"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wal"
	"repro/internal/wire"
)

// BenchmarkExperiments runs each experiment of the paper's evaluation at
// small scale, one sub-benchmark per ID (T1, T2a, T3, F3a … F13), and
// logs its table; -bench 'Experiments/F5a' picks one.
func BenchmarkExperiments(b *testing.B) {
	for _, id := range Experiments() {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := RunExperiment(id, ScaleSmall)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("\n%s", res)
				}
			}
		})
	}
}

// closedLoop runs op(i) for every i in [0, b.N) from threads workers,
// each taking the next i as soon as its previous op returns, and reports
// ops/s. The first op error fails the benchmark and stops its worker.
func closedLoop(b *testing.B, threads int, op func(i int) error) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= b.N {
					return
				}
				if err := op(i); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "ops/s")
}

// openStore opens o and closes it when the benchmark ends.
func openStore(b *testing.B, o Options) DB {
	b.Helper()
	db, err := OpenEngine(o)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

// overLoopback serves host on a loopback port and returns a remote
// client of it dialled with cfg; both close when the benchmark ends.
func overLoopback(b *testing.B, host DB, cfg remote.Config) DB {
	b.Helper()
	srv := server.New(host, server.Config{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	cfg.Addr = addr
	cli, err := remote.Dial(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cli.Close() })
	return cli
}

// load loads cfg into db.
func load(b *testing.B, db DB, cfg Config) *Dataset {
	b.Helper()
	ds, _, err := core.Load(db, cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// byKey precomputes, for every record, its owner and a BY-KEY selector,
// so timed loops measure the store, not fmt.
func byKey(ds *Dataset) ([]Actor, []Selector) {
	actors := make([]Actor, ds.Cfg.Records)
	sels := make([]Selector, ds.Cfg.Records)
	for i := range actors {
		actors[i] = CustomerActor(ds.UserAt(i))
		sels[i] = ByKey(ds.KeyAt(i))
	}
	return actors, sels
}

// byUser precomputes, for every data subject, the subject and a BY-USR
// selector over their records.
func byUser(ds *Dataset) ([]Actor, []Selector) {
	actors := make([]Actor, ds.Users)
	sels := make([]Selector, ds.Users)
	for u := range actors {
		actors[u] = CustomerActor(ds.UserName(u))
		sels[u] = ByUser(ds.UserName(u))
	}
	return actors, sels
}

// pointRead reads sel as a and checks it matched exactly one record.
func pointRead(db DB, a Actor, sel Selector) error {
	recs, err := db.ReadData(a, sel)
	if err == nil && len(recs) != 1 {
		err = fmt.Errorf("point read returned %d records", len(recs))
	}
	return err
}

// scanRead reads sel as a and checks it matched something.
func scanRead(db DB, a Actor, sel Selector) error {
	recs, err := db.ReadData(a, sel)
	if err == nil && len(recs) == 0 {
		err = fmt.Errorf("attribute read returned nothing")
	}
	return err
}

// ---------------------------------------------------------------------------
// Audit pipeline: sync vs batched vs async appends on the §3.3 hot path

// benchAuditOps loads one engine model with logging in its strict
// durable configuration (audit fsync per commit) and hammers it with
// the audited customer point-op shape — 3 reads to 1 rectification —
// from the given number of client threads. ops/s is reported so the
// three pipeline legs compare directly: the gap to `sync` is the
// serialized encode+write+fsync cost the pipeline removes from the
// callers' critical path.
func benchAuditOps(b *testing.B, engine string, policy AuditPolicy, threads int) {
	comp := core.Compliance{AccessControl: true, Strict: true, Logging: true}
	db := openStore(b, Options{
		Engine: engine, Dir: b.TempDir(), Compliance: comp, DisableDaemons: true,
		AuditPolicy: policy, AuditSyncAlways: true,
	})
	ds := load(b, db, core.Config{Records: 2_000, Threads: 8, Seed: 1})
	actors, sels := byKey(ds)
	closedLoop(b, threads, func(i int) error {
		k := (i * 31) % ds.Cfg.Records
		if i%4 == 3 {
			_, err := db.UpdateData(actors[k], ds.KeyAt(k), "rectified!!")
			return err
		}
		_, err := db.ReadData(actors[k], sels[k])
		return err
	})
}

// BenchmarkAuditPipeline sweeps the audit append pipeline (sync vs
// batched vs async) × engine model × client threads on the audited
// point-op shape, with the trail in its strict durable configuration.
// `sync` is the old audit.Log profile: every operation encodes, writes
// and fsyncs inside its own critical section, serializing all threads
// behind one lock. `batched` keeps the durable wait but group-commits —
// concurrent committers share one fsync. `async` removes the wait;
// backpressure is the only blocking. The acceptance bar is batched and
// async beating sync on ops/s at >= 4 threads (DESIGN.md §4 records
// reference numbers).
func BenchmarkAuditPipeline(b *testing.B) {
	for _, engine := range []string{"redis", "postgres"} {
		for _, policy := range []AuditPolicy{AuditSync, AuditBatched, AuditAsync} {
			for _, threads := range []int{1, 4, 8} {
				b.Run(fmt.Sprintf("%s/%s/threads=%d", engine, policy, threads), func(b *testing.B) {
					benchAuditOps(b, engine, policy, threads)
				})
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Sharding: attribute-scan throughput vs shard count

// benchShardedScan loads records into a sharded engine and hammers it
// with BY-USR attribute reads — the O(n) scan shape that dominates GDPR
// metadata queries on the Redis model — from the given number of client
// threads. Every query scatter-gathers all shards, so each shard scans
// 1/N of the data in parallel; ops/s is reported for cross-leg
// comparison. Compliance is ACL+strict only, isolating scan parallelism
// from encryption and audit I/O.
func benchShardedScan(b *testing.B, engine string, shards, threads int) {
	comp := core.Compliance{AccessControl: true, Strict: true}
	db, err := shard.Open(core.Options{
		Engine: engine, Shards: shards, Compliance: comp, DisableDaemons: true, AuditPolicy: AuditSync,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	ds := load(b, db, core.Config{Records: 4_000, Threads: threads, Seed: 1})
	actors, sels := byUser(ds)
	closedLoop(b, threads, func(i int) error {
		u := (i * 31) % ds.Users
		return scanRead(db, actors[u], sels[u])
	})
}

// BenchmarkSharding sweeps shard count × engine model × client threads on
// the attribute-scan workload. On the Redis model every BY-USR read scans
// the whole keyspace, so scan throughput is the axis §6.3 shows degrading
// with data volume — sharding splits each scan N ways and runs the parts
// in parallel, making throughput recover with shard count once client
// concurrency (≥4 threads) and cores can feed the shards.
func BenchmarkSharding(b *testing.B) {
	for _, engine := range []string{"redis", "postgres"} {
		for _, shards := range []int{1, 2, 4, 8} {
			for _, threads := range []int{4, 8} {
				b.Run(fmt.Sprintf("%s/shards=%d/threads=%d", engine, shards, threads), func(b *testing.B) {
					benchShardedScan(b, engine, shards, threads)
				})
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Network service layer: embedded vs localhost TCP

// benchNetworkPointReads hammers one engine model with customer point
// reads (READ-DATA-BY-KEY, the scatter-free shape where per-operation
// service cost dominates), either embedded or through the wire protocol
// over localhost TCP. ops/s is reported so the two transport legs
// compare directly; the gap is the per-operation cost of framing,
// socket hops and the role-bound session layer.
func benchNetworkPointReads(b *testing.B, engine string, overTCP bool, threads int) {
	comp := core.Compliance{AccessControl: true, Strict: true}
	db := openStore(b, Options{Engine: engine, Shards: 1, Compliance: comp, DisableDaemons: true, AuditPolicy: AuditSync})
	if overTCP {
		db = overLoopback(b, db, remote.Config{ConnsPerRole: max(2, threads/2)})
	}
	ds := load(b, db, core.Config{Records: 2_000, Threads: 8, Seed: 1})
	actors, sels := byKey(ds)
	closedLoop(b, threads, func(i int) error {
		k := (i * 31) % ds.Cfg.Records
		return pointRead(db, actors[k], sels[k])
	})
}

// BenchmarkNetworkOverhead sweeps transport (embedded vs localhost TCP)
// × engine model × client threads on the point-read shape. The TCP legs
// run the full network subsystem — pipelined wire protocol, role-bound
// sessions, server-side compliance — so the embedded/TCP gap is the
// paper's client/server round-trip cost reproduced in-tree.
func BenchmarkNetworkOverhead(b *testing.B) {
	for _, engine := range []string{"redis", "postgres"} {
		for _, leg := range []struct {
			name    string
			overTCP bool
		}{
			{"embedded", false},
			{"tcp", true},
		} {
			for _, threads := range []int{1, 4} {
				b.Run(fmt.Sprintf("%s/%s/threads=%d", engine, leg.name, threads), func(b *testing.B) {
					benchNetworkPointReads(b, engine, leg.overTCP, threads)
				})
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Metadata indexing: indexed attribute reads vs the scan baseline

// benchMetadataReads loads records into one engine model and hammers it
// with BY-USR attribute reads — O(n) scans with indexing off, O(result)
// inverted-index (redis) or secondary-B-tree (postgres) probes with it
// on. ops/s is reported so the indexed and scan legs compare directly.
func benchMetadataReads(b *testing.B, engine string, records int, indexed bool) {
	comp := core.Compliance{AccessControl: true, Strict: true, MetadataIndexing: indexed}
	db := openStore(b, Options{Engine: engine, Shards: 1, Compliance: comp, DisableDaemons: true, AuditPolicy: AuditSync})
	ds := load(b, db, core.Config{Records: records, Seed: 1})
	actors, sels := byUser(ds)
	closedLoop(b, 1, func(i int) error {
		u := (i * 31) % ds.Users
		return scanRead(db, actors[u], sels[u])
	})
}

// BenchmarkMetadataIndexing sweeps indexed vs scan × record count × both
// engine models on the BY-USR attribute-read shape. The scan legs degrade
// linearly with records (the §6.3 axis); the indexed legs are O(result)
// and should hold flat — at 10k+ records the indexed Redis leg must beat
// its scan baseline by orders of magnitude, which is the acceptance bar
// for the metadata-index layer.
func BenchmarkMetadataIndexing(b *testing.B) {
	for _, engine := range []string{"redis", "postgres"} {
		for _, records := range []int{1_000, 10_000} {
			for _, leg := range []struct {
				name    string
				indexed bool
			}{
				{"scan", false},
				{"indexed", true},
			} {
				b.Run(fmt.Sprintf("%s/records=%d/%s", engine, records, leg.name), func(b *testing.B) {
					benchMetadataReads(b, engine, records, leg.indexed)
				})
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Relstore locking: table locks + snapshot reads across thread counts

// benchRelstoreMix runs a read-heavy (Processor-style) operation mix —
// 55% indexed selector reads (the READ-DATA-BY-attribute shape that
// dominates the processor workload), 40% point reads by key, 5%
// read-modify-write updates — against a 10k-row table, spread over the
// given number of worker goroutines. Keys and predicates are precomputed
// so the timed loop measures the engine, not fmt. It reports ops/sec.
func benchRelstoreMix(b *testing.B, durable bool, threads int) {
	b.Helper()
	cfg := relstore.Config{}
	if durable {
		cfg.WALPath = filepath.Join(b.TempDir(), "bench.wal")
		cfg.WALSync = wal.SyncOnCommit
	}
	db, err := relstore.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	schema := relstore.Schema{
		Name: "records",
		Columns: []relstore.Column{
			{Name: "key", Type: relstore.TypeText},
			{Name: "data", Type: relstore.TypeText},
			{Name: "usr", Type: relstore.TypeText},
			{Name: "score", Type: relstore.TypeInt},
		},
		PrimaryKey: "key",
	}
	if err := db.CreateTable(schema); err != nil {
		b.Fatal(err)
	}
	if err := db.Recover(); err != nil {
		b.Fatal(err)
	}
	if err := db.CreateIndex("records", "usr"); err != nil {
		b.Fatal(err)
	}
	const records, users = 10_000, 1000
	keys := make([]string, records)
	for i := 0; i < records; i++ {
		keys[i] = fmt.Sprintf("k%06d", i)
		row := relstore.Row{keys[i], "data-payload", fmt.Sprintf("u%d", i%users), int64(0)}
		if err := db.Insert("records", row); err != nil {
			b.Fatal(err)
		}
	}
	preds := make([]relstore.Predicate, users)
	for u := 0; u < users; u++ {
		preds[u] = relstore.Eq("usr", fmt.Sprintf("u%d", u))
	}

	closedLoop(b, threads, func(i int) error {
		switch {
		case i%20 < 11: // 55%: indexed selector read (~10 rows)
			_, err := db.SelectChunk("records", preds[(i*31)%users], "", relstore.NoLimit)
			return err
		case i%20 < 19: // 40%: point read by key
			_, _, err := db.Get("records", keys[(i*7)%records])
			return err
		default: // 5%: read-modify-write
			_, err := db.UpdateFunc("records", keys[(i*13)%records], func(r relstore.Row) (relstore.Row, error) {
				r[3] = r[3].(int64) + 1
				return r, nil
			})
			return err
		}
	})
}

// BenchmarkRelstoreLocking runs the Processor-style read-heavy mix over
// per-table locking with copy-on-write snapshot reads at 1, 4 and 8
// worker threads — in memory-only form and with synchronous-commit WAL
// writes. Reads never take a lock at all (they scale with cores) and
// commits fsync outside the table lock via group commit. The seed's
// single-global-mutex leg this was first measured against is retired;
// its numbers stay in DESIGN.md §3.
func BenchmarkRelstoreLocking(b *testing.B) {
	for _, mode := range []struct {
		name    string
		durable bool
	}{
		{"mem", false},
		{"wal", true},
	} {
		for _, threads := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("%s/table-lock/threads=%d", mode.name, threads), func(b *testing.B) {
				benchRelstoreMix(b, mode.durable, threads)
			})
		}
	}
}

// benchKvstoreMix runs a point-op command mix against a 10k-key store
// from the given number of worker goroutines, with a background expiry
// cycle running throughout. Two mixes: "mixed" is 55% GET, 30% SET, 10%
// SETEX (arming TTLs for the expiry sweep), 5% DEL; "get95" is the
// GDPRbench read-dominated profile — 95% GET, 5% SET — where the
// striped RWMutex read path lets all threads read one stripe
// concurrently. Keys are precomputed so the timed loop measures the
// engine, not fmt. It reports ops/sec and allocs/op so the striping=0
// and striped legs compare directly.
func benchKvstoreMix(b *testing.B, mix string, striping int, durable bool, threads int) {
	b.Helper()
	cfg := kvstore.Config{Striping: striping, ExpiryMode: kvstore.ExpiryStrict}
	if durable {
		cfg.AOFPath = filepath.Join(b.TempDir(), "bench.aof")
		cfg.AOFSync = kvstore.FsyncEverySec
	}
	s, err := kvstore.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const records = 10_000
	keys := make([]string, records)
	for i := 0; i < records; i++ {
		keys[i] = fmt.Sprintf("k%06d", i)
		if err := s.Set(keys[i], "data-payload"); err != nil {
			b.Fatal(err)
		}
	}
	stopExp := make(chan struct{})
	expDone := make(chan struct{})
	go func() {
		defer close(expDone)
		for {
			select {
			case <-stopExp:
				return
			default:
				s.CycleOnce()
				time.Sleep(time.Millisecond)
			}
		}
	}()

	closedLoop(b, threads, func(i int) error {
		if mix == "get95" {
			if i%20 < 19 { // 95%: point read
				s.Get(keys[(i*7)%records])
				return nil
			}
			return s.Set(keys[(i*31)%records], "data-payload-v2") // 5%: overwrite
		}
		switch {
		case i%20 < 11: // 55%: point read
			s.Get(keys[(i*7)%records])
			return nil
		case i%20 < 17: // 30%: overwrite
			return s.Set(keys[(i*31)%records], "data-payload-v2")
		case i%20 < 19: // 10%: arm a TTL (feeds the expiry sweep)
			return s.SetWithExpiry(keys[(i*13)%records], "ttl-payload", time.Now().Add(time.Hour))
		default: // 5%: delete (the key returns via a later SET)
			_, err := s.Del(keys[(i*3)%records])
			return err
		}
	})
	close(stopExp)
	<-expDone
}

// BenchmarkKvstoreLocking compares the Redis-faithful profile
// (striping=0: one stripe, every command exclusive, AOF written by the
// caller) against shared-read stripes with the staged group-commit AOF,
// at 1, 4 and 8 worker threads — in memory-only form and with an
// everysec AOF. The striped legs' commands on different stripes never
// contend, and their AOF appends leave the command path entirely; the
// striping=0 baseline serializes every command and pays the append on
// the command path, which is the paper's Redis profile. (On a 1-vCPU host the legs converge — the striped profile's
// win is parallelism, not fewer instructions.) The get95 mix isolates
// the RWMutex read path: at ≥4 threads the striped legs' readers share
// each stripe's lock instead of convoying on it.
func BenchmarkKvstoreLocking(b *testing.B) {
	for _, mode := range []struct {
		name    string
		durable bool
	}{
		{"mem", false},
		{"aof", true},
	} {
		for _, mix := range []string{"mixed", "get95"} {
			for _, striping := range []int{0, 4, 16} {
				for _, threads := range []int{1, 4, 8} {
					b.Run(fmt.Sprintf("%s/%s/striping=%d/threads=%d", mode.name, mix, striping, threads), func(b *testing.B) {
						benchKvstoreMix(b, mix, striping, mode.durable, threads)
					})
				}
			}
		}
	}
}

// BenchmarkWireAlloc measures per-frame cost through the wire codec's
// per-connection Encoder/Decoder, which reuse their buffers across
// frames as server and remote connections do. Legs cover a small
// point-read request and a 10-record Records response;
// internal/wire's TestPooledCodecAllocs pins their allocation counts.
func BenchmarkWireAlloc(b *testing.B) {
	rec := mustRecord(b)
	frames := []struct {
		name string
		msg  wire.Message
	}{
		{"read-data", &wire.ReadData{
			Actor: acl.Actor{Role: acl.Customer, ID: "neo"},
			Sel:   gdpr.ByKey("r0000001"),
		}},
		{"records10", &wire.Records{Recs: func() []string {
			recs := make([]string, 10)
			for i := range recs {
				recs[i] = rec
			}
			return recs
		}()}},
	}
	for _, f := range frames {
		b.Run("pooled/"+f.name, func(b *testing.B) {
			var enc wire.Encoder
			var dec wire.Decoder
			var buf bytes.Buffer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := enc.WriteMessage(&buf, f.msg); err != nil {
					b.Fatal(err)
				}
				if _, err := dec.ReadMessage(&buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// mustRecord returns one encoded §4.2.1 record for wire payloads.
func mustRecord(b *testing.B) string {
	b.Helper()
	return gdpr.Encode(gdpr.Record{
		Key:  "r0000001",
		Data: "123-456-7890",
		Meta: gdpr.Metadata{
			Purposes:   []string{"ads"},
			Expiry:     time.Unix(1_552_867_200, 0).UTC(),
			User:       "u0001",
			SharedWith: []string{"shr01"},
			Source:     "first-party",
		},
	})
}

// ---------------------------------------------------------------------------
// Ablation benches (DESIGN.md §7)

// BenchmarkAblationExpiry compares the native lazy expiry cycle against
// the paper's strict full-scan retrofit on a 100k-key store.
func BenchmarkAblationExpiry(b *testing.B) {
	for _, mode := range []kvstore.ExpiryMode{kvstore.ExpiryLazy, kvstore.ExpiryStrict} {
		b.Run(mode.String(), func(b *testing.B) {
			sim := clock.NewSim(time.Time{})
			s, err := kvstore.Open(kvstore.Config{Clock: sim, ExpiryMode: mode})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			now := sim.Now()
			for i := 0; i < 100_000; i++ {
				exp := now.Add(5 * 24 * time.Hour)
				if i%5 == 0 {
					exp = now.Add(5 * time.Minute)
				}
				if err := s.SetWithExpiry(fmt.Sprintf("k%d", i), "v", exp); err != nil {
					b.Fatal(err)
				}
			}
			sim.Advance(5*time.Minute + time.Second)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.CycleOnce()
			}
		})
	}
}

// BenchmarkAblationAuditSync sweeps the audit sync policy (off / everysec
// / always) over persistent appends.
func BenchmarkAblationAuditSync(b *testing.B) {
	for _, policy := range []audit.Policy{audit.SyncNone, audit.SyncEverySec, audit.SyncAlways} {
		b.Run(policy.String(), func(b *testing.B) {
			log, err := audit.Open(audit.Config{
				Path:   filepath.Join(b.TempDir(), "audit.log"),
				Policy: policy,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer log.Close()
			e := audit.Entry{Actor: "processor:p1", Op: "READ-DATA", Target: "r0001234", OK: true}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := log.Append(e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationIndexes sweeps how many metadata columns carry
// secondary indexes, measuring insert cost (the write-amplification side
// of Table 3 / Figure 3b).
func BenchmarkAblationIndexes(b *testing.B) {
	sets := map[string][]string{
		"none":    nil,
		"usr":     {"usr"},
		"usr+pur": {"usr", "pur"},
		"all7":    {"pur", "ttl", "usr", "obj", "dec", "shr", "src"},
	}
	for _, name := range []string{"none", "usr", "usr+pur", "all7"} {
		cols := sets[name]
		b.Run(name, func(b *testing.B) {
			sim := clock.NewSim(time.Time{})
			client, err := core.Open(core.Options{Engine: "postgres", Shards: 1, Clock: sim, DisableDaemons: true},
				func(e []core.Engine) (core.Engine, error) {
					rel := e[0].(interface{ DB() *relstore.DB }).DB()
					for _, col := range cols {
						if err := rel.CreateIndex(core.RecordsTable, col); err != nil {
							return nil, err
						}
					}
					return e[0], nil
				})
			if err != nil {
				b.Fatal(err)
			}
			defer client.Close()
			ds := core.NewDataset(core.Config{Records: 1 << 30, Seed: 1}, sim.Now())
			actor := core.ControllerActor()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := client.CreateRecord(actor, ds.RecordAt(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTransit measures the per-operation cost of the
// in-transit record layer against plaintext framing.
func BenchmarkAblationTransit(b *testing.B) {
	sim := clock.NewSim(time.Time{})
	for _, encrypted := range []bool{false, true} {
		name := "plaintext"
		comp := core.Compliance{Strict: true}
		if encrypted {
			name = "encrypted"
			comp.EncryptInTransit = true
		}
		b.Run(name, func(b *testing.B) {
			client := openStore(b, Options{Engine: "redis", Clock: sim, Compliance: comp, DisableDaemons: true})
			ds := core.NewDataset(core.Config{Records: 1000, Seed: 1}, sim.Now())
			actor := core.ControllerActor()
			for i := 0; i < 1000; i++ {
				if err := client.CreateRecord(actor, ds.RecordAt(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.ReadData(actor, ByKey(ds.KeyAt(i%1000))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGDPRQueryLatencies measures each GDPR query family's latency
// on the compliant Redis-model engine (the per-query view behind Fig 5a).
func BenchmarkGDPRQueryLatencies(b *testing.B) {
	sim := clock.NewSim(time.Time{})
	client := openStore(b, Options{
		Engine: "redis", Dir: b.TempDir(), Clock: sim,
		Compliance:     core.Compliance{Logging: true, AccessControl: true, Strict: true},
		DisableDaemons: true,
	})
	cfg := core.Config{Records: 5_000, Seed: 1}.WithDefaults()
	ds := core.NewDataset(cfg, sim.Now())
	actor := core.ControllerActor()
	for i := 0; i < cfg.Records; i++ {
		if err := client.CreateRecord(actor, ds.RecordAt(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("read-data-by-key", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rec := ds.RecordAt(i % cfg.Records)
			a := ProcessorActor("p1", rec.Meta.Purposes[0])
			if _, err := client.ReadData(a, ByKey(rec.Key)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read-data-by-usr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			u := ds.UserAt(i % cfg.Records)
			if _, err := client.ReadData(CustomerActor(u), ByUser(u)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read-metadata-by-usr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := client.ReadMetadata(RegulatorActor(), ByUser(ds.UserAt(i%cfg.Records))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("update-metadata-by-key", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := i % cfg.Records
			delta := Delta{Attr: AttrObjection, Op: DeltaAdd, Values: []string{ds.PurposeName(i)}}
			if _, err := client.UpdateMetadata(CustomerActor(ds.UserAt(k)), ByKey(ds.KeyAt(k)), delta); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("get-system-logs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			now := sim.Now()
			if _, err := client.GetSystemLogs(RegulatorActor(), now.Add(-time.Second), now); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Observability overhead

// benchObsOverheadMix drives a get95-style mix (95% point read, 5% data
// update) through the fully wrapped Redis-model stack with the given
// span-sampling period on the process registry — the same registry the
// middleware's always-on op counters hit on every iteration regardless.
func benchObsOverheadMix(b *testing.B, sampling int) {
	reg := obs.Default()
	prevSampling := reg.Sampling()
	prevThreshold := reg.SlowlogThreshold()
	reg.SetSlowlogThreshold(0)
	reg.SetSampling(sampling)
	defer func() {
		reg.SetSampling(prevSampling)
		reg.SetSlowlogThreshold(prevThreshold)
	}()

	comp := core.Compliance{AccessControl: true, Strict: true}
	db := openStore(b, Options{Engine: "redis", Shards: 1, Compliance: comp, DisableDaemons: true, AuditPolicy: AuditSync})
	ds := load(b, db, core.Config{Records: 2_000, Seed: 1})
	actors, sels := byKey(ds)
	closedLoop(b, 1, func(i int) error {
		k := (i * 31) % ds.Cfg.Records
		if i%20 < 19 {
			return pointRead(db, actors[k], sels[k])
		}
		_, err := db.UpdateData(actors[k], ds.KeyAt(k), "data-payload-v2")
		return err
	})
}

// BenchmarkObsOverhead measures what the observability layer costs on
// the hot path: spans off (counters only), the default 1-in-16 sampling,
// and every-op tracing. The acceptance bar is <3% ops/s regression for
// the sampled leg against the off leg on this get95 mix; the full leg
// bounds the worst case a -slowlog-threshold run (which forces every-op
// tracing) can pay.
func BenchmarkObsOverhead(b *testing.B) {
	for _, leg := range []struct {
		name     string
		sampling int
	}{
		{"off", 0},
		{"sampled", obs.DefaultSampling},
		{"full", 1},
	} {
		b.Run(leg.name, func(b *testing.B) {
			benchObsOverheadMix(b, leg.sampling)
		})
	}
}

// ---------------------------------------------------------------------------
// Streaming export: chunked cursor vs materialized Select

// benchStreamingExport measures one full subject export per iteration —
// every record of one data subject who owns 1/8 of the store — either
// drained chunk by chunk through the streaming read path or
// materialized in one Select, embedded or over localhost TCP. allocs/op
// is the per-export allocation budget; the streaming legs must not
// regress it and must hold peak memory at O(chunk) rather than
// O(result) (the RSS claim F13 and the CI smoke check end to end).
func benchStreamingExport(b *testing.B, overTCP, streamed bool) {
	comp := core.Compliance{AccessControl: true, MetadataIndexing: true}
	db := openStore(b, Options{
		Engine: "redis", Dir: b.TempDir(), Compliance: comp, KVStripes: 4, DisableDaemons: true,
	})
	const records = 16_000
	ds := load(b, db, core.Config{Records: records, RecordsPerUser: records / 8, Seed: 1})
	if overTCP {
		db = overLoopback(b, db, remote.Config{})
	}
	subject := ds.CustomerActor(0)
	sel := ByUser(ds.UserName(0))
	want := records / 8

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var got int
		if streamed {
			cur, err := db.(core.StreamReader).ReadDataStream(subject, sel, core.DefaultStreamChunk)
			if err != nil {
				b.Fatal(err)
			}
			for {
				recs, err := cur.Next()
				if err != nil {
					if err != io.EOF {
						b.Fatal(err)
					}
					break
				}
				got += len(recs)
			}
			cur.Close()
		} else {
			recs, err := db.ReadData(subject, sel)
			if err != nil {
				b.Fatal(err)
			}
			got = len(recs)
		}
		if got != want {
			b.Fatalf("export saw %d records, want %d", got, want)
		}
	}
	b.ReportMetric(float64(want), "records/export")
}

// BenchmarkStreamingExport sweeps streamed vs materialized × embedded
// vs TCP on the subject-export shape (the G 15 / G 20 right-of-access
// query the streaming data plane exists for).
func BenchmarkStreamingExport(b *testing.B) {
	for _, leg := range []struct {
		name    string
		overTCP bool
	}{
		{"embedded", false},
		{"tcp", true},
	} {
		for _, mode := range []struct {
			name     string
			streamed bool
		}{
			{"materialized", false},
			{"streamed", true},
		} {
			b.Run(leg.name+"/"+mode.name, func(b *testing.B) {
				benchStreamingExport(b, leg.overTCP, mode.streamed)
			})
		}
	}
}
