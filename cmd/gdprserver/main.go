// Command gdprserver serves one of the two engine models (optionally
// hash-sharded) as a network GDPR datastore speaking the pipelined wire
// protocol. Compliance — Figure 1 access control, metadata redaction,
// audit logging, strict validation — runs server-side behind the
// listener, so remote clients cannot bypass it; connections are bound
// to one GDPR role at handshake.
//
// Examples:
//
//	gdprserver -addr 127.0.0.1:7946 -engine redis
//	gdprserver -addr :7946 -engine postgres -index -shards 4 -token s3cret
//	gdprserver -frozenclock      # simulated clock + no daemons, for -validate clients
//
// Point clients at it with:
//
//	gdprbench -connect 127.0.0.1:7946 -records 10000 -ops 2000
//
// SIGINT/SIGTERM trigger a graceful drain: in-flight requests finish
// and their responses flush before the process exits.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // -pprofaddr: live CPU/heap profiles of the serving hot path
	"os"

	gdprbench "repro"
	"repro/internal/obs"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7946", "TCP listen address")
		engine      = flag.String("engine", "redis", "engine: redis | postgres")
		shards      = flag.Int("shards", 1, "hash-partition the engine into N shards")
		dir         = flag.String("dir", "", "data directory (default: a temp dir)")
		indexed     = flag.Bool("index", false, "build secondary indexes on all metadata fields")
		baseline    = flag.Bool("baseline", false, "disable all compliance features (no-security baseline)")
		token       = flag.String("token", "", "shared auth token clients must present")
		frozenclock = flag.Bool("frozenclock", false, "run engines on a simulated clock frozen at the epoch with expiry daemons off (required for gdprbench -connect -validate)")
		auditPol    = flag.String("auditpolicy", gdprbench.DefaultAuditPolicy.String(), "audit append pipeline: sync (inline, the legacy baseline) | batched (group-committed, callers wait) | async (fire-and-forget, bounded-queue backpressure)")
		kvstripes   = flag.Int("kvstripes", 0, "redis engine: N hash stripes per kvstore with shared-lock reads and a staged group-commit AOF (0 = the Redis-faithful profile: one stripe, every command exclusive, AOF written on the command path)")
		aofPct      = flag.Int("aofrewrite-pct", 0, "redis engine: background-rewrite the AOF once it grows this percent past its post-rewrite size (Redis auto-aof-rewrite-percentage; 100 = rewrite at 2x, 0 = never)")
		walCkpt     = flag.Int64("walcheckpoint", 0, "postgres engine: checkpoint and truncate the WAL once it exceeds this many bytes (0 = never)")
		auditKeep   = flag.Duration("auditretain", 0, "compact audit-trail segments older than this window, e.g. 720h (0 = keep all history)")
		pprofAddr   = flag.String("pprofaddr", "", "serve net/http/pprof plus /metrics (Prometheus text) and /healthz on this TCP address (e.g. 127.0.0.1:6060)")
		slowlog     = flag.Duration("slowlog-threshold", 0, "record every operation at least this slow in the slowlog, with per-phase latency attribution (e.g. 10ms; 0 = off); forces every-op tracing while armed")
	)
	flag.Parse()

	if *slowlog < 0 {
		fmt.Fprintln(os.Stderr, "gdprserver: -slowlog-threshold must be >= 0")
		os.Exit(1)
	}
	obs.Default().SetSlowlogThreshold(*slowlog)
	if *pprofAddr != "" {
		// The introspection surface shares the pprof mux: one debug
		// address serves profiles, metrics and liveness.
		introspect := obs.Default().Handler()
		http.Handle("/metrics", introspect)
		http.Handle("/healthz", introspect)
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "gdprserver: pprof:", err)
			}
		}()
	}
	tun := gdprbench.Tuning{AOFRewritePct: *aofPct, WALCheckpointBytes: *walCkpt, AuditRetention: *auditKeep}
	if err := run(*addr, *engine, *shards, *dir, *token, *auditPol, *indexed, *baseline, *frozenclock, *kvstripes, tun); err != nil {
		fmt.Fprintln(os.Stderr, "gdprserver:", err)
		os.Exit(1)
	}
}

func run(addr, engine string, shards int, dir, token, auditPol string, indexed, baseline, frozenclock bool, kvstripes int, tun gdprbench.Tuning) error {
	policy, err := gdprbench.ParseAuditPolicy(auditPol)
	if err != nil {
		return err
	}
	if kvstripes < 0 {
		return fmt.Errorf("-kvstripes must be >= 0")
	}
	if kvstripes > 0 && engine != "redis" {
		return fmt.Errorf("-kvstripes applies to the redis engine only")
	}
	if tun.AOFRewritePct < 0 || tun.WALCheckpointBytes < 0 || tun.AuditRetention < 0 {
		return fmt.Errorf("-aofrewrite-pct, -walcheckpoint and -auditretain must be >= 0")
	}
	if tun.AOFRewritePct > 0 && engine != "redis" {
		return fmt.Errorf("-aofrewrite-pct applies to the redis engine only")
	}
	if tun.WALCheckpointBytes > 0 && engine != "postgres" {
		return fmt.Errorf("-walcheckpoint applies to the postgres engine only")
	}
	comp := gdprbench.FullCompliance()
	if baseline {
		comp = gdprbench.NoCompliance()
	}
	comp.MetadataIndexing = indexed
	return gdprbench.ServeEngine(addr, engine, shards, dir, token, comp, frozenclock, policy, kvstripes, tun)
}
