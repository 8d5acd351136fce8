package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/securefs"
)

// Options is one store configuration: which engine model, how many shards,
// where it persists and which compliance features, daemons and log policies
// it runs with. Every way to build a store — the CLIs, the experiments, the
// shard router, the benchmark — spells its configuration as one of these and
// hands it to Open.
type Options struct {
	// Engine names the storage model: "redis" or "postgres".
	Engine string
	// Shards is the number of hash-partitioned engines behind the router;
	// 0 means 1.
	Shards int
	// Dir is where the AOF/WAL and audit files live (each shard in its own
	// shard-NNN subdirectory); required when Logging is enabled. Empty
	// disables persistence entirely.
	Dir string
	// Compliance selects the feature set.
	Compliance Compliance
	// Clock supplies time; defaults to the real clock.
	Clock clock.Clock
	// Passphrase derives the at-rest and in-transit keys; empty selects the
	// engine model's default.
	Passphrase string
	// DisableDaemons leaves expiry to the caller: no background expiry
	// cycle (redis) and no TTL daemon (postgres). Simulated-clock harnesses
	// drive CycleOnce / SweepExpired directly.
	DisableDaemons bool
	// SynchronousCommit makes every postgres write wait for WAL durability
	// via group commit (synchronous_commit=on). Default is the paper's
	// batched once-per-second flushing (=off/local).
	SynchronousCommit bool
	// AuditPolicy selects the audit append pipeline (sync | batched |
	// async); zero value is the legacy inline sync path.
	AuditPolicy audit.Pipeline
	// AuditSyncAlways makes the audit trail fsync per group commit
	// instead of everysec (the strict durable-audit configuration).
	AuditSyncAlways bool
	// KVStripes is kvstore.Config.Striping for the redis model: that many
	// hash stripes (rounded up to a power of two) with shared-lock reads and
	// a staged group-commit AOF; 0 is the Redis-faithful profile — one
	// stripe, every command exclusive, AOF written on the command path.
	KVStripes int
	// Tuning arms the background log-compaction triggers (AOF rewrite, WAL
	// checkpoint, audit retention); the zero value disables them all.
	Tuning Tuning
}

// model is what distinguishes one engine model from the other at open time;
// everything else about opening a store is shared.
type model struct {
	// auditFile is the audit trail's base name under Dir.
	auditFile string
	// auditLabel is the key-derivation label of the audit trail's at-rest key.
	auditLabel string
	// passphrase is the default key-derivation passphrase.
	passphrase string
	// open builds one bare storage engine persisting under dir. statements
	// is the shared audit trail (nil when Logging is off); only the postgres
	// model writes to it below the middleware.
	open func(o Options, dir string, statements *audit.Log) (Engine, error)
}

// models is the per-engine table. Whether a store batch-loads is not a
// column: Wrap derives it from the engine (relEngine and the shard router
// implement BatchEngine; kvEngine deliberately does not).
var models = map[string]model{
	"redis":    {"redis-audit.log", "audit", "gdprbench-redis", openKVEngine},
	"postgres": {"postgres-csvlog", "csvlog", "gdprbench-postgres", openRelEngine},
}

// resolve looks up the engine model and fills the defaults (clock,
// passphrase) every layer below would otherwise fill for itself.
func (o Options) resolve() (Options, error) {
	m, ok := models[o.Engine]
	if !ok {
		return o, fmt.Errorf("core: unknown engine %q", o.Engine)
	}
	if o.Clock == nil {
		o.Clock = clock.NewReal()
	}
	if o.Passphrase == "" {
		o.Passphrase = m.passphrase
	}
	return o, nil
}

// as resolves o as the named engine model (one of the two table keys).
func (o Options) as(engine string) Options {
	o.Engine = engine
	o, _ = o.resolve()
	return o
}

// key derives one purpose-labelled key from the passphrase.
func (o Options) key(label string) []byte { return securefs.Key(o.Passphrase + "/" + label) }

// wrapConfig derives the middleware configuration of a resolved o: the
// audit trail at Dir/<model's audit file>, keys derived from the passphrase.
func (o Options) wrapConfig() WrapConfig {
	m := models[o.Engine]
	wc := WrapConfig{
		Compliance:      o.Compliance,
		Clock:           o.Clock,
		AuditPolicy:     o.AuditPolicy,
		AuditSyncAlways: o.AuditSyncAlways,
		AuditRetention:  o.Tuning.AuditRetention,
	}
	if o.Compliance.Logging && o.Dir != "" {
		wc.AuditPath = filepath.Join(o.Dir, m.auditFile)
		if o.Compliance.EncryptAtRest {
			wc.AuditKey = o.key(m.auditLabel)
		}
	}
	if o.Compliance.EncryptInTransit {
		wc.TransitKey = o.key("transit")
	}
	return wc
}

// Open builds the store o describes, in the one order every topology
// shares: audit trail, then the engine(s), then — when route is non-nil —
// the router composing them, then the compliance middleware over the
// result. Everything opened so far is closed again when a later step fails.
//
// route nil opens one engine persisting directly in o.Dir. A non-nil route
// (shard.Open passes shard.New) always composes, even one shard: o.Shards
// engines, each in o.Dir/shard-NNN, all logging statements into the single
// audit trail at the top of o.Dir, so GET-SYSTEM-LOGS stays one query over
// one log.
func Open(o Options, route func([]Engine) (Engine, error)) (DB, error) {
	o, err := o.resolve()
	if err != nil {
		return nil, err
	}
	if route == nil && o.Shards > 1 {
		return nil, fmt.Errorf("core: %d shards need a router (open through shard.Open)", o.Shards)
	}
	if route != nil && o.Shards < 1 {
		return nil, fmt.Errorf("core: shard count %d < 1", o.Shards)
	}
	wc := o.wrapConfig()
	if o.Compliance.Logging {
		if o.Dir == "" {
			return nil, fmt.Errorf("core: %s logging requires a directory", o.Engine)
		}
		if wc.Audit, err = OpenAudit(wc, o.Clock); err != nil {
			return nil, err
		}
	}
	var engines []Engine
	fail := func(err error) (DB, error) {
		for _, e := range engines {
			e.Close()
		}
		if wc.Audit != nil {
			wc.Audit.Close()
		}
		return nil, err
	}
	for i := 0; i < max(o.Shards, 1); i++ {
		dir := o.Dir
		if route != nil && dir != "" {
			dir = filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return fail(err)
			}
		}
		e, err := models[o.Engine].open(o, dir, wc.Audit)
		if err != nil {
			return fail(err)
		}
		engines = append(engines, e)
	}
	eng := engines[0]
	if route != nil {
		if eng, err = route(engines); err != nil {
			return fail(err)
		}
	}
	db, err := Wrap(eng, wc)
	if err != nil {
		wc.Audit = nil // a failed Wrap has already closed the trail it was handed
		return fail(err)
	}
	return db, nil
}

// Validate applies the cross-flag rules of the engine flags RegisterFlags
// declares: ranges, and knobs that belong to one engine model only.
func (o Options) Validate() error {
	if _, ok := models[o.Engine]; !ok {
		return fmt.Errorf("unknown engine %q (want redis or postgres)", o.Engine)
	}
	if o.Shards < 1 {
		return fmt.Errorf("-shards must be >= 1")
	}
	if o.KVStripes < 0 {
		return fmt.Errorf("-kvstripes must be >= 0")
	}
	if o.KVStripes > 0 && o.Engine != "redis" {
		return fmt.Errorf("-kvstripes applies to the redis engine only")
	}
	if o.Tuning.AOFRewritePct < 0 || o.Tuning.WALCheckpointBytes < 0 || o.Tuning.AuditRetention < 0 {
		return fmt.Errorf("-aofrewrite-pct, -walcheckpoint and -auditretain must be >= 0")
	}
	if o.Tuning.AOFRewritePct > 0 && o.Engine != "redis" {
		return fmt.Errorf("-aofrewrite-pct applies to the redis engine only")
	}
	if o.Tuning.WALCheckpointBytes > 0 && o.Engine != "postgres" {
		return fmt.Errorf("-walcheckpoint applies to the postgres engine only")
	}
	return nil
}

// RegisterFlags declares the ten engine flags on fs — the one flag set both
// binaries share — and returns the function that, once fs is parsed, builds
// and validates the Options they spell.
func RegisterFlags(fs *flag.FlagSet) func() (Options, error) {
	var o Options
	fs.StringVar(&o.Engine, "engine", "redis", "engine: redis | postgres")
	fs.IntVar(&o.Shards, "shards", 1, "hash-partition the engine into N shards (scatter-gather attribute queries)")
	fs.StringVar(&o.Dir, "dir", "", "data directory (default: a temp dir)")
	index := fs.Bool("index", false, "build secondary indexes on all metadata fields (postgres: per-column B-trees; redis: inverted metadata + ordered expiry indexes)")
	baseline := fs.Bool("baseline", false, "disable all compliance features (no-security baseline)")
	policy := fs.String("auditpolicy", audit.PipeBatched.String(), "audit append pipeline: sync (inline, the legacy baseline) | batched (group-committed, callers wait) | async (fire-and-forget, bounded-queue backpressure)")
	fs.IntVar(&o.KVStripes, "kvstripes", 0, "redis engine: N hash stripes per kvstore with shared-lock reads and a staged group-commit AOF (0 = the Redis-faithful profile: one stripe, every command exclusive, AOF written on the command path)")
	fs.IntVar(&o.Tuning.AOFRewritePct, "aofrewrite-pct", 0, "redis engine: background-rewrite the AOF once it grows this percent past its post-rewrite size (Redis auto-aof-rewrite-percentage; 100 = rewrite at 2x, 0 = never)")
	fs.Int64Var(&o.Tuning.WALCheckpointBytes, "walcheckpoint", 0, "postgres engine: checkpoint and truncate the WAL once it exceeds this many bytes (0 = never)")
	fs.DurationVar(&o.Tuning.AuditRetention, "auditretain", 0, "compact audit-trail segments older than this window, e.g. 720h (0 = keep all history)")
	return func() (Options, error) {
		o.Compliance = Full()
		if *baseline {
			o.Compliance = None()
		}
		o.Compliance.MetadataIndexing = *index
		var err error
		if o.AuditPolicy, err = audit.ParsePipeline(*policy); err != nil {
			return o, err
		}
		return o, o.Validate()
	}
}

// RedisConfig and PostgresConfig are Options whose engine model is implied
// by the type name: the spelling bench/stack.go uses to assemble its traced
// stacks layer by layer (engine, then its own decorators, then Wrap). Outside
// tests, bench/stack.go is their only user; everything else opens through
// Open. They carry no fields or logic of their own.
type (
	RedisConfig    Options
	PostgresConfig Options
)

// WrapConfig derives the middleware configuration of a Redis-model store.
func (c RedisConfig) WrapConfig() WrapConfig { return Options(c).as("redis").wrapConfig() }

// WrapConfig derives the middleware configuration of a PostgreSQL-model store.
func (c PostgresConfig) WrapConfig() WrapConfig { return Options(c).as("postgres").wrapConfig() }

// NewRedisEngine builds a bare Redis-model storage engine persisting in
// cfg.Dir, with no compliance layer attached.
func NewRedisEngine(cfg RedisConfig) (Engine, error) {
	o := Options(cfg).as("redis")
	return openKVEngine(o, o.Dir, nil)
}

// NewPostgresEngine builds a bare PostgreSQL-model storage engine
// persisting in cfg.Dir; statements receives its csvlog-style statement
// logging when Logging is on.
func NewPostgresEngine(cfg PostgresConfig, statements *audit.Log) (Engine, error) {
	o := Options(cfg).as("postgres")
	return openRelEngine(o, o.Dir, statements)
}
