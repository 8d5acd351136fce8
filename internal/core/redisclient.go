package core

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/gdpr"
	"repro/internal/index"
	"repro/internal/kvstore"
	"repro/internal/securefs"
)

// RedisClient is the GDPRbench client for the Redis-model engine (§5.1):
// the compliance middleware over a kvEngine storage adapter. Records are
// stored in wire format under their key; by default every attribute query
// is an O(n) scan because the engine has no secondary indexes — exactly
// the property that makes GDPR workloads slow on Redis in §6.2.
// Compliance features map to:
//
//	EncryptAtRest    → AOF encrypted via securefs (LUKS substitute)
//	EncryptInTransit → per-op transit.Pipe record layer (Stunnel substitute)
//	Logging          → AOF extended to log reads + middleware audit trail
//	TimelyDeletion   → strict active-expiry cycle
//	AccessControl    → acl checks in the middleware ("we defer access
//	                   control to DBMS applications", §5.1)
//	MetadataIndexing → inverted metadata + ordered expiry indexes inside
//	                   the kvstore (beyond the paper's retrofit, which
//	                   left Redis scanning); equality attribute selectors
//	                   become O(result), TTL purges O(expired)
//
// The Redis model deliberately does not batch creates (no BatchCreator):
// the paper's load phase issues one command per record.
type RedisClient struct {
	*middleware
	store *kvstore.Store
}

// RedisConfig configures OpenRedis.
type RedisConfig struct {
	// Dir is where the AOF and audit files live; required when Logging
	// or EncryptAtRest persistence is enabled.
	Dir string
	// Compliance selects the feature set.
	Compliance Compliance
	// Clock supplies time; defaults to the real clock.
	Clock clock.Clock
	// Passphrase derives the at-rest and in-transit keys.
	Passphrase string
	// DisableBackgroundExpiry leaves the expiry loop to the caller
	// (simulated-clock harnesses drive CycleOnce directly).
	DisableBackgroundExpiry bool
	// AuditPolicy selects the audit append pipeline (sync | batched |
	// async); zero value is the legacy inline sync path.
	AuditPolicy audit.Pipeline
	// AuditSyncAlways makes the audit trail fsync per group commit
	// instead of everysec (the strict durable-audit configuration).
	AuditSyncAlways bool
	// KVStripes is kvstore.Config.Striping: that many hash stripes
	// (rounded up to a power of two) with shared-lock reads and a staged
	// group-commit AOF; 0 is the Redis-faithful profile — one stripe,
	// every command exclusive, AOF written on the command path.
	KVStripes int
	// Tuning arms the background log-compaction triggers (AOF rewrite,
	// audit retention); the zero value disables them all.
	Tuning Tuning
}

// WrapConfig derives the middleware configuration from the Redis-model
// conventions: audit trail at Dir/redis-audit.log, keys derived from the
// passphrase. Sharded openers reuse it so one middleware (and one audit
// trail) covers every shard.
func (cfg RedisConfig) WrapConfig() WrapConfig {
	pass := cfg.Passphrase
	if pass == "" {
		pass = "gdprbench-redis"
	}
	wc := WrapConfig{
		Compliance:      cfg.Compliance,
		Clock:           cfg.Clock,
		AuditPolicy:     cfg.AuditPolicy,
		AuditSyncAlways: cfg.AuditSyncAlways,
		AuditRetention:  cfg.Tuning.AuditRetention,
	}
	if cfg.Compliance.Logging && cfg.Dir != "" {
		wc.AuditPath = filepath.Join(cfg.Dir, "redis-audit.log")
		if cfg.Compliance.EncryptAtRest {
			wc.AuditKey = securefs.Key(pass + "/audit")
		}
	}
	if cfg.Compliance.EncryptInTransit {
		wc.TransitKey = securefs.Key(pass + "/transit")
	}
	return wc
}

// OpenRedis builds a RedisClient.
func OpenRedis(cfg RedisConfig) (*RedisClient, error) {
	eng, err := newKVEngine(cfg)
	if err != nil {
		return nil, err
	}
	m, err := newMiddleware(eng, cfg.WrapConfig())
	if err != nil {
		eng.Close()
		return nil, err
	}
	return &RedisClient{middleware: m, store: eng.store}, nil
}

// NewRedisEngine builds a bare Redis-model storage engine (kvstore with
// AOF and expiry per the compliance configuration) with no compliance
// layer attached. The shard router composes several of these; Wrap adds
// the middleware.
func NewRedisEngine(cfg RedisConfig) (Engine, error) { return newKVEngine(cfg) }

// Store exposes the underlying engine for experiment harnesses (expiry
// cycle driving, AOF inspection).
func (c *RedisClient) Store() *kvstore.Store { return c.store }

var _ DB = (*RedisClient)(nil)

// ---------------------------------------------------------------------------
// kvEngine: the storage adapter

// kvEngine adapts kvstore.Store to the Engine contract. It holds no
// compliance state — records in, records out, with the Redis cost profile
// (O(1) keyed access, O(n) attribute scans, expiry bookkeeping).
type kvEngine struct {
	store *kvstore.Store
}

func newKVEngine(cfg RedisConfig) (*kvEngine, error) {
	clk := cfg.Clock
	if clk == nil {
		clk = clock.NewReal()
	}
	comp := cfg.Compliance
	pass := cfg.Passphrase
	if pass == "" {
		pass = "gdprbench-redis"
	}

	kvCfg := kvstore.Config{
		Clock:            clk,
		MetadataIndexing: comp.MetadataIndexing,
		Striping:         cfg.KVStripes,
		AutoRewritePct:   cfg.Tuning.AOFRewritePct,
	}
	if comp.TimelyDeletion {
		kvCfg.ExpiryMode = kvstore.ExpiryStrict
	}
	if comp.Logging {
		if cfg.Dir == "" {
			return nil, fmt.Errorf("core: redis logging requires a directory")
		}
		kvCfg.AOFPath = filepath.Join(cfg.Dir, "redis.aof")
		kvCfg.AOFSync = kvstore.FsyncEverySec
		kvCfg.LogReads = true
	}
	if comp.EncryptAtRest && kvCfg.AOFPath != "" {
		kvCfg.EncryptionKey = securefs.Key(pass + "/aof")
	}
	store, err := kvstore.Open(kvCfg)
	if err != nil {
		return nil, err
	}
	if comp.TimelyDeletion && !cfg.DisableBackgroundExpiry {
		store.StartExpiry()
	}
	return &kvEngine{store: store}, nil
}

// Put implements Engine.
func (e *kvEngine) Put(rec gdpr.Record) error {
	return e.store.SetWithExpiry(rec.Key, gdpr.Encode(rec), rec.Meta.Expiry)
}

// Get implements Engine.
func (e *kvEngine) Get(key string) (gdpr.Record, bool, error) {
	v, ok := e.store.Get(key)
	if !ok {
		return gdpr.Record{}, false, nil
	}
	rec, err := gdpr.Decode(v)
	if err != nil {
		return gdpr.Record{}, false, fmt.Errorf("core: record %q: %w", key, err)
	}
	return rec, true, nil
}

// indexable reports whether sel can be served by the inverted metadata
// index: a positive equality match on one of the indexed dimensions.
// Negated selectors (BY-NOT-OBJ) need the complement set, and SRC is
// deliberately unindexed — both always scan.
func indexable(sel gdpr.Selector) bool {
	return !sel.Negate && index.IsDim(sel.Attr)
}

// Select implements Engine: O(1) for key lookups, O(result) through the
// inverted metadata index when indexing is on, an O(n) scan otherwise.
func (e *kvEngine) Select(sel gdpr.Selector) ([]gdpr.Record, error) {
	if sel.Attr == gdpr.AttrKey {
		rec, ok, err := e.Get(sel.Value)
		if err != nil || !ok {
			return nil, err
		}
		return []gdpr.Record{rec}, nil
	}
	var out []gdpr.Record
	var decodeErr error
	visit := func(key, value string, _ time.Time) bool {
		rec, err := gdpr.Decode(value)
		if err != nil {
			decodeErr = fmt.Errorf("core: record %q: %w", key, err)
			return false
		}
		if sel.Matches(rec) {
			out = append(out, rec)
		}
		return true
	}
	if indexable(sel) && e.store.IndexedForEach(sel.Attr, sel.Value, visit) {
		return out, decodeErr
	}
	e.store.ForEach(visit)
	return out, decodeErr
}

// SelectKeys implements Engine. TTL selectors come straight from the
// engine's expiry tracking — the ordered expiry index (O(expired)) when
// indexing is on, the expires dict otherwise; equality selectors use the
// inverted index like Select.
func (e *kvEngine) SelectKeys(sel gdpr.Selector) ([]string, error) {
	if sel.Attr == gdpr.AttrTTL {
		return e.store.ExpiredKeys(), nil
	}
	if sel.Attr == gdpr.AttrKey {
		if e.store.Exists(sel.Value) {
			return []string{sel.Value}, nil
		}
		return nil, nil
	}
	var out []string
	var decodeErr error
	visit := func(key, value string, _ time.Time) bool {
		rec, err := gdpr.Decode(value)
		if err != nil {
			decodeErr = fmt.Errorf("core: record %q: %w", key, err)
			return false
		}
		if sel.Matches(rec) {
			out = append(out, key)
		}
		return true
	}
	if indexable(sel) && e.store.IndexedForEach(sel.Attr, sel.Value, visit) {
		return out, decodeErr
	}
	e.store.ForEach(visit)
	return out, decodeErr
}

// Update implements Engine.
func (e *kvEngine) Update(key string, mutate func(gdpr.Record) (gdpr.Record, error)) (bool, error) {
	return e.store.Update(key, func(value string, _ time.Time) (string, time.Time, error) {
		rec, err := gdpr.Decode(value)
		if err != nil {
			return "", time.Time{}, fmt.Errorf("core: record %q: %w", key, err)
		}
		out, err := mutate(rec)
		if err != nil {
			return "", time.Time{}, err
		}
		return gdpr.Encode(out), out.Meta.Expiry, nil
	})
}

// Delete implements Engine.
func (e *kvEngine) Delete(keys []string) (int, error) { return e.store.Del(keys...) }

// Exists implements Engine.
func (e *kvEngine) Exists(key string) (bool, error) { return e.store.Exists(key), nil }

// Features implements Engine.
func (e *kvEngine) Features() map[string]string { return e.store.Info() }

// SpaceUsage implements Engine: total bytes are the engine's in-memory
// footprint (Redis' used-memory analog) plus the metadata-index layer, so
// Table 3 reflects the indexing space overhead; personal bytes are the
// Data fields alone.
func (e *kvEngine) SpaceUsage() (SpaceUsage, error) {
	var personal int64
	var decodeErr error
	e.store.ForEach(func(key, value string, _ time.Time) bool {
		rec, err := gdpr.Decode(value)
		if err != nil {
			decodeErr = err
			return false
		}
		personal += int64(rec.DataSize())
		return true
	})
	if decodeErr != nil {
		return SpaceUsage{}, decodeErr
	}
	return SpaceUsage{
		PersonalBytes: personal,
		TotalBytes:    e.store.MemoryBytes() + e.store.IndexBytes(),
	}, nil
}

// Close implements Engine.
func (e *kvEngine) Close() error { return e.store.Close() }

var _ Engine = (*kvEngine)(nil)
