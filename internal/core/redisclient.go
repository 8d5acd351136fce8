package core

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/audit"
	"repro/internal/gdpr"
	"repro/internal/index"
	"repro/internal/kvstore"
)

// kvEngine is the storage adapter of the Redis-model store (§5.1): it
// adapts kvstore.Store to the Engine contract and holds no compliance
// state — records in, records out, with the Redis cost profile (O(1) keyed
// access, O(n) attribute scans, expiry bookkeeping). Records are stored in
// wire format under their key; by default every attribute query is an O(n)
// scan because the engine has no secondary indexes — exactly the property
// that makes GDPR workloads slow on Redis in §6.2. Compliance features map
// to:
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
// kvEngine deliberately implements no PutBatch, so an unsharded Redis-model
// store is not a BatchCreator: the paper's load phase issues one command
// per record.
type kvEngine struct {
	store *kvstore.Store
}

// openKVEngine builds one kvstore (AOF at dir/redis.aof, expiry loop) per
// the resolved o; the Redis model logs no statements of its own.
func openKVEngine(o Options, dir string, _ *audit.Log) (Engine, error) {
	comp := o.Compliance
	kvCfg := kvstore.Config{
		Clock:            o.Clock,
		MetadataIndexing: comp.MetadataIndexing,
		Striping:         o.KVStripes,
		AutoRewritePct:   o.Tuning.AOFRewritePct,
	}
	if comp.TimelyDeletion {
		kvCfg.ExpiryMode = kvstore.ExpiryStrict
	}
	if comp.Logging {
		if dir == "" {
			return nil, fmt.Errorf("core: redis logging requires a directory")
		}
		kvCfg.AOFPath = filepath.Join(dir, "redis.aof")
		kvCfg.AOFSync = kvstore.FsyncEverySec
		kvCfg.LogReads = true
		if comp.EncryptAtRest {
			kvCfg.EncryptionKey = o.key("aof")
		}
	}
	store, err := kvstore.Open(kvCfg)
	if err != nil {
		return nil, err
	}
	if comp.TimelyDeletion && !o.DisableDaemons {
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

// Select implements Engine: the cursor's one whole chunk — O(1) for key
// lookups, O(result) through the inverted metadata index when indexing
// is on, an O(n) scan otherwise.
func (e *kvEngine) Select(sel gdpr.Selector) ([]gdpr.Record, error) {
	return Collect(e.SelectStream(sel, WholeChunk))
}

// SelectKeys implements Engine. TTL selectors come straight from the
// engine's expiry tracking — the ordered expiry index (O(expired)) when
// indexing is on, the expires dict otherwise — and key selectors from
// one existence probe; every other selector is Select's walk.
func (e *kvEngine) SelectKeys(sel gdpr.Selector) ([]string, error) {
	switch sel.Attr {
	case gdpr.AttrTTL:
		return e.store.ExpiredKeys(), nil
	case gdpr.AttrKey:
		if e.store.Exists(sel.Value) {
			return []string{sel.Value}, nil
		}
		return nil, nil
	}
	recs, err := e.Select(sel)
	return keysInOrder(recs), err
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
	e.store.ScanChunk(0, WholeChunk, func(key, value string, _ time.Time) bool {
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
