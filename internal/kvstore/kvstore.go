// Package kvstore is a from-scratch, in-memory key-value store modeled on
// Redis v5.0, the NoSQL system the paper retrofits (§5.1). It reproduces
// the Redis properties the paper's measurements depend on:
//
//   - a single-threaded command core (by default one exclusive lock
//     serializes all commands, reads included, preserving Redis' contention
//     profile under multi-threaded clients);
//   - an append-only file (AOF) for persistence with the appendfsync
//     spectrum (always / everysec / no), optionally encrypted at rest;
//   - the lazy probabilistic TTL algorithm ("once every 100ms, it samples
//     20 random keys from the set of keys with expire flag set; if any of
//     these twenty have expired, they are actively deleted; if less than 5
//     keys got deleted, then wait till the next iteration, else repeat the
//     loop immediately") plus the paper's strict modification that scans
//     the entire expires set;
//   - lazy deletion of expired keys on access;
//   - by default no secondary indexes: attribute lookups are O(n) scans,
//     which is what makes GDPR metadata queries slow on Redis (§6.2).
//
// There is one command core. The keyspace is partitioned into
// cacheline-padded, power-of-two hash stripes, each guarded by its own
// reader/writer lock and carrying its own dicts, key order and
// metadata/expiry indexes; every command locks the stripe of the key it
// touches, and the AOF is one sink behind internal/logpipe. Commands are
// linearizable per key; multi-key operations (Del over several keys, the
// selector walks, Scan) observe the stripes per-stripe-consistently
// rather than under one global snapshot — the contract the shard router
// already gives cross-shard queries. Config.Striping picks two things and nothing else:
//
//	Striping  stripes   read visits (rlock)   AOF write (stage)
//	0         1         exclusive             logpipe.Direct: encode, write and
//	                                          policy fsync in the caller, under
//	                                          the stripe lock
//	N > 0     pow2(N)   shared                logpipe.Stage: a writer goroutine
//	                                          group-commits; `always` waits for
//	                                          the fsync, everysec/no return
//
// Striping = 0 (the default) is the Redis-faithful profile — commands
// execute one at a time, a selector's predicate evaluation included
// (copied/scanned), and pay their logging on the command path, the
// shape the paper's Figures 4, 5 and 7 measure. Both rows write
// byte-identical AOFs and differential transcripts. See DESIGN.md §1f.
//
// Config.MetadataIndexing goes beyond the paper's retrofit (which stopped
// at PostgreSQL because "Redis lacks the support for multiple secondary
// indices"): it maintains inverted indexes over the five equality
// metadata dimensions of stored GDPR records plus an ordered expiry index
// (internal/index), mutated under the owning stripe's mutex — only the
// selector cost profile changes, from O(n) to O(result). Off by default
// so the paper's scan profile survives as the ablation baseline.
package kvstore

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/gdpr"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/pool"
)

// ExpiryMode selects the active-expiry algorithm.
type ExpiryMode int

// Expiry modes.
const (
	// ExpiryLazy is Redis' native probabilistic sampler.
	ExpiryLazy ExpiryMode = iota
	// ExpiryStrict is the paper's modification: every cycle iterates the
	// entire set of keys with an expiry ("we modify Redis to iterate
	// through the entire list of keys with associated EXPIRE").
	ExpiryStrict
)

func (m ExpiryMode) String() string {
	switch m {
	case ExpiryLazy:
		return "lazy"
	case ExpiryStrict:
		return "strict"
	default:
		return fmt.Sprintf("ExpiryMode(%d)", int(m))
	}
}

// Lazy-expiry constants, straight from Redis' activeExpireCycle.
const (
	// ExpireCyclePeriod is the interval between cycles.
	ExpireCyclePeriod = 100 * time.Millisecond
	// expireSampleSize keys are sampled per iteration.
	expireSampleSize = 20
	// expireRepeatThreshold: if at least this many sampled keys were
	// expired, the loop repeats immediately.
	expireRepeatThreshold = 5
	// expireMaxIterations bounds a single cycle so a strict-heavy cycle
	// cannot spin forever inside one lock hold.
	expireMaxIterations = 1000
)

// Config configures a Store.
type Config struct {
	// Clock supplies time; defaults to the real clock.
	Clock clock.Clock
	// AOFPath enables append-only-file persistence when non-empty.
	AOFPath string
	// AOFSync is the fsync policy for the AOF.
	AOFSync FsyncPolicy
	// EncryptionKey encrypts the AOF at rest (the LUKS substitution).
	EncryptionKey []byte
	// LogReads extends the AOF to record read operations too — the
	// paper's monitoring retrofit ("we update its internal logic to log
	// all interactions including reads and scans"). Requires AOFPath.
	LogReads bool
	// ExpiryMode selects lazy (native) or strict (retrofit) expiry.
	ExpiryMode ExpiryMode
	// MetadataIndexing maintains inverted indexes over the five equality
	// metadata dimensions of stored GDPR wire records (PUR/USR/OBJ/DEC/SHR)
	// plus a B-tree-ordered expiry index, under the owning stripe's mutex.
	// Values that do not decode as GDPR records are simply not indexed.
	// Indexes are rebuilt during AOF replay.
	MetadataIndexing bool
	// Striping partitions the keyspace into hash stripes (rounded up to a
	// power of two) whose reads share the stripe lock and whose AOF appends
	// are group-committed off the command path. 0 is the Redis-faithful
	// profile: one stripe, every command exclusive, AOF written by the
	// caller (see the package comment's table).
	Striping int
	// AutoRewritePct arms the automatic AOF rewrite policy (Redis'
	// auto-aof-rewrite-percentage): when the AOF has grown by this
	// percentage over its size after the last rewrite (and past a 1 MiB
	// floor), a rewrite fires on its own goroutine, concurrent with
	// traffic. 0 disables auto rewrites.
	AutoRewritePct int
	// Obs is the observability registry the store exports its counters to
	// (a pull-time collector wrapping Stats, so the hot path gains no new
	// shared atomics); nil means the process-wide obs.Default().
	Obs *obs.Registry
}

type entry struct {
	value    string
	expireAt time.Time // zero when the key has no TTL
}

// kv is one gathered (key, value, deadline) triple; the selector paths
// collect these under the stripe locks and invoke the caller's function
// afterwards, so user code never runs inside a shared stripe lock.
type kv struct {
	key      string
	value    string
	expireAt time.Time
}

// stripe is one hash partition of the keyspace: its own dict, expires
// dict, scan order and index shards, all guarded by one reader/writer
// lock. Reads share the lock when Striping > 0; writers — and every
// Striping = 0 command, reads included, because the Redis-faithful
// profile serializes everything — take it exclusively. The pad rounds the
// struct to whole cache lines so adjacent stripe locks never share one
// under concurrent commands.
type stripe struct {
	mu   sync.RWMutex
	dict map[string]*entry
	// expires maps the keys carrying a TTL to their deadline (Redis'
	// "expires" dict, which likewise stores the expire time), so expiry
	// walks never need the main dict.
	expires map[string]time.Time
	// keySlice supports cursor scans and random sampling without
	// rehashing; keyPos is the key's position in keySlice.
	keySlice []string
	keyPos   map[string]int

	// meta and exp are this stripe's shard of the metadata-index layer
	// (nil when indexing is off); maintained under mu like the dicts.
	meta *index.Inverted
	exp  *index.Expiry

	bytes int64 // sum of key+value bytes stored in this stripe

	// arena recycles entry structs within the stripe — freed on DEL or
	// expiry, reused by the next insert — so steady-state SET/DEL churn
	// allocates no per-entry garbage. Guarded by mu like the dicts.
	arena pool.Arena[entry]

	// reads / writes count lock acquisitions by mode: reads are read-path
	// visits (shared when Striping > 0, exclusive at 0), writes are
	// exclusive mutating holds (commands, lazy-expiry upgrades, expiry
	// cycles, global freezes). They feed the Stats lock-traffic block.
	reads  atomic.Int64
	writes atomic.Int64
	// contended counts lock acquisitions that found the stripe already
	// held in a conflicting mode (the Try* probe failed and the caller
	// blocked) — the Stats/obs stripe-contention signal.
	contended atomic.Int64

	_ [24]byte
}

// Store is the key-value engine. All commands are safe for concurrent
// use. With Striping = 0 they execute one at a time, like Redis; with
// Striping > 0 reads share a stripe and commands on different stripes run
// in parallel.
type Store struct {
	stripes []stripe
	mask    uint32
	// striped is Config.Striping > 0. It decides the lock mode of read
	// visits (rlock/runlock, copied/scanned) and, handed to openPipe as
	// aofPipe.direct, who runs the AOF sink (stage/reserve); nothing else
	// may branch on either.
	striped bool

	clk      clock.Clock
	pipe     *aofPipe // the AOF; nil without one
	aofKey   []byte
	logReads bool
	mode     ExpiryMode

	fullScans atomic.Int64 // full-keyspace scan walks served (ScanChunk)
	closed    atomic.Bool
	obsColl   *obs.CollectorHandle

	// Rewrite/recovery bookkeeping. aofBase is the AOF's size at open /
	// after the last rewrite; aofAppended approximates bytes appended
	// since — the pair drives the AutoRewritePct ratio without touching
	// the file. rewriteRunning keeps auto-triggered rewrites to one in
	// flight.
	autoPct           int
	aofBase           atomic.Int64
	aofAppended       atomic.Int64
	rewriteRunning    atomic.Bool
	rewrites          atomic.Int64
	lastRewriteMicros atomic.Int64
	divertedFrames    atomic.Int64
	replayOps         atomic.Int64
	replayMicros      atomic.Int64

	// expMu guards the background expiry-loop registration: exclusive for
	// start/stop, shared for liveness checks.
	expMu      sync.RWMutex
	stopExpiry chan struct{}
	expiryDone chan struct{}
}

// nextPow2 rounds n up to the next power of two (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Stats snapshots the engine's concurrency and persistence counters —
// the kvstore block of gdprbench -json, mirroring the audit pipeline's
// counters block.
type Stats struct {
	// Stripes is the number of hash stripes (1 at Striping = 0).
	Stripes int
	// FullScans counts full-keyspace scan walks served.
	FullScans int64
	// Bytes is the dataset's in-memory footprint (key+value bytes).
	Bytes int64
	// IndexBytes approximates the metadata-index layer's footprint.
	IndexBytes int64
	// AOFBatches counts AOF group commits (Striping = 0: one per appended
	// command).
	AOFBatches int64
	// AOFFlushes counts AOF fsyncs.
	AOFFlushes int64
	// LockContention counts command-path stripe-lock acquisitions that
	// found the lock already held in a conflicting mode and had to block
	// — the striping-effectiveness signal (0 means stripes never collide).
	// Since PR 15 the base includes point reads (Get/Exists/TTL) blocked by
	// a writer, which earlier ledgers did not count.
	LockContention int64
	// ReadLocks / WriteLocks split stripe-lock traffic by mode: reads are
	// read-path acquisitions (shared when Striping > 0; at 0 they hold the
	// lock exclusively but count here, so the traffic split stays
	// comparable across profiles), writes are exclusive mutating holds
	// (commands, lazy-expiry upgrades, expiry cycles, global freezes).
	ReadLocks  int64
	WriteLocks int64
	// AOFRewrites counts completed AOF rewrites (manual and auto-
	// triggered); AOFLastRewriteMicros is the last one's wall-clock
	// duration, and AOFRewriteDiverted the total command frames captured
	// by rewrite buffers while snapshots streamed.
	AOFRewrites          int64
	AOFLastRewriteMicros int64
	AOFRewriteDiverted   int64
	// ReplayOps / ReplayMicros describe the Open-time AOF replay: frames
	// applied and wall-clock time — the recovery cost a rewrite bounds to
	// O(live keys).
	ReplayOps    int64
	ReplayMicros int64
}

// Open creates a Store. If cfg.AOFPath exists, its commands are replayed
// to rebuild state before the store accepts commands, one worker per
// stripe.
func Open(cfg Config) (*Store, error) {
	striped := cfg.Striping > 0
	n := 1
	if striped {
		n = nextPow2(cfg.Striping)
	}
	s := &Store{
		stripes:  make([]stripe, n),
		mask:     uint32(n - 1),
		striped:  striped,
		clk:      cfg.Clock,
		logReads: cfg.LogReads,
		mode:     cfg.ExpiryMode,
	}
	for i := range s.stripes {
		st := &s.stripes[i]
		st.dict = make(map[string]*entry)
		st.expires = make(map[string]time.Time)
		st.keyPos = make(map[string]int)
		if cfg.MetadataIndexing {
			// Created before replay so the AOF rebuild maintains them.
			st.meta = index.NewInverted()
			st.exp = index.NewExpiry()
		}
	}
	if s.clk == nil {
		s.clk = clock.NewReal()
	}
	if cfg.LogReads && cfg.AOFPath == "" {
		return nil, fmt.Errorf("kvstore: LogReads requires an AOF path")
	}
	if cfg.AOFPath != "" {
		// A leftover ".rewrite" tmp is a rewrite that crashed before its
		// atomic rename: the live AOF is still authoritative and the tmp
		// must never be replayed.
		os.Remove(cfg.AOFPath + ".rewrite")
		replayStart := time.Now()
		if err := replayAOF(cfg.AOFPath, cfg.EncryptionKey, s); err != nil {
			return nil, err
		}
		s.replayMicros.Store(time.Since(replayStart).Microseconds())
		p, err := openPipe(cfg.AOFPath, cfg.EncryptionKey, cfg.AOFSync, s.clk, !striped)
		if err != nil {
			return nil, err
		}
		s.pipe = p
		if sz, err := p.file.Size(); err == nil {
			s.aofBase.Store(sz)
		}
		s.aofKey = cfg.EncryptionKey
		s.autoPct = cfg.AutoRewritePct
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.Default()
	}
	// Pull-time export: Stats() already sums the per-stripe atomics, so a
	// scrape pays the summation and the command path pays nothing. Several
	// open stores (shards) emitting the same names roll up by summation.
	s.obsColl = reg.RegisterCollector(func(emit func(string, int64, bool)) {
		stats := s.Stats()
		emit("kvstore_stripes", int64(stats.Stripes), true)
		emit("kvstore_bytes", stats.Bytes, true)
		emit("kvstore_index_bytes", stats.IndexBytes, true)
		emit("kvstore_full_scans_total", stats.FullScans, false)
		emit("kvstore_read_locks_total", stats.ReadLocks, false)
		emit("kvstore_write_locks_total", stats.WriteLocks, false)
		emit("kvstore_lock_contention_total", stats.LockContention, false)
		emit("kvstore_aof_batches_total", stats.AOFBatches, false)
		emit("kvstore_aof_flushes_total", stats.AOFFlushes, false)
		emit("kvstore_aof_rewrites_total", stats.AOFRewrites, false)
		emit("kvstore_aof_last_rewrite_us", stats.AOFLastRewriteMicros, true)
		emit("kvstore_aof_rewrite_diverted_total", stats.AOFRewriteDiverted, false)
		emit("kvstore_replay_ops_total", stats.ReplayOps, false)
		emit("kvstore_replay_us_total", stats.ReplayMicros, false)
	})
	return s, nil
}

// stripeIndex hashes key to its stripe (FNV-1a, masked to the power-of-
// two stripe count).
func (s *Store) stripeIndex(key string) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return int(h & s.mask)
}

func (s *Store) stripeFor(key string) *stripe { return &s.stripes[s.stripeIndex(key)] }

// lockAll acquires every stripe lock in index order (the one total order
// that makes multi-stripe holders — FLUSHALL, Rewrite, Close — deadlock-
// free against each other).
func (s *Store) lockAll() {
	for i := range s.stripes {
		s.stripes[i].writes.Add(1)
		s.stripes[i].mu.Lock()
	}
}

func (s *Store) unlockAll() {
	for i := range s.stripes {
		s.stripes[i].mu.Unlock()
	}
}

// rlock / runlock acquire st for a read-only visit: shared when
// Striping > 0, exclusive at 0 (the Redis-faithful profile serializes
// every command, reads included). Every read site goes through them.
func (s *Store) rlock(st *stripe) {
	st.reads.Add(1)
	if s.striped {
		if !st.mu.TryRLock() {
			st.contended.Add(1)
			st.mu.RLock()
		}
		return
	}
	if !st.mu.TryLock() {
		st.contended.Add(1)
		st.mu.Lock()
	}
}

// wlock acquires st exclusively for a mutating command, counting the
// acquisition and whether it contended.
func (s *Store) wlock(st *stripe) {
	st.writes.Add(1)
	if !st.mu.TryLock() {
		st.contended.Add(1)
		st.mu.Lock()
	}
}

func (s *Store) runlock(st *stripe) {
	if s.striped {
		st.mu.RUnlock()
		return
	}
	st.mu.Unlock()
}

// copied / scanned are runlock split in two for the selector walks
// (IndexedChunk, ScanChunk), which copy their matches out and then run
// the caller's fn over the copy — at any limit, whole result or one
// chunk. copied marks the end of st's copy-out and scanned the end of
// the whole walk; a shared hold (Striping > 0) is released at copied, so
// fn runs outside any lock, while the exclusive hold (Striping = 0, one
// stripe) lasts until scanned — predicate evaluation is paid inside the
// serialized command core, as in Redis, which is what makes Figure 7b's
// completion time grow with the dataset whatever the client thread count.
func (s *Store) copied(st *stripe) {
	if s.striped {
		st.mu.RUnlock()
	}
}

func (s *Store) scanned() {
	if !s.striped {
		s.stripes[0].mu.Unlock()
	}
}

// kvScratch / partsScratch pool the selector walks' copy-out buffers.
// Elements are cleared on Put, so
// pooled scratch never extends the lifetime of gathered values — the
// copy-on-checkout contract internal/pool documents.
var (
	kvScratch    pool.Slice[kv]
	partsScratch pool.Slice[[]kv]
)

// putParts returns a scatter-gather result — the outer slice and every
// per-stripe copy-out — to the pools.
func putParts(parts [][]kv) {
	for i := range parts {
		kvScratch.Put(parts[i])
	}
	partsScratch.Put(parts)
}

// ---------------------------------------------------------------------------
// stripe mutation helpers (callers hold st.mu, or have exclusive access
// during replay)

func (st *stripe) addKey(key string) {
	if _, ok := st.keyPos[key]; ok {
		return
	}
	st.keyPos[key] = len(st.keySlice)
	st.keySlice = append(st.keySlice, key)
}

func (st *stripe) removeKey(key string) {
	pos, ok := st.keyPos[key]
	if !ok {
		return
	}
	last := len(st.keySlice) - 1
	moved := st.keySlice[last]
	st.keySlice[pos] = moved
	st.keyPos[moved] = pos
	st.keySlice = st.keySlice[:last]
	delete(st.keyPos, key)
}

// metaInsert / metaRemove maintain the inverted metadata index for one
// stored value. Values that do not decode as GDPR wire records carry no
// metadata to index and are skipped — the decode per write is the index
// write amplification the Figure 3b retrofit measures on the relational
// side.
func (st *stripe) metaInsert(key, value string) {
	if st.meta == nil {
		return
	}
	if rec, err := gdpr.Decode(value); err == nil {
		st.meta.Insert(key, rec)
	}
}

func (st *stripe) metaRemove(key, value string) {
	if st.meta == nil {
		return
	}
	if rec, err := gdpr.Decode(value); err == nil {
		st.meta.Remove(key, rec)
	}
}

func (st *stripe) set(key, value string, expireAt time.Time) {
	if old, ok := st.dict[key]; ok {
		st.bytes -= int64(len(key) + len(old.value))
		if !old.expireAt.IsZero() {
			delete(st.expires, key)
			if st.exp != nil {
				st.exp.Remove(key, old.expireAt)
			}
		}
		st.metaRemove(key, old.value)
		// Overwrite the entry in place: the exclusive stripe lock excludes
		// shared-lock readers, so nobody can observe it mid-update, and
		// the rewrite allocates nothing.
		old.value = value
		old.expireAt = expireAt
	} else {
		st.addKey(key)
		e := st.arena.New()
		e.value = value
		e.expireAt = expireAt
		st.dict[key] = e
	}
	st.bytes += int64(len(key) + len(value))
	if !expireAt.IsZero() {
		st.expires[key] = expireAt
		if st.exp != nil {
			st.exp.Set(key, expireAt)
		}
	}
	st.metaInsert(key, value)
}

func (st *stripe) del(key string) bool {
	e, ok := st.dict[key]
	if !ok {
		return false
	}
	st.bytes -= int64(len(key) + len(e.value))
	if !e.expireAt.IsZero() && st.exp != nil {
		st.exp.Remove(key, e.expireAt)
	}
	st.metaRemove(key, e.value)
	delete(st.dict, key)
	delete(st.expires, key)
	st.removeKey(key)
	st.arena.Free(e)
	return true
}

// setExpireAt rewrites key's TTL deadline (zero clears it), keeping the
// expires dict and the ordered expiry index in sync. It reports whether
// the key exists.
func (st *stripe) setExpireAt(key string, t time.Time) bool {
	e, ok := st.dict[key]
	if !ok {
		return false
	}
	if !e.expireAt.IsZero() && st.exp != nil {
		st.exp.Remove(key, e.expireAt)
	}
	e.expireAt = t
	if t.IsZero() {
		delete(st.expires, key)
	} else {
		st.expires[key] = t
		if st.exp != nil {
			st.exp.Set(key, t)
		}
	}
	return true
}

// flush drops every key and index entry in this stripe (FLUSHALL and its
// replay).
func (st *stripe) flush() {
	st.dict = make(map[string]*entry)
	st.expires = make(map[string]time.Time)
	st.keySlice = nil
	st.keyPos = make(map[string]int)
	st.bytes = 0
	st.arena.Reset()
	if st.meta != nil {
		st.meta.Reset()
	}
	if st.exp != nil {
		st.exp.Reset()
	}
}

// expireIfDue performs Redis-style lazy deletion on access. Lazy deletes
// write no AOF DEL — replay re-applies the SETEX and the key expires
// again by its own deadline.
func (st *stripe) expireIfDue(key string, now time.Time) bool {
	e, ok := st.dict[key]
	if !ok {
		return false
	}
	if e.expireAt.IsZero() || e.expireAt.After(now) {
		return false
	}
	st.del(key)
	return true
}

// scatter is the indexed walk's first half: collect runs on every stripe
// in parallel (inline when there is one), each under its read lock,
// copying that stripe's matches out of a pooled kvScratch slice. The
// visits end at copied, so the caller owes scanned once fn has run, and
// putParts for the result.
func (s *Store) scatter(collect func(st *stripe) []kv) [][]kv {
	parts := partsScratch.Get(len(s.stripes))
	parts = parts[:len(s.stripes)]
	visit := func(i int) {
		st := &s.stripes[i]
		s.rlock(st)
		defer s.copied(st)
		parts[i] = collect(st)
	}
	if len(s.stripes) == 1 {
		visit(0)
		return parts
	}
	var wg sync.WaitGroup
	for i := range s.stripes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			visit(i)
		}(i)
	}
	wg.Wait()
	return parts
}

// ---------------------------------------------------------------------------
// AOF append helpers. Callers hold the mutated stripe's lock (every
// stripe's, for FLUSHALL), so the sequence logpipe assigns — hence AOF
// file order — matches apply order per key.

// stage hands op to the AOF. Striping = 0 runs the sink in the caller
// (logpipe.Direct: the op is written, and fsynced per policy, before the
// stripe lock drops — the faithful command-path cost; sequence 0, nothing
// left to wait for). Striping > 0 queues it for the writer goroutine and
// returns the sequence commit waits on. Command writes hold a reserved
// slot; reads and expiry DELs pass slotted=false.
func (s *Store) stage(op stagedOp, slotted bool) (uint64, error) {
	if s.pipe == nil {
		return 0, nil
	}
	if s.pipe.direct {
		_, err := s.pipe.log.Direct(op)
		return 0, err
	}
	_, seq, err := s.pipe.log.Stage(op, slotted)
	return seq, err
}

func (s *Store) appendSet(key, value string, expireAt time.Time) (uint64, error) {
	// ~frame size; feeds the auto-rewrite growth ratio, not accounting.
	s.aofAppended.Add(int64(len(key)+len(value)) + 16)
	op := stagedOp{op: opSet, key: key, value: value}
	if !expireAt.IsZero() {
		op.op = opSetex
		op.ns = expireAt.UnixNano()
	}
	return s.stage(op, true)
}

func (s *Store) appendDel(key string) (uint64, error) {
	s.aofAppended.Add(int64(len(key)) + 16)
	return s.stage(stagedOp{op: opDel, key: key}, true)
}

func (s *Store) appendExpireAt(key string, t time.Time) (uint64, error) {
	s.aofAppended.Add(int64(len(key)) + 24)
	var ns int64
	if !t.IsZero() {
		ns = t.UnixNano()
	}
	return s.stage(stagedOp{op: opExpireAt, key: key, ns: ns}, true)
}

// expiryDel records an expiry-cycle DEL. Cycle victims bypass the
// backpressure semaphore (their volume is bounded by the cycle's sample
// budget, and a cycle must not park inside a stripe lock).
func (s *Store) expiryDel(key string) {
	_, _ = s.stage(stagedOp{op: opDel, key: key}, false)
}

// logRead records a read op (GET/SCAN/IDXSCAN) when read logging is on.
// Read logging failures do not fail the read (Redis' AOF write errors
// are handled out-of-band); they surface on Sync/Close.
func (s *Store) logRead(op, operand string) {
	if s.logReads {
		_, _ = s.stage(stagedOp{op: op, key: operand}, false)
	}
}

// reserve acquires one backpressure slot before a command write; Direct
// writes queue nothing, so Striping = 0 has no slots to take. Callers
// must not hold a stripe lock.
func (s *Store) reserve() error {
	if s.pipe == nil || s.pipe.direct {
		return nil
	}
	return s.pipe.log.Reserve()
}

// unreserve returns an unused slot when the command turned out not to
// stage anything (missing key, no TTL to clear).
func (s *Store) unreserve() {
	if s.pipe != nil && !s.pipe.direct {
		s.pipe.log.Release()
	}
}

// commit applies the post-stage wait for one staged write: under
// appendfsync always the caller blocks until a group commit covers seq;
// everysec/no return immediately (surfacing any sticky writer error). A
// Direct write has seq 0 and is already as durable as the policy asks.
// Every successful write also ticks the auto-rewrite policy here, off
// the stripe lock.
func (s *Store) commit(seq uint64, err error) error {
	if err == nil && seq != 0 {
		err = s.pipe.log.Wait(seq)
	}
	if err == nil {
		s.maybeAutoRewrite()
	}
	return err
}

// ---------------------------------------------------------------------------
// commands

// Set stores value under key with no TTL, logging to the AOF if enabled.
func (s *Store) Set(key, value string) error {
	return s.SetWithExpiry(key, value, time.Time{})
}

// SetWithExpiry stores value under key; a non-zero expireAt arms a TTL.
func (s *Store) SetWithExpiry(key, value string, expireAt time.Time) error {
	if err := s.reserve(); err != nil {
		return err
	}
	st := s.stripeFor(key)
	s.wlock(st)
	if s.closed.Load() {
		st.mu.Unlock()
		s.unreserve()
		return errClosed
	}
	st.set(key, value, expireAt)
	seq, err := s.appendSet(key, value, expireAt)
	st.mu.Unlock()
	return s.commit(seq, err)
}

// Get returns the value for key. Expired keys are deleted on access and
// reported as missing. Hits and misses are served under the stripe's
// read lock, upgrading to the exclusive lock only on a due deadline.
func (s *Store) Get(key string) (string, bool) {
	st := s.stripeFor(key)
	s.rlock(st)
	if s.closed.Load() {
		s.runlock(st)
		return "", false
	}
	now := s.clk.Now()
	e, ok := st.dict[key]
	if ok && !e.expireAt.IsZero() && !e.expireAt.After(now) {
		s.runlock(st)
		s.lazyExpire(st, key, now, opGet)
		return "", false
	}
	var v string
	if ok {
		// Copying the string header under the read lock is what makes the
		// in-place entry overwrite in stripe.set safe: writers are excluded
		// until runlock, and the bytes themselves are immutable.
		v = e.value
	}
	s.logRead(opGet, key)
	s.runlock(st)
	return v, ok
}

// lazyExpire is the read path's lock upgrade: a reader that observed a
// due deadline under the read lock drops it, takes the exclusive lock
// and re-checks before deleting — the key may have been deleted,
// overwritten or re-armed in the unlocked window, in which case
// expireIfDue correctly does nothing. logOp, when non-empty, records the
// triggering read once under the exclusive hold.
func (s *Store) lazyExpire(st *stripe, key string, now time.Time, logOp string) {
	s.wlock(st)
	defer st.mu.Unlock()
	if s.closed.Load() {
		return
	}
	st.expireIfDue(key, now)
	if logOp != "" {
		s.logRead(logOp, key)
	}
}

// Update atomically applies fn to the current value and expiry of key
// under the key's stripe lock, storing the result. It returns false if
// the key is missing or expired. fn must not call back into the store.
// If fn returns an error, the key is left unchanged and the error is
// returned.
func (s *Store) Update(key string, fn func(value string, expireAt time.Time) (string, time.Time, error)) (bool, error) {
	if err := s.reserve(); err != nil {
		return false, err
	}
	st := s.stripeFor(key)
	s.wlock(st)
	if s.closed.Load() {
		st.mu.Unlock()
		s.unreserve()
		return false, errClosed
	}
	now := s.clk.Now()
	if st.expireIfDue(key, now) {
		st.mu.Unlock()
		s.unreserve()
		return false, nil
	}
	e, ok := st.dict[key]
	if !ok {
		st.mu.Unlock()
		s.unreserve()
		return false, nil
	}
	newValue, newExpiry, err := fn(e.value, e.expireAt)
	if err != nil {
		st.mu.Unlock()
		s.unreserve()
		return false, err
	}
	st.set(key, newValue, newExpiry)
	seq, err := s.appendSet(key, newValue, newExpiry)
	st.mu.Unlock()
	return true, s.commit(seq, err)
}

// Del removes the given keys, returning how many existed. Each key is
// deleted under its own stripe lock: per-key linearizable, not atomic
// across keys — the shard router's cross-shard contract.
func (s *Store) Del(keys ...string) (int, error) {
	n := 0
	var lastSeq uint64
	for _, k := range keys {
		if err := s.reserve(); err != nil {
			return n, err
		}
		st := s.stripeFor(k)
		s.wlock(st)
		if s.closed.Load() {
			st.mu.Unlock()
			s.unreserve()
			return n, errClosed
		}
		if !st.del(k) {
			st.mu.Unlock()
			s.unreserve()
			continue
		}
		n++
		seq, err := s.appendDel(k)
		st.mu.Unlock()
		if err != nil {
			// The key is gone from memory but its DEL is not in the log:
			// the caller must not take the erasure as acknowledged.
			return n, err
		}
		lastSeq = seq
	}
	// One durability wait covers the batch: group commits are ordered,
	// so the last staged DEL being durable implies the earlier ones are.
	return n, s.commit(lastSeq, nil)
}

// Exists reports whether key is present and unexpired.
func (s *Store) Exists(key string) bool {
	st := s.stripeFor(key)
	s.rlock(st)
	now := s.clk.Now()
	e, ok := st.dict[key]
	if ok && !e.expireAt.IsZero() && !e.expireAt.After(now) {
		s.runlock(st)
		s.lazyExpire(st, key, now, "")
		return false
	}
	s.runlock(st)
	return ok
}

// ExpireAt arms a TTL on an existing key. It reports whether the key exists.
func (s *Store) ExpireAt(key string, t time.Time) (bool, error) {
	if err := s.reserve(); err != nil {
		return false, err
	}
	st := s.stripeFor(key)
	s.wlock(st)
	if s.closed.Load() {
		st.mu.Unlock()
		s.unreserve()
		return false, errClosed
	}
	if !st.setExpireAt(key, t) {
		st.mu.Unlock()
		s.unreserve()
		return false, nil
	}
	seq, err := s.appendExpireAt(key, t)
	st.mu.Unlock()
	return true, s.commit(seq, err)
}

// TTL returns the remaining lifetime of key. ok is false if the key does
// not exist; a zero duration with ok=true means no TTL is set.
func (s *Store) TTL(key string) (time.Duration, bool) {
	st := s.stripeFor(key)
	s.rlock(st)
	now := s.clk.Now()
	e, ok := st.dict[key]
	if !ok {
		s.runlock(st)
		return 0, false
	}
	if !e.expireAt.IsZero() && !e.expireAt.After(now) {
		s.runlock(st)
		s.lazyExpire(st, key, now, "")
		return 0, false
	}
	var d time.Duration
	if !e.expireAt.IsZero() {
		d = e.expireAt.Sub(now)
	}
	s.runlock(st)
	return d, true
}

// Persist removes the TTL from key, reporting whether a TTL was removed.
func (s *Store) Persist(key string) (bool, error) {
	if err := s.reserve(); err != nil {
		return false, err
	}
	st := s.stripeFor(key)
	s.wlock(st)
	if s.closed.Load() {
		st.mu.Unlock()
		s.unreserve()
		return false, errClosed
	}
	e, ok := st.dict[key]
	if !ok || e.expireAt.IsZero() {
		st.mu.Unlock()
		s.unreserve()
		return false, nil
	}
	st.setExpireAt(key, time.Time{})
	seq, err := s.appendExpireAt(key, time.Time{})
	st.mu.Unlock()
	return true, s.commit(seq, err)
}

// sumStripes adds up f over every stripe, each visited under its read lock.
func (s *Store) sumStripes(f func(*stripe) int64) int64 {
	var n int64
	for i := range s.stripes {
		st := &s.stripes[i]
		s.rlock(st)
		n += f(st)
		s.runlock(st)
	}
	return n
}

// DBSize returns the number of keys (including not-yet-expired ones).
func (s *Store) DBSize() int {
	return int(s.sumStripes(func(st *stripe) int64 { return int64(len(st.dict)) }))
}

// ExpiresSize returns the number of keys carrying a TTL.
func (s *Store) ExpiresSize() int {
	return int(s.sumStripes(func(st *stripe) int64 { return int64(len(st.expires)) }))
}

// MemoryBytes approximates Redis' used-memory for the dataset: the sum of
// key and value bytes currently stored. It feeds the space-overhead metric.
func (s *Store) MemoryBytes() int64 {
	return s.sumStripes(func(st *stripe) int64 { return st.bytes })
}

// FullScans reports how many full-keyspace scan walks (ScanChunk from
// cursor 0) the store has served; the indexing tests pin that indexed
// selectors perform none.
func (s *Store) FullScans() int64 { return s.fullScans.Load() }

// IndexBytes approximates the memory held by the metadata-index layer
// (inverted postings plus ordered expiry entries); 0 when indexing is
// off. It is the Redis-model input to Table 3's indexing space overhead.
func (s *Store) IndexBytes() int64 {
	if s.stripes[0].meta == nil {
		return 0
	}
	return s.sumStripes(func(st *stripe) int64 { return st.meta.Bytes() + st.exp.Bytes() })
}

// Scan returns up to count keys starting at cursor, plus the next cursor
// (0 when the iteration completed). Like Redis SCAN it guarantees that
// keys present for the whole scan are returned at least once. The cursor
// is an offset into the concatenation of the per-stripe scan orders,
// locking one stripe at a time — approximate under concurrent mutation,
// exactly like Redis' cursor.
func (s *Store) Scan(cursor, count int) ([]string, int) {
	if cursor < 0 {
		s.logRead(opScan, "*")
		return nil, 0
	}
	var out []string
	offset, total := 0, 0
	for i := range s.stripes {
		st := &s.stripes[i]
		s.rlock(st)
		n := len(st.keySlice)
		lo, hi := cursor, cursor+count
		if lo < offset {
			lo = offset
		}
		if hi > offset+n {
			hi = offset + n
		}
		if lo < hi {
			out = append(out, st.keySlice[lo-offset:hi-offset]...)
		}
		offset += n
		total += n
		s.runlock(st)
	}
	s.logRead(opScan, "*")
	if cursor >= total {
		return nil, 0
	}
	next := cursor + count
	if next >= total {
		next = 0
	}
	return out, next
}

// FlushAll removes all keys. It locks every stripe, so the flush is
// totally ordered against every concurrent command and its AOF record
// lands at the matching position.
func (s *Store) FlushAll() error {
	if err := s.reserve(); err != nil {
		return err
	}
	s.lockAll()
	if s.closed.Load() {
		s.unlockAll()
		s.unreserve()
		return errClosed
	}
	for i := range s.stripes {
		s.stripes[i].flush()
	}
	seq, err := s.stage(stagedOp{op: opFlushAll}, true)
	s.unlockAll()
	return s.commit(seq, err)
}

// Info returns server facts, GET-SYSTEM-FEATURES style.
func (s *Store) Info() map[string]string {
	striping, staged := 0, ""
	if s.striped {
		striping, staged = len(s.stripes), " (staged)"
	}
	info := map[string]string{
		"engine":            "kvstore (redis-model)",
		"keys":              fmt.Sprintf("%d", s.DBSize()),
		"expires":           fmt.Sprintf("%d", s.ExpiresSize()),
		"expiry_mode":       s.mode.String(),
		"striping":          fmt.Sprintf("%d", striping),
		"aof":               "off",
		"log_reads":         fmt.Sprintf("%v", s.logReads),
		"metadata_indexing": fmt.Sprintf("%v", s.stripes[0].meta != nil),
	}
	if s.pipe != nil {
		info["aof"] = s.pipe.policy.String() + staged
		info["aof_encrypted"] = fmt.Sprintf("%v", s.pipe.encrypted)
	}
	return info
}

// Stats snapshots the concurrency/persistence counters for gdprbench
// -json's kvstore block.
func (s *Store) Stats() Stats {
	st := Stats{
		Stripes:              len(s.stripes),
		FullScans:            s.fullScans.Load(),
		Bytes:                s.MemoryBytes(),
		IndexBytes:           s.IndexBytes(),
		AOFRewrites:          s.rewrites.Load(),
		AOFLastRewriteMicros: s.lastRewriteMicros.Load(),
		AOFRewriteDiverted:   s.divertedFrames.Load(),
		ReplayOps:            s.replayOps.Load(),
		ReplayMicros:         s.replayMicros.Load(),
	}
	for i := range s.stripes {
		st.ReadLocks += s.stripes[i].reads.Load()
		st.WriteLocks += s.stripes[i].writes.Load()
		st.LockContention += s.stripes[i].contended.Load()
	}
	if s.pipe != nil {
		ps := s.pipe.log.Stats()
		st.AOFBatches, st.AOFFlushes = ps.Batches, ps.Flushes
	}
	return st
}

// Sync flushes the AOF to stable storage, first barriering on the writer
// having consumed every staged command.
func (s *Store) Sync() error {
	if s.pipe != nil {
		return s.pipe.log.Sync()
	}
	return nil
}

// AOFSize returns the AOF's on-disk size in bytes (0 without an AOF).
func (s *Store) AOFSize() (int64, error) {
	if s.pipe != nil {
		return s.pipe.sizeBarrier()
	}
	return 0, nil
}

// Close stops background expiry, drains the AOF pipe and closes the AOF.
// Close is idempotent.
func (s *Store) Close() error {
	s.obsColl.Close()
	s.StopExpiry()
	s.lockAll()
	if s.closed.Load() {
		s.unlockAll()
		return nil
	}
	// Setting closed under every stripe lock freezes the command
	// sequence: no op can stage after this point, so the pipe drain
	// below is complete.
	s.closed.Store(true)
	s.unlockAll()
	if s.pipe != nil {
		return s.pipe.close()
	}
	return nil
}

var errClosed = fmt.Errorf("kvstore: store is closed")
