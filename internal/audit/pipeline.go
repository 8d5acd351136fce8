package audit

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/logpipe"
)

// The append path rides internal/logpipe. The pipe's sequencer stamps Seq
// and Time together in one critical section, so sequence order equals
// time order — the property Range's binary search and the replay
// monotonicity check both rely on — and hands the writer goroutine dense,
// ordered batches. This file keeps what is audit-specific: the sink (one
// segment frame per batch, then publication to the in-memory tail),
// retention compaction, and the queries, which barrier on the pipe having
// written every sequenced entry before answering from disk + memory.

const (
	defaultMemoryCap    = 1 << 20
	defaultSegmentBytes = 4 << 20
)

// Config configures a Log.
type Config struct {
	// Path is the backing trail's base path; segments are created as
	// Path.NNNNNN.seg (+ .idx summaries). Empty means memory-only.
	Path string
	// Key enables at-rest encryption of the backing segments.
	Key []byte
	// Policy is the fsync policy for the backing segments.
	Policy Policy
	// Pipeline selects the append path: inline (sync), group-committed
	// with caller wait (batched), or fire-and-forget (async).
	Pipeline Pipeline
	// Clock supplies timestamps; defaults to the real clock.
	Clock clock.Clock
	// MemoryCap bounds the in-memory tail kept for fast queries; older
	// entries are evicted from memory but remain queryable from the
	// segment store. 0 means a default of 1<<20 entries.
	MemoryCap int
	// SegmentBytes rolls the active segment once it holds this many
	// encoded entry bytes. 0 means a default of 4 MiB.
	SegmentBytes int64
	// Retention bounds how long trail entries are kept: whenever a
	// segment seals, a background compaction pass deletes sealed segments
	// whose newest entry is older than Retention and rewrites the one
	// straddling the cutoff (GDPR storage limitation — audit trails are
	// themselves personal data). 0 keeps everything forever.
	Retention time.Duration
}

// Log is an append-only audit trail. It is safe for concurrent use.
type Log struct {
	policy Policy
	mode   Pipeline
	clk    clock.Clock
	memCap int
	store  *segmentStore // nil = memory-only

	// Retention compaction trigger state: one background pass per
	// observed seal, never more than one in flight.
	retention      time.Duration
	compactGen     atomic.Int64
	compactRunning atomic.Bool

	// pipe owns sequencing, staging, the watermarks and the sticky error.
	pipe *logpipe.Pipe[Entry]

	mu      sync.Mutex
	entries []Entry // in-memory tail, ordered by Seq (and Time)
	stats   Stats   // Appended, Bytes and the compaction counters
}

// pipeModes maps the (Pipeline, Policy) pair onto logpipe's wait depth and
// flush policy. A memory-only trail has nothing to flush: it is as durable
// as it gets the moment it is written, so a batched+always committer
// waits for written, not for an fsync that will never come.
func pipeModes(mode Pipeline, policy Policy, onDisk bool) (logpipe.Wait, logpipe.Flush) {
	if !onDisk {
		policy = SyncNone
	}
	wait, flush := logpipe.WaitNone, logpipe.FlushNever
	switch policy {
	case SyncAlways:
		flush = logpipe.FlushEachBatch
	case SyncEverySec:
		flush = logpipe.FlushEverySec
	}
	if mode == PipeBatched {
		wait = logpipe.WaitWritten
		if policy == SyncAlways {
			wait = logpipe.WaitDurable
		}
	}
	return wait, flush
}

// Open creates a Log per cfg, recovering any existing segments at
// cfg.Path (their summaries restore the sequence and the counters).
func Open(cfg Config) (*Log, error) {
	l := &Log{policy: cfg.Policy, mode: cfg.Pipeline, clk: cfg.Clock, memCap: cfg.MemoryCap, retention: cfg.Retention}
	if l.clk == nil {
		l.clk = clock.NewReal()
	}
	if l.memCap <= 0 {
		l.memCap = defaultMemoryCap
	}
	segBytes := cfg.SegmentBytes
	if segBytes <= 0 {
		segBytes = defaultSegmentBytes
	}
	spec := logpipe.Spec[Entry]{Clock: l.clk, Stamp: func(seq uint64, e *Entry) {
		e.Seq = seq
		e.Time = l.clk.Now()
	}}
	if cfg.Path != "" {
		store, err := openStore(cfg.Path, cfg.Key, segBytes)
		if err != nil {
			return nil, err
		}
		l.store = store
		spec.Start, l.stats.Appended, l.stats.Bytes = store.restoredCounters()
	}
	spec.Wait, spec.Flush = pipeModes(l.mode, l.policy, l.store != nil)
	l.pipe = logpipe.New[Entry]((*sink)(l), spec)
	return l, nil
}

// Pipeline reports the log's append-path mode.
func (l *Log) Pipeline() Pipeline { return l.mode }

// SyncPolicy reports the log's fsync policy.
func (l *Log) SyncPolicy() Policy { return l.policy }

// Append records one entry, assigning its sequence number and timestamp,
// and returns the stored entry. Under PipeSync it sequences, writes and
// (per policy) fsyncs inline in the caller, serialized behind the
// sequencer lock — the ablation baseline; under PipeBatched it returns
// once the writer has group-committed the entry (under SyncAlways, once a
// group fsync covers it); under PipeAsync immediately.
func (l *Log) Append(e Entry) (Entry, error) {
	if l.mode == PipeSync {
		return l.pipe.Direct(e)
	}
	if err := l.pipe.Reserve(); err != nil {
		return Entry{}, err
	}
	e, seq, err := l.pipe.Stage(e, true)
	if err != nil {
		return Entry{}, err
	}
	return e, l.pipe.Wait(seq)
}

// Submit records one entry, discarding the assigned sequence — the
// non-blocking (modulo the pipeline's own semantics) hot-path form the
// compliance middleware uses.
func (l *Log) Submit(e Entry) { _, _ = l.Append(e) }

// sink is the Log seen by its pipe.
type sink Log

// Write appends one batch to the segment store and publishes it to the
// memory tail.
func (s *sink) Write(batch []Entry) error {
	l := (*Log)(s)
	var encoded int64
	if l.store != nil {
		n, err := l.store.append(batch)
		if err != nil {
			return err
		}
		encoded = n
	} else {
		for _, e := range batch {
			encoded += int64(len(e.encode()))
		}
	}
	l.mu.Lock()
	l.entries = append(l.entries, batch...)
	if len(l.entries) > l.memCap {
		// Evict the oldest half to amortize copying; evicted entries
		// remain queryable from the segment store.
		keep := l.memCap / 2
		l.entries = append(l.entries[:0:0], l.entries[len(l.entries)-keep:]...)
	}
	l.stats.Appended += int64(len(batch))
	l.stats.Bytes += encoded
	l.mu.Unlock()
	l.maybeCompact()
	return nil
}

// Sync fsyncs the active segment.
func (s *sink) Sync() error {
	if s.store == nil {
		return nil
	}
	return s.store.sync()
}

// Compact enforces the retention window now: segments of the on-disk
// trail holding only entries older than Config.Retention are deleted,
// and the segment straddling the cutoff is rewritten without its expired
// prefix. Queries keep running throughout (the swap excludes them only
// for a rename). It returns how many entries were dropped; a log without
// a backing store or a retention window compacts nothing.
func (l *Log) Compact() (int64, error) {
	if l.store == nil || l.retention <= 0 {
		return 0, nil
	}
	start := l.clk.Now()
	defer func() { obsCompactionNs.ObserveDuration(l.clk.Since(start)) }()
	cutoff := start.Add(-l.retention).UnixNano()
	dropped, changed, err := l.store.compact(cutoff)
	if changed {
		// Prune the memory tail to mirror disk: every sealed entry below
		// the cutoff is gone from the trail now, and the tail is its
		// cache. Entries still in the active segment stay — they are
		// reclaimed when that segment seals.
		bound := l.store.activeMinSeq()
		l.mu.Lock()
		i := 0
		for i < len(l.entries) {
			e := l.entries[i]
			if e.Time.UnixNano() >= cutoff || (bound != 0 && e.Seq >= bound) {
				break
			}
			i++
		}
		if i > 0 {
			l.entries = append(l.entries[:0:0], l.entries[i:]...)
		}
		l.stats.Compactions++
		l.stats.CompactedEntries += dropped
		l.mu.Unlock()
	}
	return dropped, err
}

// maybeCompact launches one background retention pass when a segment has
// sealed since the last pass. Compaction failures are swallowed here —
// they never poison the append path — and surface through query errors
// if the trail is genuinely damaged.
func (l *Log) maybeCompact() {
	if l.store == nil || l.retention <= 0 {
		return
	}
	g := l.store.sealGen.Load()
	if g == l.compactGen.Load() {
		return
	}
	if !l.compactRunning.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer l.compactRunning.Store(false)
		l.compactGen.Store(g)
		_, _ = l.Compact()
	}()
}

// ---------------------------------------------------------------------------
// Queries: disk + memory, correct across eviction and restart

// tailSnapshot returns the current memory tail and the sequence at which
// it starts; entries below it are served from the segment store.
func (l *Log) tailSnapshot() ([]Entry, uint64) {
	// Read before the tail: everything at or below the written watermark
	// has finished its sink Write, so it is in the store and, unless
	// evicted, in the tail examined next.
	memStart := l.pipe.Written() + 1
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) > 0 {
		memStart = l.entries[0].Seq
	}
	return l.entries, memStart
}

// Range returns the entries with from <= Time <= to, in order. This
// backs GET-SYSTEM-LOGS (G 33, 34: regulators investigate logs "based on
// time ranges"). Entries evicted from the memory tail are read back from
// the segment store (pruned by per-segment time bounds), so results are
// independent of MemoryCap and survive restarts; a memory-only log can
// only answer from its tail.
func (l *Log) Range(from, to time.Time) ([]Entry, error) {
	if err := l.pipe.Barrier(); err != nil {
		return nil, err
	}
	tail, memStart := l.tailSnapshot()
	var out []Entry
	if l.store != nil && memStart > 1 {
		err := l.store.read(1, memStart-1,
			func(m *segMeta) bool { return m.overlapsTime(from, to) },
			func(e Entry) bool { return !e.Time.Before(from) && !e.Time.After(to) },
			func(e Entry) { out = append(out, e) })
		if err != nil {
			return nil, err
		}
	}
	lo := sort.Search(len(tail), func(i int) bool {
		return !tail[i].Time.Before(from)
	})
	for _, e := range tail[lo:] {
		if e.Time.After(to) {
			break
		}
		out = append(out, e)
	}
	return out, nil
}

// Tail returns up to n most recent entries, oldest first, reaching into
// the segment store when the memory tail holds fewer than n.
func (l *Log) Tail(n int) ([]Entry, error) {
	if err := l.pipe.Barrier(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, nil
	}
	tail, memStart := l.tailSnapshot()
	if n <= len(tail) || l.store == nil || memStart <= 1 {
		if n > len(tail) {
			n = len(tail)
		}
		return append([]Entry(nil), tail[len(tail)-n:]...), nil
	}
	// Sequences are dense, so the wanted window is exactly a seq range.
	last := memStart - 1 + uint64(len(tail))
	from := uint64(1)
	if last > uint64(n) {
		from = last - uint64(n) + 1
	}
	var out []Entry
	err := l.store.read(from, memStart-1,
		func(*segMeta) bool { return true },
		func(Entry) bool { return true },
		func(e Entry) { out = append(out, e) })
	if err != nil {
		return nil, err
	}
	out = append(out, tail...)
	if len(out) > n {
		out = out[len(out)-n:]
	}
	return out, nil
}

// ByActor returns entries whose Actor matches, in order. Segments whose
// bloom summary excludes the actor are skipped without being read.
func (l *Log) ByActor(actor string) ([]Entry, error) {
	if err := l.pipe.Barrier(); err != nil {
		return nil, err
	}
	tail, memStart := l.tailSnapshot()
	var out []Entry
	if l.store != nil && memStart > 1 {
		err := l.store.read(1, memStart-1,
			func(m *segMeta) bool { return m.actors.mayContain(actor) },
			func(e Entry) bool { return e.Actor == actor },
			func(e Entry) { out = append(out, e) })
		if err != nil {
			return nil, err
		}
	}
	for _, e := range tail {
		if e.Actor == actor {
			out = append(out, e)
		}
	}
	return out, nil
}

// Total reports how many entries were ever appended (restored from the
// segment summaries across restarts).
func (l *Log) Total() int64 { return int64(l.pipe.Seq()) }

// Bytes reports total encoded entry bytes appended; feeds the
// space-overhead metric.
func (l *Log) Bytes() int64 {
	_ = l.pipe.Barrier()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats.Bytes
}

// Stats snapshots the pipeline counters (after a barrier, so they cover
// every accepted entry).
func (l *Log) Stats() Stats {
	ps := l.pipe.Stats()
	l.mu.Lock()
	s := l.stats
	l.mu.Unlock()
	s.Batches, s.Flushes, s.MaxQueueDepth = ps.Batches, ps.Flushes, ps.MaxQueue
	if l.store != nil {
		s.Segments = l.store.segments()
	}
	return s
}

// Sync forces every accepted entry to stable storage.
func (l *Log) Sync() error {
	if l.store == nil {
		return l.pipe.Barrier()
	}
	return l.pipe.Sync()
}

// Close drains the staging pipeline, seals the active segment (flush,
// fsync, sidecar summary) and closes the trail. Close is idempotent;
// queries keep working on the closed log.
func (l *Log) Close() error {
	err := l.pipe.Close()
	if l.store != nil {
		if serr := l.store.close(); serr != nil {
			err = serr
		}
	}
	return err
}
