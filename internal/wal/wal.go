// Package wal is a write-ahead log for the relational engine, standing in
// for PostgreSQL's WAL. Every mutation is logged before it is applied;
// recovery replays intact records in LSN order and stops at the first
// corrupt or torn record.
//
// Each record is one securefs frame (optionally encrypted at rest — the
// LUKS substitution) containing:
//
//	lsn(8) | type(1) | crc32(4) | payload
//
// The CRC covers lsn, type and payload, catching corruption even on
// unencrypted files (encrypted files are additionally authenticated by
// AES-GCM).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/securefs"
)

// RecordType tags what a WAL record describes.
type RecordType byte

// Record types.
const (
	// RecInsert is a row insert; payload is table\x00key\x00rowbytes.
	RecInsert RecordType = 1
	// RecUpdate is a row update; payload layout matches RecInsert.
	RecUpdate RecordType = 2
	// RecDelete is a row delete; payload is table\x00key.
	RecDelete RecordType = 3
	// RecCheckpoint marks a consistent point; payload is free-form.
	RecCheckpoint RecordType = 4
)

func (t RecordType) String() string {
	switch t {
	case RecInsert:
		return "insert"
	case RecUpdate:
		return "update"
	case RecDelete:
		return "delete"
	case RecCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("RecordType(%d)", byte(t))
	}
}

// Record is one decoded WAL entry.
type Record struct {
	LSN     uint64
	Type    RecordType
	Payload []byte
}

// ErrCorrupt is returned when a record fails its CRC or framing checks.
var ErrCorrupt = errors.New("wal: corrupt record")

// SyncPolicy controls when the WAL reaches stable storage.
type SyncPolicy int

// Sync policies (PostgreSQL's synchronous_commit spectrum, reduced).
const (
	// SyncOnCommit makes every committed operation wait for an fsync
	// covering its record (synchronous_commit=on). The fsync is shared:
	// Append only buffers the record, and WaitDurable batches all
	// concurrent committers into one fsync (group commit), so N writers
	// pay ~1 fsync instead of N.
	SyncOnCommit SyncPolicy = iota
	// SyncBatched fsyncs at most once per second (off/local semantics):
	// Append never syncs; a background flusher — PostgreSQL's walwriter —
	// syncs what was appended since the last sync once per WAL-clock
	// second, so an acknowledged commit reaches disk even when no later
	// Append comes.
	SyncBatched
	// SyncNever leaves flushing to the OS.
	SyncNever
)

// Config configures a WAL.
type Config struct {
	// Path is the backing file.
	Path string
	// Key enables at-rest encryption.
	Key []byte
	// Policy is the sync policy; default SyncBatched.
	Policy SyncPolicy
	// Clock paces the SyncBatched flusher and times fsyncs; defaults to
	// the real clock.
	Clock clock.Clock
}

// WAL is an append-only write-ahead log. It is safe for concurrent use.
//
// Commit protocol: Append assigns an LSN and buffers the record;
// durability is a separate step. A committer that needs its record on
// stable storage calls WaitDurable(lsn): the first committer through
// becomes the sync leader and fsyncs everything appended so far, while
// committers arriving during that fsync queue up and are covered either
// by the leader's fsync (if their record was already buffered) or by the
// single fsync the next leader issues for the whole queued batch. That
// is group commit: under concurrency the fsync cost amortizes across all
// in-flight commits instead of serializing per record.
type WAL struct {
	mu      sync.Mutex
	file    *securefs.File
	path    string
	key     []byte
	nextLSN uint64
	policy  SyncPolicy
	clk     clock.Clock
	closed  bool
	buf     []byte

	// syncMu serializes fsyncs; the queue that forms on it is the group-
	// commit batch. durable is the highest LSN known to be on stable
	// storage.
	syncMu  sync.Mutex
	durable atomic.Uint64

	// stop ends the SyncBatched idle flusher, which closes stopped on
	// exit; both are nil under the other policies.
	stop, stopped chan struct{}
}

// groupGatherYields is how many scheduler yields a batch leader performs
// before flushing — the commit_delay analog, in scheduler quanta instead
// of wall time (a timer sleep would round up to OS timer granularity,
// ~1ms, dwarfing the fsync it amortizes). Each yield lets runnable
// sibling committers append their records and queue behind the leader,
// growing the batch its one fsync covers; when no siblings are runnable
// the whole loop costs ~a microsecond.
const groupGatherYields = 16

// Open opens (creating if needed) the WAL at cfg.Path for appending. The
// caller replays existing records first via Replay, then passes the last
// seen LSN to continue the sequence.
func Open(cfg Config, lastLSN uint64) (*WAL, error) {
	f, err := securefs.Append(cfg.Path, securefs.Options{Key: cfg.Key})
	if err != nil {
		return nil, err
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.NewReal()
	}
	w := &WAL{file: f, path: cfg.Path, key: cfg.Key, nextLSN: lastLSN + 1, policy: cfg.Policy, clk: clk}
	if w.policy == SyncBatched {
		w.stop, w.stopped = make(chan struct{}), make(chan struct{})
		go w.flushIdle()
	}
	return w, nil
}

// flushIdle is SyncBatched's only sync path: once per WAL-clock second it
// syncs the records appended since the last sync, off every writer's
// lock. A failed sync has no caller to report to; the records stay above
// the durable watermark and the next second tries again.
func (w *WAL) flushIdle() {
	defer close(w.stopped)
	for {
		select {
		case <-w.stop:
			return
		case <-w.clk.After(time.Second):
		}
		w.mu.Lock()
		dirty := w.durable.Load() < w.nextLSN-1
		w.mu.Unlock()
		if dirty {
			_ = w.Sync()
		}
	}
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendRecord renders one record — lsn(8) | type(1) | crc32(4) | payload
// — into buf, shared by the live Append path and the checkpoint writer.
func appendRecord(buf []byte, lsn uint64, t RecordType, payload []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf[:0], lsn)
	buf = append(buf, byte(t))
	// CRC over lsn|type|payload; reserve its slot now.
	crcPos := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf = append(buf, payload...)
	crc := crc32.Checksum(buf[:crcPos], crcTable)
	crc = crc32.Update(crc, crcTable, buf[crcPos+4:])
	binary.BigEndian.PutUint32(buf[crcPos:], crc)
	return buf
}

// Append logs one record and returns its LSN.
func (w *WAL) Append(t RecordType, payload []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, errors.New("wal: append to closed WAL")
	}
	lsn := w.nextLSN
	w.nextLSN++

	w.buf = appendRecord(w.buf, lsn, t, payload)
	if err := w.file.AppendFrame(w.buf); err != nil {
		return 0, err
	}
	// No policy syncs here: a SyncOnCommit committer calls WaitDurable,
	// which batches concurrent commits into one fsync, and SyncBatched
	// leaves it to flushIdle.
	return lsn, nil
}

// syncFile fsyncs on a dedicated goroutine and parks the caller on a
// channel until it completes. Parking releases the caller's P, so other
// goroutines — snapshot readers and the committers forming the next
// group-commit batch — keep running while the kernel flushes. A raw
// blocking fsync syscall would instead pin the P until the scheduler's
// sysmon retakes it, which on a single-P runtime serializes everything
// behind every flush.
func (w *WAL) syncFile() error {
	done := make(chan error, 1)
	go func() { done <- w.file.Sync() }()
	return <-done
}

// advanceDurable raises the durable watermark to target (monotonic).
func (w *WAL) advanceDurable(target uint64) {
	for {
		cur := w.durable.Load()
		if target <= cur || w.durable.CompareAndSwap(cur, target) {
			return
		}
	}
}

// WaitDurable blocks until the record at lsn is on stable storage, using
// group commit: one fsync covers every record appended before it runs,
// so concurrent committers share the wait. Under SyncBatched and
// SyncNever it returns immediately — those policies trade durability lag
// for throughput by design (synchronous_commit=off), and their flushing
// stays time- or OS-driven.
func (w *WAL) WaitDurable(lsn uint64) error {
	if w.policy != SyncOnCommit {
		return nil
	}
	if w.durable.Load() >= lsn {
		return nil
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.durable.Load() >= lsn {
		// A leader that ran while we queued already covered our record.
		return nil
	}
	// We are this batch's leader: yield a few scheduler quanta so any
	// concurrent committers get to append their records into this batch,
	// then fsync everything appended so far.
	for i := 0; i < groupGatherYields; i++ {
		runtime.Gosched()
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return errors.New("wal: wait on closed WAL")
	}
	target := w.nextLSN - 1
	start := w.clk.Now()
	w.mu.Unlock()
	batch := int64(target - w.durable.Load())
	if err := w.syncFile(); err != nil {
		return err
	}
	obsWALFsyncNs.ObserveDuration(w.clk.Since(start))
	obsWALBatchLSNs.Observe(batch)
	w.advanceDurable(target)
	return nil
}

// DurableLSN returns the highest LSN known to be on stable storage.
func (w *WAL) DurableLSN() uint64 { return w.durable.Load() }

// Sync forces buffered records to stable storage.
func (w *WAL) Sync() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	if w.file == nil {
		w.mu.Unlock()
		return nil
	}
	target := w.nextLSN - 1
	w.mu.Unlock()
	if err := w.syncFile(); err != nil {
		return err
	}
	w.advanceDurable(target)
	return nil
}

// Size returns the on-disk size of the WAL.
func (w *WAL) Size() (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.file.Size()
}

// NextLSN returns the LSN the next Append will use.
func (w *WAL) NextLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN
}

// RotatedSuffix names the file a Rotate moves the filled log segment to.
const RotatedSuffix = ".old"

// Rotate seals the current log file and starts a fresh one at the same
// path: the filled segment is fsynced, closed and renamed to
// path+RotatedSuffix, and the LSN sequence continues into the new file.
// It returns the highest LSN contained in the rotated-out segment — the
// checkpoint "cut": once a checkpoint covering the cut is durable, the
// rotated segment is redundant and may be deleted, which is how the WAL
// prefix gets truncated without ever rewriting the live file. Callers
// must not leave an earlier rotated segment at the target name (a second
// rotation would clobber it).
func (w *WAL) Rotate() (cut uint64, err error) {
	// syncMu first (the WaitDurable order) so no group-commit fsync can
	// hold the old file handle across the swap.
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if cut, err = w.swapFile(); err != nil {
		return 0, err
	}
	// Make the rename and the new live file durable before any fsync into
	// the new file can count: a crash that undid them would lose those
	// records. syncMu alone holds off every such fsync (WaitDurable, Sync
	// and the flusher all take it first), so appenders go on meanwhile.
	if err := securefs.SyncDir(filepath.Dir(w.path)); err != nil {
		return 0, err
	}
	return cut, nil
}

// swapFile is Rotate's w.mu-held part: it fsyncs and closes the live
// file, renames it to path+RotatedSuffix, opens a fresh one in its place
// and returns the last LSN of the old one. The caller holds syncMu.
func (w *WAL) swapFile() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, errors.New("wal: rotate on closed WAL")
	}
	cut := w.nextLSN - 1
	if err := w.file.Sync(); err != nil {
		return 0, err
	}
	if err := w.file.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(w.path, w.path+RotatedSuffix); err != nil {
		return 0, err
	}
	nf, err := securefs.Append(w.path, securefs.Options{Key: w.key})
	if err != nil {
		return 0, err
	}
	w.file = nf
	// Everything in the rotated segment was fsynced above.
	w.advanceDurable(cut)
	return cut, nil
}

// Close stops the idle flusher, then flushes and closes the WAL. Close
// is idempotent.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	if w.stop != nil {
		// Unlocked: the flusher's Sync takes w.mu.
		close(w.stop)
		<-w.stopped
	}
	return w.file.Close()
}

// Replay reads the WAL at path in order, calling fn for each intact
// record. It returns the last LSN seen. Like crash recovery, it treats a
// missing file as an empty log and a torn tail (ErrCorrupt from the frame
// layer or a CRC mismatch) as end-of-log rather than an error; earlier
// records are all delivered.
func Replay(path string, key []byte, fn func(Record) error) (uint64, error) {
	if _, err := os.Stat(path); os.IsNotExist(err) {
		return 0, nil
	}
	var last uint64
	err := securefs.Replay(path, securefs.Options{Key: key}, func(p []byte) error {
		rec, err := decode(p)
		if err != nil {
			return err
		}
		if rec.LSN <= last && last != 0 {
			return fmt.Errorf("wal: LSN regression %d after %d: %w", rec.LSN, last, ErrCorrupt)
		}
		last = rec.LSN
		return fn(rec)
	})
	if err != nil && (errors.Is(err, ErrCorrupt) || errors.Is(err, securefs.ErrCorruptFrame)) {
		// Torn tail: recovered up to `last`.
		return last, nil
	}
	return last, err
}

func decode(p []byte) (Record, error) {
	if len(p) < 13 {
		return Record{}, fmt.Errorf("wal: short record (%d bytes): %w", len(p), ErrCorrupt)
	}
	lsn := binary.BigEndian.Uint64(p[:8])
	t := RecordType(p[8])
	crcStored := binary.BigEndian.Uint32(p[9:13])
	crc := crc32.Checksum(p[:9], crcTable)
	crc = crc32.Update(crc, crcTable, p[13:])
	if crc != crcStored {
		return Record{}, fmt.Errorf("wal: crc mismatch at lsn %d: %w", lsn, ErrCorrupt)
	}
	return Record{LSN: lsn, Type: t, Payload: append([]byte(nil), p[13:]...)}, nil
}

// ---------------------------------------------------------------------------
// Checkpoint files
//
// A checkpoint is a self-contained file in the WAL's own record format:
// a snapshot of the database as RecInsert records (with synthetic dense
// LSNs starting at 1, so Replay's monotonicity check holds) followed by
// one RecCheckpoint trailer whose payload is the 8-byte big-endian "cut"
// — the live-log LSN the snapshot supersedes. Recovery replays the
// checkpoint like any WAL, reads the cut from the trailer, and skips
// live-log records at or below it. A checkpoint file without its trailer
// (crash mid-write) is simply a torn tail: the snapshot prefix applies,
// the cut stays 0, and the full live log replays over it idempotently —
// but writers avoid even that window by building the file under a tmp
// name and renaming it into place only after Seal.

// CheckpointWriter streams a checkpoint file.
type CheckpointWriter struct {
	file *securefs.File
	lsn  uint64
	buf  []byte
}

// CreateCheckpoint starts a checkpoint file at path (truncating any
// previous one there).
func CreateCheckpoint(path string, key []byte) (*CheckpointWriter, error) {
	f, err := securefs.Create(path, securefs.Options{Key: key, BufferSize: 1 << 16})
	if err != nil {
		return nil, err
	}
	return &CheckpointWriter{file: f}, nil
}

// Append adds one snapshot record.
func (c *CheckpointWriter) Append(t RecordType, payload []byte) error {
	c.lsn++
	c.buf = appendRecord(c.buf, c.lsn, t, payload)
	return c.file.AppendFrame(c.buf)
}

// Seal writes the RecCheckpoint trailer recording cut, then syncs and
// closes the file. The checkpoint is complete only once Seal returns.
func (c *CheckpointWriter) Seal(cut uint64) error {
	var p [8]byte
	binary.BigEndian.PutUint64(p[:], cut)
	if err := c.Append(RecCheckpoint, p[:]); err != nil {
		c.file.Close()
		return err
	}
	if err := c.file.Sync(); err != nil {
		c.file.Close()
		return err
	}
	return c.file.Close()
}

// Abort discards the writer (the caller removes the tmp file).
func (c *CheckpointWriter) Abort() { c.file.Close() }

// CheckpointCut extracts the cut LSN from a RecCheckpoint payload.
func CheckpointCut(payload []byte) (uint64, bool) {
	if len(payload) != 8 {
		return 0, false
	}
	return binary.BigEndian.Uint64(payload), true
}

// EncodeKV packs table, key and row bytes into a mutation payload.
func EncodeKV(table, key string, row []byte) []byte {
	out := make([]byte, 0, len(table)+len(key)+len(row)+2)
	out = append(out, table...)
	out = append(out, 0)
	out = append(out, key...)
	out = append(out, 0)
	out = append(out, row...)
	return out
}

// DecodeKV unpacks a mutation payload produced by EncodeKV.
func DecodeKV(p []byte) (table, key string, row []byte, err error) {
	i := indexByte(p, 0)
	if i < 0 {
		return "", "", nil, fmt.Errorf("wal: payload missing table separator: %w", ErrCorrupt)
	}
	j := indexByte(p[i+1:], 0)
	if j < 0 {
		return "", "", nil, fmt.Errorf("wal: payload missing key separator: %w", ErrCorrupt)
	}
	table = string(p[:i])
	key = string(p[i+1 : i+1+j])
	row = p[i+1+j+1:]
	return table, key, row, nil
}

func indexByte(p []byte, b byte) int {
	for i, c := range p {
		if c == b {
			return i
		}
	}
	return -1
}
