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
	"sync"

	"repro/internal/clock"
	"repro/internal/logpipe"
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
	// Append only stages the record, and the log's writer fsyncs once per
	// batch it writes (group commit), so N committers pay ~1 fsync.
	SyncOnCommit SyncPolicy = iota
	// SyncBatched fsyncs at most once per second (off/local semantics):
	// commits never wait, and the log's writer — PostgreSQL's walwriter —
	// syncs what was written since the last sync once per WAL-clock
	// second, so an acknowledged commit reaches disk even when no later
	// Append comes.
	SyncBatched
	// SyncNever leaves flushing to the OS.
	SyncNever
)

// pipeModes maps a sync policy onto logpipe the way the AOF maps
// appendfsync: always / everysec / no.
func pipeModes(policy SyncPolicy) (logpipe.Wait, logpipe.Flush) {
	switch policy {
	case SyncOnCommit:
		return logpipe.WaitDurable, logpipe.FlushEachBatch
	case SyncBatched:
		return logpipe.WaitNone, logpipe.FlushEverySec
	default:
		return logpipe.WaitNone, logpipe.FlushNever
	}
}

// Config configures a WAL.
type Config struct {
	// Path is the backing file.
	Path string
	// Key enables at-rest encryption.
	Key []byte
	// Policy is the sync policy; the zero value is SyncOnCommit.
	Policy SyncPolicy
	// Clock paces SyncBatched's once-a-second flush and times fsyncs;
	// defaults to the real clock.
	Clock clock.Clock
}

// entry is one staged record; the sink numbers it as it writes.
type entry struct {
	t       RecordType
	payload []byte
}

// WAL is an append-only write-ahead log, the third sink behind
// internal/logpipe. It is safe for concurrent use.
//
// Append stages a record and returns the pipe's sequence number as its
// LSN. Sequences are dense from the recovered last LSN, so the sink
// numbers records itself and file order is LSN order: whatever lock a
// caller holds while it appends — relstore's table lock, the one that
// orders apply — orders the records on disk too. Durability is the
// pipe's: WaitDurable parks until a sync covers the record, and under
// SyncOnCommit the writer syncs after every batch, so concurrent
// committers share one fsync (group commit).
type WAL struct {
	pipe *logpipe.Pipe[entry]
	path string
	key  []byte
	clk  clock.Clock

	// fileMu serializes file IO and Rotate's swap: the writer's batches,
	// every sink sync and Rotate take it.
	fileMu sync.Mutex
	file   *securefs.File
	buf    []byte // encode buffer, used inside Write
	last   uint64 // LSN of the last record written to file
	synced uint64 // LSN the last fsync covered
}

// sink is the WAL as logpipe sees it (WAL.Sync is the pipe-wide one).
type sink WAL

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
	w := &WAL{path: cfg.Path, key: cfg.Key, clk: clk, file: f, last: lastLSN, synced: lastLSN}
	wait, flush := pipeModes(cfg.Policy)
	w.pipe = logpipe.New[entry]((*sink)(w), logpipe.Spec[entry]{Wait: wait, Flush: flush, Clock: clk, Start: lastLSN})
	return w, nil
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

// Append stages one record and returns its LSN. The WAL owns payload
// until the record is written.
func (w *WAL) Append(t RecordType, payload []byte) (uint64, error) {
	// Unslotted: relstore appends under its table lock, and one statement
	// can append many rows, so a backpressure park must not happen here.
	_, lsn, err := w.pipe.Stage(entry{t, payload}, false)
	return lsn, err
}

// Write is the logpipe sink's batch step: one frame per record.
func (s *sink) Write(batch []entry) error {
	s.fileMu.Lock()
	defer s.fileMu.Unlock()
	for _, e := range batch {
		s.last++
		s.buf = appendRecord(s.buf, s.last, e.t, e.payload)
		if err := s.file.AppendFrame(s.buf); err != nil {
			return err
		}
	}
	return nil
}

// Sync is the logpipe sink's fsync step.
func (s *sink) Sync() error {
	s.fileMu.Lock()
	defer s.fileMu.Unlock()
	start := s.clk.Now()
	if err := s.file.Sync(); err != nil {
		return err
	}
	obsWALFsyncNs.ObserveDuration(s.clk.Since(start))
	obsWALBatchLSNs.Observe(int64(s.last - s.synced))
	s.synced = s.last
	return nil
}

// WaitDurable blocks until the record at lsn is on stable storage. Under
// SyncBatched and SyncNever it returns at once — those policies trade
// durability lag for throughput by design (synchronous_commit=off).
func (w *WAL) WaitDurable(lsn uint64) error { return w.pipe.Wait(lsn) }

// DurableLSN returns the highest LSN known to be on stable storage.
func (w *WAL) DurableLSN() uint64 { return w.pipe.Durable() }

// Sync forces every appended record to stable storage.
func (w *WAL) Sync() error { return w.pipe.Sync() }

// Size returns the on-disk size of the WAL, every appended record
// included.
func (w *WAL) Size() (int64, error) {
	if err := w.pipe.Barrier(); err != nil {
		return 0, err
	}
	w.fileMu.Lock()
	defer w.fileMu.Unlock()
	return w.file.Size()
}

// NextLSN returns the LSN the next Append will use.
func (w *WAL) NextLSN() uint64 { return w.pipe.Seq() + 1 }

// RotatedSuffix names the file a Rotate moves the filled log segment to.
const RotatedSuffix = ".old"

// Rotate seals the current log file and starts a fresh one at the same
// path: the filled segment is fsynced, closed and renamed to
// path+RotatedSuffix, and the LSN sequence continues into the new file.
// It returns the highest LSN the rotated-out segment holds — the
// checkpoint "cut": once a checkpoint covering the cut is durable, the
// rotated segment is redundant and may be deleted, which is how the WAL
// prefix gets truncated without ever rewriting the live file. Callers
// must not leave an earlier rotated segment at the target name (a second
// rotation would clobber it). A failure fails the log: the live file may
// be gone.
func (w *WAL) Rotate() (cut uint64, err error) {
	// Barrier first, so the old segment holds every record appended
	// before the call. The writer and every sync then queue on fileMu: no
	// batch lands and no sync counts until the new file and its
	// directory entry are durable.
	if err := w.pipe.Barrier(); err != nil {
		return 0, err
	}
	w.fileMu.Lock()
	defer w.fileMu.Unlock()
	defer func() {
		if err != nil {
			w.pipe.Fail(err)
		}
	}()
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
	if err := securefs.SyncDir(filepath.Dir(w.path)); err != nil {
		return 0, err
	}
	// Everything written so far is in the fsynced old segment.
	w.synced = w.last
	w.pipe.MarkDurable()
	return w.last, nil
}

// Close writes and syncs every appended record, then closes the WAL.
// Close is idempotent.
func (w *WAL) Close() error {
	err := w.pipe.Close()
	w.fileMu.Lock()
	cerr := w.file.Close()
	w.fileMu.Unlock()
	if err != nil {
		return err
	}
	return cerr
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
