package relstore

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/securefs"
	"repro/internal/wal"
)

// Config configures a DB.
type Config struct {
	// Clock supplies time; defaults to the real clock.
	Clock clock.Clock
	// WALPath enables write-ahead logging and crash recovery.
	WALPath string
	// WALSync is the WAL sync policy.
	WALSync wal.SyncPolicy
	// EncryptionKey encrypts the WAL at rest (the LUKS substitution).
	EncryptionKey []byte
	// Audit receives csvlog-style statement/response entries when
	// LogStatements is set.
	Audit *audit.Log
	// LogStatements enables statement + response logging for every
	// operation, reads included (the paper's PostgreSQL monitoring
	// retrofit: csvlog plus a row-level-security policy recording query
	// responses).
	LogStatements bool
	// CheckpointBytes arms automatic WAL checkpointing: once the live WAL
	// grows past this size, a background checkpoint snapshots every table
	// to WALPath+".ckpt" and truncates the pre-checkpoint log prefix, so
	// recovery replay time is bounded by live data instead of history.
	// 0 disables automatic checkpoints (Checkpoint stays callable).
	CheckpointBytes int64
}

// DB is the relational engine: a set of tables with write-ahead logging
// and optional statement logging. All methods are safe for concurrent
// use.
//
// Concurrency model (see DESIGN.md): the DB-level mu is a meta lock —
// every operation holds it shared for its whole duration, while
// CreateTable, Recover and Close take it exclusively. Writers then take
// their table's write lock, mutate the live view, stage its WAL records
// and publish a copy-on-write snapshot before releasing (DB.write); the
// durability wait happens after the table lock is released, so
// concurrent committers batch into one fsync. Readers load the published
// snapshot and never take a table lock at all: reads on one table run in
// parallel with each other, with writes to that table, and with
// everything on other tables.
type DB struct {
	mu     sync.RWMutex // meta lock: tables map, wal, closed, ttl fields
	tables map[string]*Table
	clk    clock.Clock
	wal    *wal.WAL
	cfg    Config

	ttlStop chan struct{}
	ttlDone chan struct{}
	closed  bool

	// Checkpoint state. ckptMu serializes checkpoints; ckptRunning keeps
	// auto-triggered ones to a single in-flight goroutine; writesSince
	// paces the WAL-size poll to one stat per 64 commits.
	ckptMu      sync.Mutex
	ckptRunning atomic.Bool
	writesSince atomic.Int64
	checkpoints atomic.Int64

	// Recovery stats: WAL records applied by the last Recover and its
	// wall-clock duration — the replay cost checkpointing bounds.
	recoveredRecords int64
	recoveryMicros   int64

	obsColl *obs.CollectorHandle
}

// Open creates a DB. If cfg.WALPath holds a log from a previous run, the
// caller must register the same schemas (CreateTable) and then call
// Recover before issuing operations.
func Open(cfg Config) (*DB, error) {
	db := &DB{tables: make(map[string]*Table), clk: cfg.Clock, cfg: cfg}
	if db.clk == nil {
		db.clk = clock.NewReal()
	}
	// Pull-time export of the checkpoint/recovery counters; several open
	// DBs (shards) emitting the same names roll up by summation.
	db.obsColl = obs.Default().RegisterCollector(func(emit func(string, int64, bool)) {
		records, micros, checkpoints := db.RecoveryStats()
		emit("relstore_wal_checkpoints_total", checkpoints, false)
		emit("relstore_recovered_records", records, true)
		emit("relstore_recovery_us", micros, true)
	})
	return db, nil
}

// CreateTable registers a table.
func (db *DB) CreateTable(s Schema) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errDBClosed
	}
	if _, ok := db.tables[s.Name]; ok {
		return fmt.Errorf("relstore: table %s already exists", s.Name)
	}
	t, err := newTable(s)
	if err != nil {
		return err
	}
	db.tables[s.Name] = t
	return nil
}

// CreateIndex builds a secondary index on table.col.
func (db *DB) CreateIndex(table, col string) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.tableLocked(table)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.live.createIndex(col); err != nil {
		return err
	}
	t.markDirty()
	return nil
}

// DropIndex removes the secondary index on table.col.
func (db *DB) DropIndex(table, col string) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.tableLocked(table)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.live.dropIndex(col); err != nil {
		return err
	}
	t.markDirty()
	return nil
}

// applyRecord applies one replayed WAL or checkpoint record to the
// registered tables. Application is idempotent: an insert over an
// existing key applies as update, an update of a missing key as insert,
// and a delete of a missing key as a no-op — so a record may safely be
// replayed over state that already reflects it (checkpoint snapshots
// overlap the log suffix by design).
func (db *DB) applyRecord(r wal.Record) error {
	switch r.Type {
	case wal.RecInsert, wal.RecUpdate:
		table, pk, rowBytes, err := wal.DecodeKV(r.Payload)
		if err != nil {
			return err
		}
		t, err := db.tableLocked(table)
		if err != nil {
			return err
		}
		row, err := decodeRow(t.live.schema, rowBytes)
		if err != nil {
			return err
		}
		if t.live.has(pk) {
			return t.live.update(pk, row)
		}
		return t.live.insert(row)
	case wal.RecDelete:
		table, pk, _, err := wal.DecodeKV(r.Payload)
		if err != nil {
			return err
		}
		t, err := db.tableLocked(table)
		if err != nil {
			return err
		}
		t.live.delete(pk)
		return nil
	case wal.RecCheckpoint:
		return nil
	default:
		return fmt.Errorf("relstore: unknown WAL record type %v", r.Type)
	}
}

// checkpointPath returns the sealed checkpoint file's path.
func (db *DB) checkpointPath() string { return db.cfg.WALPath + ".ckpt" }

// Recover replays the checkpoint (if one exists) and then the WAL into
// the registered tables, and opens the WAL for appending. It must be
// called once, after CreateTable and before any operation.
//
// Replay order: the sealed checkpoint file supplies the base state and
// its cut LSN; a rotated segment left by a checkpoint that crashed
// between Rotate and Seal replays next; finally the live log. Records at
// or below the cut are skipped — the checkpoint supersedes them — which
// is what bounds recovery time by live data rather than log history.
func (db *DB) Recover() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.cfg.WALPath == "" {
		return nil
	}
	if db.wal != nil {
		return fmt.Errorf("relstore: Recover called twice")
	}
	start := time.Now()
	var applied int64
	oldPath := db.cfg.WALPath + wal.RotatedSuffix
	// A leftover tmp means a checkpoint writer crashed mid-snapshot; it
	// was never renamed into place, so it holds no unique data.
	_ = os.Remove(db.checkpointPath() + ".tmp")

	var cut uint64
	if _, err := wal.Replay(db.checkpointPath(), db.cfg.EncryptionKey, func(r wal.Record) error {
		if r.Type == wal.RecCheckpoint {
			if c, ok := wal.CheckpointCut(r.Payload); ok {
				cut = c
			}
			return nil
		}
		applied++
		return db.applyRecord(r)
	}); err != nil {
		return err
	}
	applyPastCut := func(r wal.Record) error {
		if r.LSN <= cut {
			return nil
		}
		applied++
		return db.applyRecord(r)
	}
	// A rotated segment that outlived its checkpoint means the previous
	// checkpoint crashed between Rotate and Seal: its suffix past the cut
	// is covered by neither file, so replay it, then fold everything into
	// a fresh checkpoint below before deleting it.
	hadOld := false
	var oldLast uint64
	if _, err := os.Stat(oldPath); err == nil {
		hadOld = true
		var rerr error
		if oldLast, rerr = wal.Replay(oldPath, db.cfg.EncryptionKey, applyPastCut); rerr != nil {
			return rerr
		}
	}
	liveLast, err := wal.Replay(db.cfg.WALPath, db.cfg.EncryptionKey, applyPastCut)
	if err != nil {
		return err
	}
	last := cut
	if oldLast > last {
		last = oldLast
	}
	if liveLast > last {
		last = liveLast
	}
	w, err := wal.Open(wal.Config{
		Path:   db.cfg.WALPath,
		Key:    db.cfg.EncryptionKey,
		Policy: db.cfg.WALSync,
		Clock:  db.clk,
	}, last)
	if err != nil {
		return err
	}
	db.wal = w
	// Publish the recovered state as every table's first snapshot.
	for _, t := range db.tables {
		t.publish()
	}
	if hadOld {
		// Fold the orphaned segment into a fresh checkpoint so the next
		// Rotate has a clear target name, then drop it.
		if err := db.writeCheckpoint(last); err != nil {
			return err
		}
		if err := os.Remove(oldPath); err != nil {
			return err
		}
	}
	db.recoveredRecords = applied
	db.recoveryMicros = time.Since(start).Microseconds()
	return nil
}

// Checkpoint snapshots every table into WALPath+".ckpt" and truncates
// the pre-checkpoint WAL prefix, bounding recovery replay to roughly the
// live rows plus the log written since. The snapshot is taken per table
// under a brief write lock (an O(1) copy-on-write clone — LSNs are
// assigned under the same lock, so the clone covers everything at or
// below the cut) and streamed to disk off-lock; concurrent operations
// keep running throughout. No-op without a WAL. Safe to call manually
// even when automatic checkpointing is off.
func (db *DB) Checkpoint() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return errDBClosed
	}
	if db.wal == nil {
		return nil
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	ckptStart := time.Now()
	sizeBefore, _ := db.wal.Size()
	defer func() {
		obsCheckpointNs.ObserveDuration(time.Since(ckptStart))
		if sizeAfter, err := db.wal.Size(); err == nil && sizeBefore > sizeAfter {
			obsCheckpointReclaimed.Set(sizeBefore - sizeAfter)
		}
	}()
	oldPath := db.cfg.WALPath + wal.RotatedSuffix
	var cut uint64
	if _, err := os.Stat(oldPath); err == nil {
		// An earlier checkpoint crashed or failed between Rotate and
		// Seal: rotating again would clobber the only copy of that
		// segment's records. Cut at the current head instead — the
		// snapshot below covers both the orphaned segment and the live
		// log's prefix.
		cut = db.wal.NextLSN() - 1
	} else {
		c, err := db.wal.Rotate()
		if err != nil {
			return err
		}
		cut = c
	}
	if err := db.writeCheckpoint(cut); err != nil {
		return err
	}
	if err := os.Remove(oldPath); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// writeCheckpoint streams a snapshot of every table into the checkpoint
// file (via a tmp name, renamed into place only after Seal) recording
// cut as the log position the snapshot supersedes. Callers hold db.mu
// (any mode) and, outside Recover, ckptMu.
func (db *DB) writeCheckpoint(cut uint64) error {
	tmp := db.checkpointPath() + ".tmp"
	cw, err := wal.CreateCheckpoint(tmp, db.cfg.EncryptionKey)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		t := db.tables[name]
		// Clone under the table write lock: any writer whose record has
		// an LSN <= cut finished its live-view mutation under this lock
		// before we got it, so the clone reflects the whole cut prefix.
		t.mu.Lock()
		t.publish()
		v := t.snap.Load()
		t.mu.Unlock()
		var werr error
		v.scanAll(func(pk string, row Row) bool {
			werr = cw.Append(wal.RecInsert, wal.EncodeKV(name, pk, encodeRow(v.schema, row)))
			return werr == nil
		})
		if werr != nil {
			cw.Abort()
			_ = os.Remove(tmp)
			return werr
		}
	}
	if err := cw.Seal(cut); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := securefs.Replace(tmp, db.checkpointPath()); err != nil {
		return err
	}
	db.checkpoints.Add(1)
	return nil
}

// maybeCheckpoint arms the automatic checkpoint: every 64th commit polls
// the live WAL's size, and crossing Config.CheckpointBytes launches one
// background Checkpoint (never more than one in flight).
func (db *DB) maybeCheckpoint() {
	if db.cfg.CheckpointBytes <= 0 || db.wal == nil {
		return
	}
	if db.writesSince.Add(1)%64 != 0 {
		return
	}
	size, err := db.wal.Size()
	if err != nil || size < db.cfg.CheckpointBytes {
		return
	}
	if !db.ckptRunning.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer db.ckptRunning.Store(false)
		_ = db.Checkpoint()
	}()
}

// RecoveryStats reports the last Recover's applied record count and
// wall-clock duration, plus checkpoints completed since open.
func (db *DB) RecoveryStats() (records, micros, checkpoints int64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.recoveredRecords, db.recoveryMicros, db.checkpoints.Load()
}

// tableLocked resolves a table name; callers hold db.mu (any mode).
func (db *DB) tableLocked(name string) (*Table, error) {
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("relstore: no table %q", name)
	}
	return t, nil
}

func (db *DB) logStatement(op, table, detail string, rows int, ok bool) {
	if !db.cfg.LogStatements || db.cfg.Audit == nil {
		return
	}
	note := fmt.Sprintf("rows=%d", rows)
	// Submit stages the entry into the audit pipeline; under the batched
	// and async modes nothing is encoded or written while the table lock
	// is held.
	db.cfg.Audit.Submit(audit.Entry{
		Actor:  "relstore",
		Op:     op,
		Target: table + ":" + detail,
		OK:     ok,
		Note:   note,
	})
}

var errDBClosed = fmt.Errorf("relstore: database is closed")

// txn is one write statement's work under its table lock: the last LSN
// it staged and the rows it changed.
type txn struct {
	wal   *wal.WAL // nil: no WAL
	t     *Table
	table string
	lsn   uint64
	rows  int
}

// write runs one write statement: fn mutates t.live under the table lock,
// logging every changed row through logRow. The commit then marks the
// snapshot stale, unlocks and makes one durability wait on the last
// record — also after an error, because the rows already applied are
// visible — and the statement logs one entry (op, the detail fn
// returned, rows changed, err == nil). The wait runs off the table lock
// so concurrent committers share one fsync.
func (db *DB) write(op, table string, fn func(x *txn) (detail string, err error)) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return 0, errDBClosed
	}
	t, err := db.tableLocked(table)
	if err != nil {
		return 0, err
	}
	x := &txn{wal: db.wal, t: t, table: table}
	t.mu.Lock()
	detail, err := fn(x)
	if x.rows > 0 {
		t.markDirty()
	}
	t.mu.Unlock()
	if x.lsn > 0 {
		if werr := x.wal.WaitDurable(x.lsn); err == nil {
			err = werr
		}
	}
	db.maybeCheckpoint()
	db.logStatement(op, table, detail, x.rows, err == nil)
	return x.rows, err
}

// logRow counts one changed row and stages its WAL record (row nil: a
// delete).
func (x *txn) logRow(rt wal.RecordType, pk string, row Row) error {
	x.rows++
	if x.wal == nil {
		return nil
	}
	var rowBytes []byte
	if row != nil {
		rowBytes = encodeRow(x.t.live.schema, row)
	}
	lsn, err := x.wal.Append(rt, wal.EncodeKV(x.table, pk, rowBytes))
	if err == nil {
		x.lsn = lsn
	}
	return err
}

// insert adds row and returns its primary key.
func (x *txn) insert(row Row) (string, error) {
	if err := x.t.live.insert(row); err != nil {
		return "", err
	}
	pk := row[x.t.live.pkCol].(string)
	return pk, x.logRow(wal.RecInsert, pk, row)
}

// update replaces the row at pk with next.
func (x *txn) update(pk string, next Row) error {
	if err := x.t.live.update(pk, next); err != nil {
		return err
	}
	return x.logRow(wal.RecUpdate, pk, next)
}

// apply replaces the row at pk, if there is one, with fn of it.
func (x *txn) apply(pk string, fn func(Row) (Row, error)) error {
	old, ok := x.t.live.get(pk)
	if !ok {
		return nil
	}
	next, err := fn(old)
	if err != nil {
		return err
	}
	return x.update(pk, next)
}

// delete removes the row at pk, if there is one.
func (x *txn) delete(pk string) error {
	if !x.t.live.delete(pk) {
		return nil
	}
	return x.logRow(wal.RecDelete, pk, nil)
}

// each runs fn on the primary keys matching pred. Candidates resolve
// through the key-only path: with an index on the predicate column (the
// TTL daemon's case under MetadataIndexing) the statement touches
// exactly the matching rows.
func (x *txn) each(pred Predicate, fn func(pk string) error) error {
	pks, err := x.t.live.selectKeys(pred)
	if err != nil {
		return err
	}
	for _, pk := range pks {
		if err := fn(pk); err != nil {
			return err
		}
	}
	return nil
}

// Insert adds a row.
func (db *DB) Insert(table string, row Row) error {
	_, err := db.write("INSERT", table, func(x *txn) (string, error) { return x.insert(row) })
	return err
}

// InsertBatch adds rows to table as one engine call: one writer-lock
// acquisition, one WAL append per row, one snapshot publish and one
// group-commit wait for the whole batch — the bulk-load fast path used
// by core.Load. Rows apply in order; on the first bad row the rows
// already applied stay applied and the error is returned.
func (db *DB) InsertBatch(table string, rows []Row) error {
	detail := fmt.Sprintf("batch=%d", len(rows))
	_, err := db.write("INSERT", table, func(x *txn) (string, error) {
		for _, row := range rows {
			if _, err := x.insert(row); err != nil {
				return detail, err
			}
		}
		return detail, nil
	})
	return err
}

// Get returns the row with the given primary key.
func (db *DB) Get(table, pk string) (Row, bool, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.tableLocked(table)
	if err != nil {
		return nil, false, err
	}
	v := t.reader()
	row, ok := v.get(pk)
	n := 0
	if ok {
		n = 1
	}
	db.logStatement("SELECT", table, "pk="+pk, n, true)
	return row, ok, nil
}

// Update replaces the row with primary key pk.
func (db *DB) Update(table, pk string, row Row) error {
	_, err := db.write("UPDATE", table, func(x *txn) (string, error) { return "pk=" + pk, x.update(pk, row) })
	return err
}

// UpdateFunc loads the row at pk, applies fn, and stores the result.
// It returns false if the row does not exist.
func (db *DB) UpdateFunc(table, pk string, fn func(Row) (Row, error)) (bool, error) {
	n, err := db.write("UPDATE", table, func(x *txn) (string, error) { return "pk=" + pk, x.apply(pk, fn) })
	return n > 0, err
}

// Delete removes the row with primary key pk, reporting whether it existed.
func (db *DB) Delete(table, pk string) (bool, error) {
	n, err := db.write("DELETE", table, func(x *txn) (string, error) { return "pk=" + pk, x.delete(pk) })
	return n > 0, err
}

// SelectKeys returns the primary keys matching pred: a key-only
// projection that materializes no rows on either access path.
func (db *DB) SelectKeys(table string, pred Predicate) ([]string, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.tableLocked(table)
	if err != nil {
		return nil, err
	}
	v := t.reader()
	pks, err := v.selectKeys(pred)
	if err != nil {
		return nil, err
	}
	db.logStatement("SELECT", table, pred.String(), len(pks), true)
	return pks, nil
}

// DeleteWhere removes all rows matching pred, returning how many went.
func (db *DB) DeleteWhere(table string, pred Predicate) (int, error) {
	return db.write("DELETE", table, func(x *txn) (string, error) { return pred.String(), x.each(pred, x.delete) })
}

// UpdateWhere applies fn to every row matching pred, returning how many
// rows were updated.
func (db *DB) UpdateWhere(table string, pred Predicate, fn func(Row) (Row, error)) (int, error) {
	return db.write("UPDATE", table, func(x *txn) (string, error) {
		return pred.String(), x.each(pred, func(pk string) error { return x.apply(pk, fn) })
	})
}

// ScanPK returns up to limit rows in primary-key order starting at the
// first key >= start (a B-tree range scan on the PK index; YCSB workload
// E's access shape).
func (db *DB) ScanPK(table, start string, limit int) ([]Row, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.tableLocked(table)
	if err != nil {
		return nil, err
	}
	v := t.reader()
	var rows []Row
	v.scanFrom(start, func(pk string, row Row) bool {
		rows = append(rows, row.Clone())
		return len(rows) < limit
	})
	db.logStatement("SELECT", table, fmt.Sprintf("pk>=%s limit %d", start, limit), len(rows), true)
	return rows, nil
}

// Count returns the number of rows in table.
func (db *DB) Count(table string) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.tableLocked(table)
	if err != nil {
		return 0, err
	}
	v := t.reader()
	return v.Rows(), nil
}

// Sizes reports storage accounting for table: heap bytes and secondary
// index bytes — the inputs to the Table 3 space-overhead metric.
func (db *DB) Sizes(table string) (heap, index int64, err error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.tableLocked(table)
	if err != nil {
		return 0, 0, err
	}
	v := t.reader()
	return v.HeapBytes(), v.IndexBytes(), nil
}

// Tables lists table names, sorted.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Features reports engine facts, GET-SYSTEM-FEATURES style.
func (db *DB) Features() map[string]string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	f := map[string]string{
		"engine":         "relstore (postgres-model)",
		"wal":            "off",
		"log_statements": fmt.Sprintf("%v", db.cfg.LogStatements),
		"locking":        "table+snapshot",
	}
	if db.wal != nil {
		f["wal"] = "on"
		f["wal_encrypted"] = fmt.Sprintf("%v", db.cfg.EncryptionKey != nil)
		f["wal_checkpoints"] = fmt.Sprintf("%d", db.checkpoints.Load())
		if db.cfg.CheckpointBytes > 0 {
			f["wal_checkpoint_bytes"] = fmt.Sprintf("%d", db.cfg.CheckpointBytes)
		}
	}
	var idx []string
	for name, t := range db.tables {
		v := t.reader()
		for _, c := range v.IndexedColumns() {
			idx = append(idx, name+"."+c)
		}
	}
	sort.Strings(idx)
	f["indexes"] = fmt.Sprintf("%v", idx)
	return f
}

// StartTTLDaemon launches the timely-deletion daemon: every period it
// deletes rows of table whose col (a time column) is <= now. The paper's
// retrofit runs at a 1-second period. The sweep resolves expired rows
// through the key-only select path, so when col carries a secondary index
// (MetadataIndexing indexes the ttl column) each cycle is an ordered
// range scan over exactly the due rows — O(expired + log n), the same
// ordered-expiry path the kvstore's strict cycle gains — instead of a
// full-table scan.
func (db *DB) StartTTLDaemon(table, col string, period time.Duration) error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return errDBClosed
	}
	if db.ttlStop != nil {
		db.mu.Unlock()
		return fmt.Errorf("relstore: TTL daemon already running")
	}
	t, err := db.tableLocked(table)
	if err != nil {
		db.mu.Unlock()
		return err
	}
	ci := t.live.schema.ColIndex(col)
	if ci < 0 || t.live.schema.Columns[ci].Type != TypeTime {
		db.mu.Unlock()
		return fmt.Errorf("relstore: TTL column %s.%s must be a time column", table, col)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	db.ttlStop = stop
	db.ttlDone = done
	clk := db.clk
	db.mu.Unlock()

	go func() {
		defer close(done)
		for {
			timer := clk.After(period)
			select {
			case <-stop:
				return
			case <-timer:
				_, _ = db.DeleteWhere(table, Le(col, clk.Now()))
			}
		}
	}()
	return nil
}

// StopTTLDaemon stops the daemon, waiting for it to exit.
func (db *DB) StopTTLDaemon() {
	db.mu.Lock()
	stop := db.ttlStop
	done := db.ttlDone
	db.ttlStop = nil
	db.ttlDone = nil
	db.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// SweepExpired synchronously deletes rows of table whose time column col
// is <= now; the TTL daemon's body, callable directly from simulations.
func (db *DB) SweepExpired(table, col string) (int, error) {
	return db.DeleteWhere(table, Le(col, db.clk.Now()))
}

// Sync flushes the WAL.
func (db *DB) Sync() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.wal == nil {
		return nil
	}
	return db.wal.Sync()
}

// WALSize returns the WAL's on-disk size (0 without a WAL).
func (db *DB) WALSize() (int64, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.wal == nil {
		return 0, nil
	}
	return db.wal.Size()
}

// Close stops the TTL daemon and closes the WAL. Close is idempotent.
func (db *DB) Close() error {
	db.obsColl.Close()
	db.StopTTLDaemon()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	if db.wal != nil {
		return db.wal.Close()
	}
	return nil
}
