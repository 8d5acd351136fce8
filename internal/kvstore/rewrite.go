package kvstore

import (
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"repro/internal/securefs"
)

// Background AOF rewrite — Redis' BGREWRITEAOF, done concurrently with
// live traffic instead of under a global freeze:
//
//  1. start diverting: every frame the sink appends to the live
//     AOF is also copied into an in-memory rewrite buffer (under the
//     same IO lock as the append, so the copy is exact and ordered);
//  2. snapshot the store stripe by stripe: copy each stripe's (key,
//     value, deadline) triples out under its read lock, then encode
//     and stream them to path+".rewrite" with no lock held;
//  3. swap under a short exclusive IO window: drain the rewrite buffer
//     onto the new file, fsync, atomically rename over the live AOF and
//     reopen.
//
// Correctness rests on the AOF grammar being idempotent last-writer-wins
// state setters and on the apply-then-stage critical section (staged or
// Direct alike): an op sequenced before the divert began was applied
// inside its stripe's critical section, which the snapshot's read lock
// cannot enter mid-update — so its effect is in the snapshot. An op
// applied after a stripe's snapshot was staged after the divert began, so
// its frame lands in the rewrite buffer. Ops captured by both re-apply
// idempotently. FLUSHALL holds every stripe lock, so a flush landing
// between two stripe snapshots wipes the mixed prefix via its diverted
// frame, exactly as it wiped the live store.
//
// With Striping > 0 GETs never block: readers share stripe locks with the
// snapshot copy. Writers to a stripe — and at Striping = 0, where the
// read lock is exclusive, every command — wait only for that stripe's
// copy-out (memory speed, no IO), plus the swap's buffered-drain window
// at the end for writers.

// autoRewriteMinBytes is the size floor below which the auto-rewrite
// policy never fires (Redis' auto-aof-rewrite-min-size, scaled to
// benchmark datasets).
const autoRewriteMinBytes = 1 << 20

// beginDivert arms the rewrite buffer. From here every frame the writer
// appends is mirrored into p.divert until swapRewritten or abortDivert.
func (p *aofPipe) beginDivert() error {
	p.fileMu.Lock()
	defer p.fileMu.Unlock()
	if p.fileClosed {
		return errClosed
	}
	p.diverting = true
	p.divert = p.divert[:0]
	p.divertOps = 0
	return nil
}

// abortDivert drops the rewrite buffer (failed rewrite; the live AOF is
// untouched and still authoritative).
func (p *aofPipe) abortDivert() {
	p.fileMu.Lock()
	p.diverting, p.divert, p.divertOps = false, nil, 0
	p.fileMu.Unlock()
}

// swapRewritten is the rewrite's exclusive window: with the IO lock held
// it drains the rewrite buffer onto nf, fsyncs it, renames it over the
// live AOF and reopens. Writer batches queue on fileMu for the duration
// (buffered-drain plus one rename — no snapshot IO). Callers hold
// rewriteMu. On an error before the old file is touched the live AOF
// stays authoritative; after that point the pipe is poisoned via Fail.
// Returns the diverted-frame count and the new file's size.
func (p *aofPipe) swapRewritten(nf *securefs.File, tmp string, key []byte) (int64, int64, error) {
	p.fileMu.Lock()
	defer p.fileMu.Unlock()
	buf, diverted := p.divert, p.divertOps
	p.diverting, p.divert, p.divertOps = false, nil, 0
	abort := func(err error) (int64, int64, error) {
		nf.Close()
		os.Remove(tmp)
		return 0, 0, err
	}
	if p.fileClosed {
		return abort(errClosed)
	}
	if err := p.log.Err(); err != nil {
		return abort(err)
	}
	// Drain the rewrite buffer: every frame appended to the old file
	// since the divert began replays onto the new file in commit order.
	for len(buf) > 0 {
		l, n := binary.Uvarint(buf)
		if n <= 0 || uint64(len(buf)-n) < l {
			return abort(fmt.Errorf("kvstore: corrupt rewrite buffer"))
		}
		if err := nf.AppendFrame(buf[n : n+int(l)]); err != nil {
			return abort(err)
		}
		buf = buf[n+int(l):]
	}
	if err := nf.Sync(); err != nil {
		return abort(err)
	}
	if err := nf.Close(); err != nil {
		return abort(err)
	}
	// Point of no return: the old handle closes before the rename, so
	// any failure past here poisons the pipe rather than risking a
	// half-swapped AOF.
	poison := func(err error) (int64, int64, error) {
		p.log.Fail(err)
		return 0, 0, err
	}
	if err := p.file.Close(); err != nil {
		return poison(err)
	}
	if err := securefs.Replace(tmp, p.path); err != nil {
		return poison(err)
	}
	na, err := securefs.Append(p.path, p.fileOptions(key))
	if err != nil {
		return poison(err)
	}
	p.file = na
	size, _ := na.Size()
	// The new file holds every written seq (snapshot ∪ rewrite buffer)
	// and is fully synced.
	p.log.MarkDurable()
	return diverted, size, nil
}

// Rewrite compacts the AOF: the current dataset is written as a fresh
// sequence of SET/SETEX commands to path+".rewrite", which then
// atomically replaces the live AOF (Redis' BGREWRITEAOF; see the file
// comment). One runs at a time; close() waits for it via rewriteMu.
func (s *Store) Rewrite() error {
	p := s.pipe
	if p == nil {
		return fmt.Errorf("kvstore: no AOF to rewrite")
	}
	p.rewriteMu.Lock()
	defer p.rewriteMu.Unlock()
	if s.closed.Load() {
		return errClosed
	}
	if err := p.log.Err(); err != nil {
		return err
	}
	start := time.Now()
	tmp := p.path + ".rewrite"
	var key []byte
	if p.encrypted {
		key = s.aofKey
	}
	nf, err := securefs.Create(tmp, securefs.Options{Key: key, BufferSize: aofBufferSize})
	if err != nil {
		return err
	}
	if err := p.beginDivert(); err != nil {
		nf.Close()
		os.Remove(tmp)
		return err
	}
	fail := func(err error) error {
		p.abortDivert()
		nf.Close()
		os.Remove(tmp)
		return err
	}
	// Snapshot stripe by stripe: copy the (key, value, deadline) triples
	// out under the stripe's read lock, then encode and append with no
	// lock held. Expired-but-unreaped keys are kept: they replay and
	// expire again by their own deadline, like the log they replace.
	var buf []byte
	var snap []kv
	for i := range s.stripes {
		st := &s.stripes[i]
		s.rlock(st)
		snap = snap[:0]
		for _, k := range st.keySlice {
			e := st.dict[k]
			snap = append(snap, kv{k, e.value, e.expireAt})
		}
		s.runlock(st)
		for _, item := range snap {
			if item.expireAt.IsZero() {
				buf = encodeCommand(buf, opSet, item.key, item.value)
			} else {
				buf = encodeCommandNum(buf, item.expireAt.UnixNano(), opSetex, item.key, item.value)
			}
			if err := nf.AppendFrame(buf); err != nil {
				return fail(err)
			}
		}
	}
	diverted, size, err := p.swapRewritten(nf, tmp, key)
	if err != nil {
		return err
	}
	s.finishRewrite(start, diverted, size)
	return nil
}

// finishRewrite records rewrite stats and re-bases the auto-trigger
// ratio on the compacted size.
func (s *Store) finishRewrite(start time.Time, diverted, size int64) {
	s.rewrites.Add(1)
	s.lastRewriteMicros.Store(time.Since(start).Microseconds())
	s.divertedFrames.Add(diverted)
	if reclaimed := s.aofBase.Load() + s.aofAppended.Load() - size; reclaimed > 0 {
		obsRewriteReclaimed.Set(reclaimed)
	}
	obsRewriteNs.ObserveDuration(time.Since(start))
	s.aofBase.Store(size)
	s.aofAppended.Store(0)
}

// maybeAutoRewrite applies the -aofrewrite-pct policy on the write path:
// two atomic loads decide, and the rewrite itself runs on its own
// goroutine (at most one in flight). The policy is Redis' ratio — fire
// when the AOF has grown by pct% over its size after the last rewrite —
// with a floor so small datasets never churn.
func (s *Store) maybeAutoRewrite() {
	if s.autoPct <= 0 {
		return
	}
	base := s.aofBase.Load()
	grown := s.aofAppended.Load()
	if base+grown < autoRewriteMinBytes {
		return
	}
	if grown*100 < base*int64(s.autoPct) {
		return
	}
	if !s.rewriteRunning.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.rewriteRunning.Store(false)
		// Failure here is benign (store closing mid-trigger) or sticky
		// (pipeline poisoned) — either way it resurfaces on the write path.
		_ = s.Rewrite()
	}()
}
