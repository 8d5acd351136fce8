package audit

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/securefs"
)

// appendScript writes a deterministic mixed-actor trail on a simulated
// clock and returns the entries exactly as stored.
func appendScript(t *testing.T, l *Log, sim *clock.Sim, n int) []Entry {
	t.Helper()
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		sim.Advance(time.Second)
		e, err := l.Append(Entry{
			Actor:  fmt.Sprintf("customer:u%d", i%7),
			Op:     fmt.Sprintf("OP-%d", i%3),
			Target: fmt.Sprintf("rec-%04d", i),
			OK:     i%5 != 0,
			Note:   "n=1",
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	// Seq and Time are final when Append returns even in async mode;
	// Sync just forces the trail caught up and on disk before queries.
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	return out
}

func entriesEqual(t *testing.T, what string, got, want []Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestPipelineModesProduceIdenticalTrails pins that sync, batched and
// async are observationally equivalent: same sequences, same timestamps,
// same query results, same replayed disk content.
func TestPipelineModesProduceIdenticalTrails(t *testing.T) {
	type trail struct {
		appended []Entry
		all      []Entry
		byActor  []Entry
		tail     []Entry
		replayed []Entry
	}
	run := func(pipe Pipeline) trail {
		sim := clock.NewSim(time.Time{})
		epoch := sim.Now()
		path := filepath.Join(t.TempDir(), "trail.log")
		l, err := Open(Config{Path: path, Clock: sim, Pipeline: pipe, MemoryCap: 40, SegmentBytes: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		var tr trail
		tr.appended = appendScript(t, l, sim, 200)
		tr.all = mustRange(t, l, epoch, sim.Now())
		tr.byActor = mustByActor(t, l, "customer:u3")
		tr.tail = mustTail(t, l, 50)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if err := Replay(path, nil, func(e Entry) error {
			tr.replayed = append(tr.replayed, e)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	want := run(PipeSync)
	if len(want.byActor) == 0 || len(want.all) != 200 || len(want.replayed) != 200 {
		t.Fatalf("sync baseline is vacuous: %d/%d/%d", len(want.all), len(want.byActor), len(want.replayed))
	}
	for _, pipe := range []Pipeline{PipeBatched, PipeAsync} {
		got := run(pipe)
		entriesEqual(t, pipe.String()+" appended", got.appended, want.appended)
		entriesEqual(t, pipe.String()+" range", got.all, want.all)
		entriesEqual(t, pipe.String()+" by-actor", got.byActor, want.byActor)
		entriesEqual(t, pipe.String()+" tail", got.tail, want.tail)
		entriesEqual(t, pipe.String()+" replay", got.replayed, want.replayed)
	}
}

// TestQueriesIdenticalAcrossEvictionAndReopen is the eviction/restart
// regression: Range, ByActor and Tail must return identical results
// before MemoryCap eviction, after it, and across a close/reopen that
// recovers the trail from its segments.
func TestQueriesIdenticalAcrossEvictionAndReopen(t *testing.T) {
	forEachPipeline(t, func(t *testing.T, pipe Pipeline) {
		path := filepath.Join(t.TempDir(), "trail.log")
		sim := clock.NewSim(time.Time{})
		epoch := sim.Now()
		l, err := Open(Config{Path: path, Clock: sim, Pipeline: pipe, MemoryCap: 64, SegmentBytes: 2 << 10})
		if err != nil {
			t.Fatal(err)
		}

		// Phase 1: under the cap — snapshot the pre-eviction answers.
		first := appendScript(t, l, sim, 50)
		preAll := mustRange(t, l, epoch, sim.Now())
		preActor := mustByActor(t, l, "customer:u2")
		entriesEqual(t, "pre-eviction range", preAll, first)

		// Phase 2: push far past the cap. The phase-1 answers must not
		// change: eviction moves entries out of memory, not out of the
		// trail.
		appendScript(t, l, sim, 400)
		if _, start := l.tailSnapshot(); start <= 1 {
			t.Fatal("nothing was evicted — test is vacuous")
		}
		horizon := first[len(first)-1].Time
		entriesEqual(t, "post-eviction range", mustRange(t, l, epoch, horizon), first)
		entriesEqual(t, "post-eviction by-actor",
			filterActor(mustRange(t, l, epoch, horizon), "customer:u2"), preActor)

		fullAll := mustRange(t, l, epoch, sim.Now())
		fullActor := mustByActor(t, l, "customer:u2")
		fullTail := mustTail(t, l, 120)
		if len(fullAll) != 450 {
			t.Fatalf("full range = %d entries, want 450", len(fullAll))
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		// Phase 3: reopen — the recovered trail must answer identically.
		re, err := Open(Config{Path: path, Clock: sim, Pipeline: pipe, MemoryCap: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		entriesEqual(t, "reopened range", mustRange(t, re, epoch, sim.Now()), fullAll)
		entriesEqual(t, "reopened by-actor", mustByActor(t, re, "customer:u2"), fullActor)
		entriesEqual(t, "reopened tail", mustTail(t, re, 120), fullTail)
		if re.Total() != 450 {
			t.Fatalf("reopened total = %d, want 450", re.Total())
		}

		// The sequence continues, never reuses.
		e, err := re.Append(Entry{Op: "after-reopen"})
		if err != nil {
			t.Fatal(err)
		}
		if e.Seq != 451 {
			t.Fatalf("post-reopen seq = %d, want 451", e.Seq)
		}
	})
}

func filterActor(entries []Entry, actor string) []Entry {
	var out []Entry
	for _, e := range entries {
		if e.Actor == actor {
			out = append(out, e)
		}
	}
	return out
}

// TestSegmentRolloverAndSidecarRecovery forces multiple segments, then
// deletes every sidecar summary so reopen must rebuild the metas by
// replaying the segments.
func TestSegmentRolloverAndSidecarRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trail.log")
	sim := clock.NewSim(time.Time{})
	epoch := sim.Now()
	l, err := Open(Config{Path: path, Clock: sim, Pipeline: PipeBatched, SegmentBytes: 1 << 10, MemoryCap: 32})
	if err != nil {
		t.Fatal(err)
	}
	appendScript(t, l, sim, 300)
	if segs := l.Stats().Segments; segs < 3 {
		t.Fatalf("segments = %d, want rollover (>= 3)", segs)
	}
	want := mustRange(t, l, epoch, sim.Now())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	idx, err := filepath.Glob(path + ".*" + idxSuffix)
	if err != nil || len(idx) == 0 {
		t.Fatalf("no sidecars found (err=%v)", err)
	}
	for _, p := range idx {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}

	re, err := Open(Config{Path: path, Clock: sim, Pipeline: PipeBatched})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	entriesEqual(t, "rebuilt-from-replay range", mustRange(t, re, epoch, sim.Now()), want)
}

// TestCrashTornTailRecovers truncates the last segment mid-frame (a
// crash tear) and checks reopen keeps the intact prefix and continues
// the sequence.
func TestCrashTornTailRecovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trail.log")
	sim := clock.NewSim(time.Time{})
	l, err := Open(Config{Path: path, Clock: sim, Pipeline: PipeSync, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	appendScript(t, l, sim, 40)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(path + ".*" + segSuffix)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments (err=%v)", err)
	}
	last := segs[len(segs)-1]
	// A sealed segment's sidecar would mask the tear; drop it like the
	// crash (which never wrote one) and shave bytes off the tail.
	os.Remove(last + idxSuffix)
	st, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, st.Size()-7); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Config{Path: path, Clock: sim, Pipeline: PipeSync})
	if err != nil {
		t.Fatal(err)
	}
	total := re.Total()
	if total == 0 || total >= 40 {
		t.Fatalf("recovered total = %d, want a proper prefix of 40", total)
	}
	e, err := re.Append(Entry{Op: "post-crash"})
	if err != nil {
		t.Fatal(err)
	}
	if e.Seq != uint64(total)+1 {
		t.Fatalf("post-crash seq = %d, want %d", e.Seq, total+1)
	}
	// Recovery must have REPAIRED the torn segment: now that it is no
	// longer the last one, queries replay it strictly, and so does the
	// next Open — both used to fail with a corrupt-frame error.
	all, err := re.Range(time.Time{}, sim.Now().Add(time.Hour))
	if err != nil {
		t.Fatalf("range across the recovered segment: %v", err)
	}
	if int64(len(all)) != total+1 {
		t.Fatalf("range = %d entries, want %d", len(all), total+1)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := Open(Config{Path: path, Clock: sim, Pipeline: PipeSync})
	if err != nil {
		t.Fatalf("second reopen after crash recovery: %v", err)
	}
	defer re2.Close()
	if got := re2.Total(); got != total+1 {
		t.Fatalf("second reopen total = %d, want %d", got, total+1)
	}
}

// TestZeroIntactCorruptionIsSetAsideNotDeleted: a trail whose only
// segment is unreadable from frame 0 (wrong key, real damage) must not
// be destroyed by recovery — the bytes are preserved as .corrupt and
// the log starts empty.
func TestZeroIntactCorruptionIsSetAside(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trail.log")
	seg := segPath(path, 1)
	garbage := []byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4}
	if err := os.WriteFile(seg, garbage, 0o600); err != nil {
		t.Fatal(err)
	}
	l, err := Open(Config{Path: path, Clock: clock.NewSim(time.Time{})})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.Total(); got != 0 {
		t.Fatalf("total = %d, want 0", got)
	}
	kept, err := os.ReadFile(seg + ".corrupt")
	if err != nil {
		t.Fatalf("corrupt bytes were not preserved: %v", err)
	}
	if string(kept) != string(garbage) {
		t.Fatal("preserved .corrupt bytes differ from the original")
	}
}

// TestMemoryOnlyBatchedDurableWaitDoesNotDeadlock pins the fix for a
// deadlock: with no backing store there is no fsync to advance the
// durable watermark, so a PipeBatched+SyncAlways Append must complete
// once the batch is published.
func TestMemoryOnlyBatchedDurableWaitDoesNotDeadlock(t *testing.T) {
	l, err := Open(Config{Policy: SyncAlways, Pipeline: PipeBatched})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan error, 1)
	go func() {
		_, err := l.Append(Entry{Op: "durable"})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("memory-only batched+always append deadlocked")
	}
}

// TestIdleEverySecFlushTimer pins the satellite fix: with SyncEverySec,
// an idle log must still be fsynced by the writer's timer — the old
// implementation only synced when a new append arrived.
func TestIdleEverySecFlushTimer(t *testing.T) {
	forEachPipeline(t, func(t *testing.T, pipe Pipeline) {
		sim := clock.NewSim(time.Time{})
		path := filepath.Join(t.TempDir(), "trail.log")
		l, err := Open(Config{Path: path, Clock: sim, Policy: SyncEverySec, Pipeline: pipe})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if _, err := l.Append(Entry{Op: "lone"}); err != nil {
			t.Fatal(err)
		}
		if got := l.Stats().Flushes; got != 0 {
			t.Fatalf("flushes before the second elapsed = %d, want 0", got)
		}
		// No further appends: only the frozen clock advances. The timer
		// must drive the flush.
		deadline := time.Now().Add(5 * time.Second)
		for l.Stats().Flushes == 0 {
			sim.Advance(time.Second)
			if time.Now().After(deadline) {
				t.Fatalf("idle log was never fsynced (flushes=0)")
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// TestDurableWaitGroupCommit pins PipeBatched+SyncAlways semantics:
// every returned append is covered by an fsync, and concurrent
// committers share flushes (group commit) rather than paying one each.
func TestDurableWaitGroupCommit(t *testing.T) {
	l, err := Open(Config{
		Path:     filepath.Join(t.TempDir(), "trail.log"),
		Policy:   SyncAlways,
		Pipeline: PipeBatched,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(Entry{Op: "first"}); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Flushes; got < 1 {
		t.Fatalf("flushes after a durable-wait append = %d, want >= 1", got)
	}
	var wg sync.WaitGroup
	const workers, per = 8, 25
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := l.Append(Entry{Op: "gc"}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := l.Stats()
	if st.Appended != workers*per+1 {
		t.Fatalf("appended = %d", st.Appended)
	}
	if st.Flushes > st.Appended {
		t.Fatalf("flushes (%d) exceed appends (%d) — group commit broken", st.Flushes, st.Appended)
	}
	t.Logf("group commit: %d appends covered by %d flushes in %d batches",
		st.Appended, st.Flushes, st.Batches)
}

// TestConcurrentAppendRangeRollover is the -race stress: concurrent
// appenders, concurrent Range/Tail/ByActor readers, segment rollover
// underneath, and a lossless dense trail at the end.
func TestConcurrentAppendRangeRollover(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trail.log")
	l, err := Open(Config{
		Path: path, Pipeline: PipeAsync,
		MemoryCap: 64, SegmentBytes: 1 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	const writers, per, readers = 8, 200, 3
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := l.Range(time.Time{}, time.Now().Add(time.Hour)); err != nil {
					t.Error(err)
					return
				}
				if _, err := l.Tail(100); err != nil {
					t.Error(err)
					return
				}
				if _, err := l.ByActor(fmt.Sprintf("w%d", r)); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < per; i++ {
				if _, err := l.Append(Entry{Actor: fmt.Sprintf("w%d", w), Op: "stress"}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	all, err := l.Tail(writers * per)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != writers*per {
		t.Fatalf("tail = %d entries, want %d", len(all), writers*per)
	}
	for i := 1; i < len(all); i++ {
		if all[i].Seq != all[i-1].Seq+1 {
			t.Fatalf("seq gap: %d after %d", all[i].Seq, all[i-1].Seq)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := Replay(path, nil, func(Entry) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != writers*per {
		t.Fatalf("replayed = %d, want %d", n, writers*per)
	}
}

// TestStoreFailureIsSticky pins the audit side of a disk failure: once the
// segment store refuses a batch, every later append, sync and query
// surfaces the error instead of answering from a trail with a hole in it.
// (The pipe-level mechanics — parked producers unblock, nothing is
// accepted afterwards — are pinned in internal/logpipe.)
func TestStoreFailureIsSticky(t *testing.T) {
	forEachPipeline(t, func(t *testing.T, pipe Pipeline) {
		l, err := Open(Config{Path: filepath.Join(t.TempDir(), "trail.log"), Pipeline: pipe})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if _, err := l.Append(Entry{Op: "ok"}); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		// Sabotage: close the active segment's file under the store.
		l.store.active.Close()
		_, _ = l.Append(Entry{Op: "lost"}) // async returns before the writer fails
		if err := l.Sync(); err == nil {
			t.Fatal("Sync after a failed segment write should error")
		}
		if _, err := l.Append(Entry{Op: "post-failure"}); err == nil {
			t.Fatal("append after sticky failure should error")
		}
		if _, err := l.Range(time.Time{}, time.Now().Add(time.Hour)); err == nil {
			t.Fatal("queries after sticky failure should surface the error")
		}
	})
}

// TestCloseSealFailureKeepsActiveSegment pins that a failing seal at
// Close never deletes the data-bearing active segment: the trail must
// survive for the next Open to recover.
func TestCloseSealFailureKeepsActiveSegment(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	base := filepath.Join(t.TempDir(), "trail.log")
	l, err := Open(Config{Path: base, Clock: sim, Pipeline: PipeSync})
	if err != nil {
		t.Fatal(err)
	}
	appendScript(t, l, sim, 5)
	l.store.mu.Lock()
	segFile := l.store.actRef.path
	l.store.mu.Unlock()
	// Sabotage: close the underlying file (flushing it) so seal's
	// sync/close fails at Close time.
	l.store.active.Close()
	if err := l.Close(); err == nil {
		t.Fatal("Close with a sabotaged active file should error")
	}
	if _, err := os.Stat(segFile); err != nil {
		t.Fatalf("data-bearing segment was removed on the error path: %v", err)
	}
	re, err := Open(Config{Path: base, Clock: sim})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Total(); got != 5 {
		t.Fatalf("recovered total = %d, want 5", got)
	}
}

// TestLargeBatchIsChunkedIntoFrames pins that one backpressure-deep
// group commit never produces a frame near the securefs ceiling: the
// writer chunks by frameBudget, and the whole batch replays intact.
func TestLargeBatchIsChunkedIntoFrames(t *testing.T) {
	base := filepath.Join(t.TempDir(), "trail.log")
	store, err := openStore(base, nil, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	note := strings.Repeat("n", 1<<10)
	batch := make([]Entry, 3000) // ~3 MiB encoded, ~3x frameBudget
	for i := range batch {
		batch[i] = Entry{Seq: uint64(i + 1), Time: time.Unix(0, int64(i+1)).UTC(), Actor: "a", Op: "big", Note: note}
	}
	if _, err := store.append(batch); err != nil {
		t.Fatal(err)
	}
	if err := store.close(); err != nil {
		t.Fatal(err)
	}
	frames, err := securefs.CountFrames(segPath(base, 1), securefs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if frames < 3 {
		t.Fatalf("frames = %d, want the batch chunked into >= 3", frames)
	}
	var got int
	if err := Replay(base, nil, func(e Entry) error {
		got++
		if e.Seq != uint64(got) {
			return fmt.Errorf("seq %d at position %d", e.Seq, got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != len(batch) {
		t.Fatalf("replayed %d entries, want %d", got, len(batch))
	}
}

// TestBloomSkipsForeignSegments sanity-checks the per-segment actor
// bloom: an actor that never appears may prune segments but must never
// lose entries for one that does.
func TestBloomSkipsForeignSegments(t *testing.T) {
	var b bloom
	for i := 0; i < 100; i++ {
		b.add(fmt.Sprintf("customer:u%d", i))
	}
	for i := 0; i < 100; i++ {
		if !b.mayContain(fmt.Sprintf("customer:u%d", i)) {
			t.Fatalf("bloom lost customer:u%d", i)
		}
	}
	misses := 0
	for i := 0; i < 1000; i++ {
		if !b.mayContain(fmt.Sprintf("processor:p%d", i)) {
			misses++
		}
	}
	if misses < 900 {
		t.Fatalf("bloom rejects only %d/1000 foreign actors — too dense", misses)
	}
}
