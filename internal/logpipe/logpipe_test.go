package logpipe

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

// item is the test entry: Stamp records the sequence in it, so the sink
// can check density and order without trusting the pipe's bookkeeping.
type item struct {
	seq      uint64
	producer int
	n        int
}

func stampItem(seq uint64, e *item) { e.seq = seq }

var errBoom = errors.New("boom: disk gone")

// fakeSink records what it is handed. gate, when set, makes every Write
// wait for one receive, so a test can hold the writer mid-batch; failWrite
// fails the n-th Write (1-based); failSync fails every Sync.
type fakeSink struct {
	gate      chan struct{}
	failWrite int
	failSync  bool

	mu     sync.Mutex
	got    []item
	writes int
	syncs  int
	synced int // len(got) covered by the last Sync
}

func (s *fakeSink) Write(batch []item) error {
	if s.gate != nil {
		<-s.gate
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writes++
	if s.writes == s.failWrite {
		return errBoom
	}
	s.got = append(s.got, batch...)
	return nil
}

func (s *fakeSink) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failSync {
		return errBoom
	}
	s.syncs++
	s.synced = len(s.got)
	return nil
}

func (s *fakeSink) snapshot() (got []item, writes, syncs, synced int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]item(nil), s.got...), s.writes, s.syncs, s.synced
}

func newPipe(s *fakeSink, spec Spec[item]) *Pipe[item] {
	if spec.Clock == nil {
		spec.Clock = clock.NewReal()
	}
	spec.Stamp = stampItem
	return New[item](s, spec)
}

// within fails the test if fn has not returned after five seconds — the
// suite's hang detector, since a broken pipe parks goroutines for good.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: still blocked after 5s", what)
	}
}

// TestDenseOrderUnderProducers: N producers, slotted and not, produce a
// gapless sequence that reaches the sink in sequence order with every
// producer's own entries in issue order — across every wait depth.
func TestDenseOrderUnderProducers(t *testing.T) {
	for _, wait := range []Wait{WaitNone, WaitWritten, WaitDurable} {
		sink := &fakeSink{}
		p := newPipe(sink, Spec[item]{Wait: wait, Flush: FlushEachBatch, Start: 100})
		const producers, per = 8, 300
		var wg sync.WaitGroup
		for w := 0; w < producers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				slotted := w%2 == 0
				for i := 0; i < per; i++ {
					if slotted {
						if err := p.Reserve(); err != nil {
							t.Error(err)
							return
						}
					}
					e, seq, err := p.Stage(item{producer: w, n: i}, slotted)
					if err != nil || e.seq != seq {
						t.Errorf("stage: entry seq %d, returned %d, err %v", e.seq, seq, err)
						return
					}
					if err := p.Wait(seq); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if err := p.Sync(); err != nil {
			t.Fatal(err)
		}
		got, _, _, synced := sink.snapshot()
		if len(got) != producers*per || synced != len(got) {
			t.Fatalf("wait %d: sink holds %d entries (%d synced), want %d", wait, len(got), synced, producers*per)
		}
		next := make([]int, producers)
		for i, e := range got {
			if e.seq != 101+uint64(i) {
				t.Fatalf("wait %d: position %d holds seq %d, want %d", wait, i, e.seq, 101+i)
			}
			if e.n != next[e.producer] {
				t.Fatalf("wait %d: producer %d entry %d arrived after %d", wait, e.producer, e.n, next[e.producer])
			}
			next[e.producer]++
		}
		if got := p.Seq(); got != 100+producers*per {
			t.Fatalf("Seq = %d", got)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBackpressureBoundsQueue: reserved slots never exceed the depth, and
// every entry survives saturation.
func TestBackpressureBoundsQueue(t *testing.T) {
	sink := &fakeSink{}
	p := newPipe(sink, Spec[item]{Depth: 8})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if err := p.Reserve(); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := p.Stage(item{}, true); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := p.Stats()
	if st.MaxQueue == 0 || st.MaxQueue > 8 {
		t.Fatalf("max queue = %d, want within (0, 8]", st.MaxQueue)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _, _, _ := sink.snapshot(); len(got) != 2000 {
		t.Fatalf("sink holds %d entries, want 2000", len(got))
	}
}

// TestUnslottedBypassesSemaphore: with the only slot held by an entry the
// writer is stuck on, unslotted staging still returns at once.
func TestUnslottedBypassesSemaphore(t *testing.T) {
	sink := &fakeSink{gate: make(chan struct{})}
	p := newPipe(sink, Spec[item]{Depth: 1})
	if err := p.Reserve(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Stage(item{}, true); err != nil {
		t.Fatal(err)
	}
	within(t, "unslotted staging behind a full semaphore", func() {
		for i := 0; i < 100; i++ {
			if _, _, err := p.Stage(item{n: i}, false); err != nil {
				t.Error(err)
			}
		}
	})
	close(sink.gate)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _, _, _ := sink.snapshot(); len(got) != 101 {
		t.Fatalf("sink holds %d entries, want 101", len(got))
	}
}

// TestStickyFailure: a failed Write unblocks producers parked on the
// semaphore, and from then on Reserve, Stage, Wait, Barrier, Sync and
// Close all return the first error; nothing staged behind the failure
// reaches the sink.
func TestStickyFailure(t *testing.T) {
	sink := &fakeSink{gate: make(chan struct{}), failWrite: 1}
	p := newPipe(sink, Spec[item]{Wait: WaitWritten, Depth: 2})
	// Fill both slots; the writer parks in the gated first Write.
	for i := 0; i < 2; i++ {
		if err := p.Reserve(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.Stage(item{n: i}, true); err != nil {
			t.Fatal(err)
		}
	}
	// A parked producer may still win the slot the failing batch frees;
	// its Stage is then what refuses the entry.
	parked := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			err := p.Reserve()
			if err == nil {
				_, _, err = p.Stage(item{}, true)
			}
			parked <- err
		}()
	}
	waiter := make(chan error, 1)
	go func() { waiter <- p.Wait(1) }()
	close(sink.gate) // the Write now fails
	within(t, "producers parked behind a failed writer", func() {
		for i := 0; i < 4; i++ {
			if err := <-parked; !errors.Is(err, errBoom) {
				t.Errorf("parked producer = %v, want the sticky error", err)
			}
		}
		if err := <-waiter; !errors.Is(err, errBoom) {
			t.Errorf("Wait = %v, want the sticky error", err)
		}
	})
	if _, _, err := p.Stage(item{}, false); !errors.Is(err, errBoom) {
		t.Errorf("Stage after failure = %v", err)
	}
	if err := p.Barrier(); !errors.Is(err, errBoom) {
		t.Errorf("Barrier after failure = %v", err)
	}
	if err := p.Sync(); !errors.Is(err, errBoom) {
		t.Errorf("Sync after failure = %v", err)
	}
	p.Fail(errors.New("second error must not replace the first"))
	if err := p.Close(); !errors.Is(err, errBoom) {
		t.Errorf("Close after failure = %v", err)
	}
	if got, _, _, _ := sink.snapshot(); len(got) != 0 {
		t.Fatalf("sink holds %d entries written past the failure", len(got))
	}
}

// TestSyncFailureIsSticky: a failed fsync is never retried into false
// durability — the durable waiter gets the error and so does everyone
// after it, on the staged path and the inline one.
func TestSyncFailureIsSticky(t *testing.T) {
	sink := &fakeSink{failSync: true}
	p := newPipe(sink, Spec[item]{Wait: WaitDurable, Flush: FlushEachBatch})
	_, seq, err := p.Stage(item{}, false)
	if err != nil {
		t.Fatal(err)
	}
	within(t, "durable wait behind a failed fsync", func() {
		if err := p.Wait(seq); !errors.Is(err, errBoom) {
			t.Errorf("Wait = %v, want the sticky error", err)
		}
	})
	sink.mu.Lock()
	sink.failSync = false
	sink.mu.Unlock()
	if err := p.Sync(); !errors.Is(err, errBoom) {
		t.Errorf("Sync after a failed fsync = %v, want the sticky error", err)
	}
	p.Close()

	d := newPipe(&fakeSink{failSync: true}, Spec[item]{Flush: FlushEachBatch})
	defer d.Close()
	if _, err := d.Direct(item{}); !errors.Is(err, errBoom) {
		t.Errorf("Direct over a failing fsync = %v", err)
	}
	if _, err := d.Direct(item{}); !errors.Is(err, errBoom) {
		t.Errorf("Direct after a failed fsync = %v", err)
	}
}

// TestIdleFlush: under FlushEverySec a log that goes quiet with unsynced
// bytes is still synced once the clock passes the interval — whether the
// bytes arrived through Stage or through Direct.
func TestIdleFlush(t *testing.T) {
	for _, direct := range []bool{false, true} {
		sim := clock.NewSim(time.Time{})
		sink := &fakeSink{}
		p := newPipe(sink, Spec[item]{Wait: WaitWritten, Flush: FlushEverySec, Clock: sim})
		if direct {
			if _, err := p.Direct(item{}); err != nil {
				t.Fatal(err)
			}
		} else {
			_, seq, err := p.Stage(item{}, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Wait(seq); err != nil {
				t.Fatal(err)
			}
		}
		if st := p.Stats(); st.Flushes != 0 {
			t.Fatalf("direct=%v: flushes before the interval elapsed = %d, want 0", direct, st.Flushes)
		}
		// Nothing else arrives; only the simulated clock moves. The writer
		// arms its timer asynchronously, so keep stepping until it fires.
		deadline := time.Now().Add(5 * time.Second)
		for p.Stats().Flushes == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("direct=%v: idle log was never synced", direct)
			}
			sim.Advance(FlushInterval)
			time.Sleep(time.Millisecond)
		}
		if _, _, _, synced := sink.snapshot(); synced != 1 {
			t.Fatalf("direct=%v: sync covered %d entries, want 1", direct, synced)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOneSyncCoversDurableBatch: committers that pile up behind a slow
// write are all released by the one Sync that follows their batch, and
// none returns before a Sync covers its entry.
func TestOneSyncCoversDurableBatch(t *testing.T) {
	sink := &fakeSink{gate: make(chan struct{})}
	p := newPipe(sink, Spec[item]{Wait: WaitDurable, Flush: FlushEachBatch})
	commit := func() error {
		if err := p.Reserve(); err != nil {
			return err
		}
		_, seq, err := p.Stage(item{}, true)
		if err != nil {
			return err
		}
		if err := p.Wait(seq); err != nil {
			return err
		}
		if _, _, _, synced := sink.snapshot(); uint64(synced) < seq {
			return errors.New("Wait returned before a Sync covered the entry")
		}
		return nil
	}
	const followers = 16
	errs := make(chan error, followers+1)
	go func() { errs <- commit() }() // the writer parks in its gated Write
	for p.Seq() < 1 {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < followers; i++ {
		go func() { errs <- commit() }()
	}
	for p.Seq() < followers+1 {
		time.Sleep(time.Millisecond)
	}
	close(sink.gate)
	within(t, "durable committers", func() {
		for i := 0; i < followers+1; i++ {
			if err := <-errs; err != nil {
				t.Error(err)
			}
		}
	})
	st := p.Stats()
	// The leader's batch plus one batch for everyone who queued behind it
	// (one batch in all if the followers beat the writer's first swap).
	if st.Batches > 2 || st.Flushes != st.Batches {
		t.Fatalf("%d committers took %d batches and %d syncs, want at most 2 of each", followers+1, st.Batches, st.Flushes)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMarkDurableReleasesWaiters: an owner that cut over to a synced
// replacement file satisfies durable waiters without a Sync of its own.
func TestMarkDurableReleasesWaiters(t *testing.T) {
	sink := &fakeSink{}
	p := newPipe(sink, Spec[item]{Wait: WaitDurable})
	defer p.Close()
	_, seq, err := p.Stage(item{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Barrier(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Wait(seq) }()
	p.MarkDurable()
	within(t, "durable waiter after MarkDurable", func() {
		if err := <-done; err != nil {
			t.Error(err)
		}
	})
	if st := p.Stats(); st.Flushes != 0 {
		t.Fatalf("flushes = %d, want 0", st.Flushes)
	}
}

// TestCloseDrainsEverythingStaged: under every flush policy, entries
// staged by many producers right up to Close all reach the sink, Close
// ends with a sync covering the last of them, and the closed pipe refuses
// more.
func TestCloseDrainsEverythingStaged(t *testing.T) {
	for _, flush := range []Flush{FlushNever, FlushEverySec, FlushEachBatch} {
		sink := &fakeSink{}
		p := newPipe(sink, Spec[item]{Flush: flush})
		const producers, per = 8, 400
		var wg sync.WaitGroup
		for w := 0; w < producers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					if _, _, err := p.Stage(item{producer: w, n: i}, false); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		got, _, syncs, synced := sink.snapshot()
		if len(got) != producers*per {
			t.Fatalf("flush %d: sink holds %d entries after Close, want %d", flush, len(got), producers*per)
		}
		for i, e := range got {
			if e.seq != uint64(i+1) {
				t.Fatalf("flush %d: position %d holds seq %d", flush, i, e.seq)
			}
		}
		if syncs == 0 || synced != len(got) {
			t.Errorf("flush %d: last sync covers %d of %d entries (%d syncs)", flush, synced, len(got), syncs)
		}
		if _, _, err := p.Stage(item{}, false); !errors.Is(err, ErrClosed) {
			t.Errorf("flush %d: Stage on a closed pipe = %v", flush, err)
		}
		if _, err := p.Direct(item{}); !errors.Is(err, ErrClosed) {
			t.Errorf("flush %d: Direct on a closed pipe = %v", flush, err)
		}
		if err := p.Close(); err != nil {
			t.Errorf("flush %d: second Close = %v", flush, err)
		}
	}
}
