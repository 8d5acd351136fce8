// Package logpipe is the one staged, group-committing log writer behind
// the kvstore AOF, the audit trail and the relstore WAL:
//
//	producer ── sequencer+staging (one lock) ──▶ writer goroutine
//	                                               ├─ Sink.Write(batch)
//	                                               ├─ Sink.Sync per Flush policy
//	                                               └─ publish written/durable watermarks
//
// Sequencing and staging are one critical section: a producer takes the
// sequencer lock, receives the next sequence number and appends its entry
// to the fill buffer; the writer swaps that buffer for an empty one and
// hands it to the sink. Sequences are therefore dense and batches arrive
// in sequence order by construction — whatever order producers hold when
// they call Stage (a data-stripe lock, all of them, a table lock, none)
// is the order on disk.
//
// The owner supplies a Sink and keeps everything format-specific (frame
// encoding, file handles, swaps). A Sink must tolerate Sync running
// concurrently with Write: Write is called by one goroutine at a time,
// Sync by the writer, by Pipe.Sync callers and by the idle flush.
//
// Backpressure is a slot semaphore: a producer that reserved a slot keeps
// it until its entry is written, so at most depth slotted entries are
// staged but unwritten; the trail is lossless, only latency degrades.
// Unslotted entries (read-log frames, expiry-cycle deletes, WAL records)
// bypass it so they never park inside a hot path. The first Write or Sync error is
// sticky: the log is no longer trustworthy, so the writer drops what is
// staged and every later Reserve, Stage, Wait, Barrier, Sync and Close
// returns that error.
package logpipe

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
)

// Wait is how far a producer's Wait blocks after staging.
type Wait int

// Wait depths.
const (
	// WaitNone returns at once (appendfsync everysec/no, audit async).
	WaitNone Wait = iota
	// WaitWritten blocks until the sink has written the entry's batch
	// (audit batched).
	WaitWritten
	// WaitDurable blocks until a Sync covers the entry (appendfsync
	// always, audit batched+always).
	WaitDurable
)

// Flush is when the writer calls Sink.Sync on its own.
type Flush int

// Flush policies.
const (
	// FlushNever leaves flushing to the OS and to explicit Sync calls.
	FlushNever Flush = iota
	// FlushEverySec syncs at most once per FlushInterval, including once
	// after the log goes idle with unsynced bytes.
	FlushEverySec
	// FlushEachBatch syncs after every batch: one fsync covers every
	// producer in it.
	FlushEachBatch
)

const (
	// DefaultDepth is the backpressure bound both logs run with.
	DefaultDepth = 1 << 14
	// FlushInterval is FlushEverySec's period.
	FlushInterval = time.Second
)

// ErrClosed is returned for work offered to a closed pipe.
var ErrClosed = errors.New("logpipe: pipe is closed")

// Sink is where batches go. See the package comment for the concurrency
// contract.
type Sink[T any] interface {
	// Write appends batch, in order, to the log's buffered file.
	Write(batch []T) error
	// Sync forces everything written so far to stable storage.
	Sync() error
}

// Spec fixes a pipe's behaviour at construction.
type Spec[T any] struct {
	Wait  Wait
	Flush Flush
	Clock clock.Clock
	// Depth is the backpressure bound; 0 means DefaultDepth.
	Depth int
	// Start is the last sequence already in the log (a recovered trail).
	Start uint64
	// Stamp, when set, runs inside the sequencer's critical section so the
	// owner can record the sequence (and anything that must be ordered
	// with it, such as a timestamp) in the entry.
	Stamp func(seq uint64, e *T)
}

// Pipe is the staged writer. It is safe for concurrent use.
type Pipe[T any] struct {
	sink  Sink[T]
	wait  Wait
	flush Flush
	clk   clock.Clock
	stamp func(uint64, *T)

	// Sequencer and staging. fillSlots counts the slotted entries in fill.
	seqMu     sync.Mutex
	seq       uint64
	fill      []T
	fillSlots int
	one       [1]T // Direct's batch
	closed    bool

	slots    chan struct{} // backpressure semaphore
	notify   chan struct{} // writer wake-up, capacity 1
	quit     chan struct{}
	done     chan struct{}
	failedCh chan struct{} // closed on the first sticky error
	failed   atomic.Bool   // mirrors err != nil without taking mu
	maxQueue atomic.Int64

	// Published state; waiters park on cond.
	mu       sync.Mutex
	cond     *sync.Cond
	written  uint64 // highest sequence handed to Sink.Write
	durable  uint64 // highest sequence covered by a Sink.Sync
	err      error  // sticky
	lastSync time.Time
	dirty    bool // written bytes not yet synced
	batches  int64
	flushes  int64
	exited   bool
}

// New starts a pipe over sink.
func New[T any](sink Sink[T], spec Spec[T]) *Pipe[T] {
	if spec.Depth <= 0 {
		spec.Depth = DefaultDepth
	}
	p := &Pipe[T]{
		sink: sink, wait: spec.Wait, flush: spec.Flush, clk: spec.Clock, stamp: spec.Stamp,
		seq: spec.Start, written: spec.Start, durable: spec.Start,
		slots:    make(chan struct{}, spec.Depth),
		notify:   make(chan struct{}, 1),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		failedCh: make(chan struct{}),
		lastSync: spec.Clock.Now(),
	}
	p.cond = sync.NewCond(&p.mu)
	go p.run()
	return p
}

// Reserve acquires one backpressure slot, blocking while depth slotted
// entries are unwritten. Callers must not hold a lock the sink needs.
func (p *Pipe[T]) Reserve() error {
	if p.failed.Load() {
		return p.Err()
	}
	select {
	case p.slots <- struct{}{}:
	case <-p.quit:
		return ErrClosed
	case <-p.failedCh:
		return p.Err()
	}
	for depth := int64(len(p.slots)); ; {
		m := p.maxQueue.Load()
		if depth <= m || p.maxQueue.CompareAndSwap(m, depth) {
			return nil
		}
	}
}

// Release returns a reserved slot that ended up staging nothing.
func (p *Pipe[T]) Release() { <-p.slots }

// Stage assigns e the next sequence and queues it for the writer. slotted
// says the caller holds a slot from Reserve; the writer releases it once
// e is written (Stage itself does when it refuses e).
func (p *Pipe[T]) Stage(e T, slotted bool) (T, uint64, error) {
	p.seqMu.Lock()
	if p.closed || p.failed.Load() {
		p.seqMu.Unlock()
		if slotted {
			p.Release()
		}
		if err := p.Err(); err != nil {
			return e, 0, err
		}
		return e, 0, ErrClosed
	}
	p.seq++
	seq := p.seq
	p.fill = append(p.fill, e)
	if p.stamp != nil {
		// Stamped in its buffer slot: &e would move every entry to the heap.
		p.stamp(seq, &p.fill[len(p.fill)-1])
		e = p.fill[len(p.fill)-1]
	}
	if slotted {
		p.fillSlots++
	}
	p.seqMu.Unlock()
	p.wake()
	return e, seq, nil
}

// Direct is the inline path: sequence, write and flush e in the caller,
// serialized behind the sequencer lock. The writer goroutine then only
// drives the idle flush. A pipe is fed through Direct or through Stage,
// never both.
func (p *Pipe[T]) Direct(e T) (T, error) {
	p.seqMu.Lock()
	defer p.seqMu.Unlock()
	if p.closed {
		return e, ErrClosed
	}
	if p.failed.Load() {
		return e, p.Err()
	}
	p.seq++
	p.one[0] = e
	if p.stamp != nil {
		p.stamp(p.seq, &p.one[0])
	}
	wasClean, err := p.writeBatch(p.one[:], p.seq)
	if wasClean && p.flush == FlushEverySec {
		// The writer arms its idle timer when it sees dirty bytes and
		// re-checks after every timer fire, so only the first write into a
		// clean log has to wake it.
		p.wake()
	}
	return p.one[0], err
}

func (p *Pipe[T]) wake() {
	select {
	case p.notify <- struct{}{}:
	default:
	}
}

// Wait blocks until seq has reached the pipe's wait depth.
func (p *Pipe[T]) Wait(seq uint64) error {
	if p.wait == WaitNone {
		if p.failed.Load() {
			return p.Err()
		}
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.err != nil {
			return p.err
		}
		w := p.written
		if p.wait == WaitDurable {
			w = p.durable
		}
		if w >= seq {
			return nil
		}
		if p.exited {
			return ErrClosed
		}
		p.cond.Wait()
	}
}

// Barrier waits until every entry staged so far has been written, so the
// owner's file, counters and queries cover all accepted work.
func (p *Pipe[T]) Barrier() error {
	target := p.Seq()
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.written < target && p.err == nil && !p.exited {
		p.cond.Wait()
	}
	return p.err
}

// Sync barriers and forces every accepted entry to stable storage.
func (p *Pipe[T]) Sync() error {
	if err := p.Barrier(); err != nil {
		return err
	}
	return p.syncTo(p.Written())
}

// MarkDurable records that the owner made everything written durable by
// other means — it cut over to a fully synced replacement file.
func (p *Pipe[T]) MarkDurable() {
	p.mu.Lock()
	p.durable = p.written
	p.dirty = false
	p.lastSync = p.clk.Now()
	p.mu.Unlock()
	p.cond.Broadcast()
}

// Fail records err as the sticky error (first one wins) and unblocks
// every parked producer and waiter.
func (p *Pipe[T]) Fail(err error) {
	p.mu.Lock()
	first := p.err == nil
	if first {
		p.err = err
	}
	p.mu.Unlock()
	p.failed.Store(true)
	if first {
		close(p.failedCh)
	}
	p.cond.Broadcast()
}

// Err returns the sticky error, if any.
func (p *Pipe[T]) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Seq returns the last sequence assigned.
func (p *Pipe[T]) Seq() uint64 {
	p.seqMu.Lock()
	defer p.seqMu.Unlock()
	return p.seq
}

// Written returns the written watermark.
func (p *Pipe[T]) Written() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.written
}

// Durable returns the durable watermark.
func (p *Pipe[T]) Durable() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.durable
}

// Stats are the pipe's counters.
type Stats struct {
	Batches  int64 // Sink.Write calls
	Flushes  int64 // Sink.Sync calls
	MaxQueue int64 // high-water mark of reserved slots
}

// Stats barriers, so the counters cover every accepted entry.
func (p *Pipe[T]) Stats() Stats {
	_ = p.Barrier()
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{Batches: p.batches, Flushes: p.flushes, MaxQueue: p.maxQueue.Load()}
}

// Close refuses further entries, writes and syncs everything staged and
// stops the writer. It returns the sticky error; closing twice is
// harmless.
func (p *Pipe[T]) Close() error {
	p.seqMu.Lock()
	first := !p.closed
	p.closed = true
	p.seqMu.Unlock()
	if first {
		close(p.quit)
	}
	<-p.done
	return p.Err()
}

func (p *Pipe[T]) run() {
	defer close(p.done)
	var spare []T
	var timer <-chan time.Time
	for {
		// Arm the idle flush whenever unsynced bytes exist: a batch-driven
		// check alone would leave a quiet log unsynced indefinitely.
		if timer == nil && p.flush == FlushEverySec && p.isDirty() {
			timer = p.clk.After(FlushInterval)
		}
		select {
		case <-p.quit:
			// closed was set under seqMu before quit closed, so this swap
			// takes everything that will ever be staged. A clean close
			// leaves it all on stable storage, whatever the flush policy.
			p.consume(spare)
			if p.isDirty() && !p.failed.Load() {
				_ = p.syncTo(p.Written())
			}
			p.mu.Lock()
			p.exited = true
			p.mu.Unlock()
			p.cond.Broadcast()
			return
		case <-timer:
			timer = nil
			if p.isDirty() {
				_ = p.syncTo(p.Written())
			}
		case <-p.notify:
			spare = p.consume(spare)
		}
	}
}

// consume swaps the fill buffer for spare, writes what it held and
// releases the slots of the entries in it. It returns the emptied buffer
// for the next swap.
func (p *Pipe[T]) consume(spare []T) []T {
	p.seqMu.Lock()
	batch, slotted, last := p.fill, p.fillSlots, p.seq
	p.fill, p.fillSlots = spare[:0], 0
	p.seqMu.Unlock()
	if len(batch) > 0 && !p.failed.Load() {
		_, _ = p.writeBatch(batch, last)
	}
	for ; slotted > 0; slotted-- {
		<-p.slots
	}
	clear(batch) // drop the entries' references before the buffer is reused
	return batch
}

// writeBatch hands one batch ending at sequence last to the sink,
// publishes the written watermark and applies the flush policy. wasClean
// reports that the log held no unsynced bytes before this batch.
func (p *Pipe[T]) writeBatch(batch []T, last uint64) (wasClean bool, err error) {
	if err := p.sink.Write(batch); err != nil {
		p.Fail(err)
		return false, err
	}
	p.mu.Lock()
	p.written = last
	p.batches++
	wasClean = !p.dirty
	p.dirty = true
	due := p.flush == FlushEachBatch ||
		(p.flush == FlushEverySec && p.clk.Now().Sub(p.lastSync) >= FlushInterval)
	p.mu.Unlock()
	p.cond.Broadcast()
	if due {
		return wasClean, p.syncTo(last)
	}
	return wasClean, nil
}

// syncTo syncs the sink and advances the durable watermark to target.
func (p *Pipe[T]) syncTo(target uint64) error {
	if err := p.sink.Sync(); err != nil {
		p.Fail(err)
		return err
	}
	p.mu.Lock()
	p.flushes++
	if target > p.durable {
		p.durable = target
	}
	p.lastSync = p.clk.Now()
	if p.written == target {
		p.dirty = false
	}
	p.mu.Unlock()
	p.cond.Broadcast()
	return nil
}

func (p *Pipe[T]) isDirty() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dirty
}
