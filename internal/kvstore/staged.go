package kvstore

import (
	"encoding/binary"
	"sync"

	"repro/internal/clock"
	"repro/internal/logpipe"
	"repro/internal/securefs"
)

// The striped profile's AOF rides internal/logpipe: a command stages its
// op while still holding the mutated key's stripe lock (FLUSHALL: every
// stripe lock), so for any key AOF order equals apply order, and the
// pipe's writer goroutine batch-encodes the ops into the frames the
// inline profile would have written. appendfsync maps onto the pipe's
// wait depth and flush policy (pipeModes). Command writes hold a
// backpressure slot, reserved before their stripe lock; read logging and
// expiry-cycle DELs stage without one (bounded by their own budgets) so
// they never park inside the hot path. This file keeps what is
// AOF-specific: the frame encoding, the file and its IO lock, and the
// rewrite divert buffer (rewrite.go).

// stagedOp is one parked AOF command: the op tag plus its operands.
// Reads carry their logged operand in key.
type stagedOp struct {
	op    string
	key   string
	value string
	ns    int64
}

// aofPipe is the staged AOF: the logpipe sink plus the file state
// rewrites swap underneath it.
type aofPipe struct {
	log       *logpipe.Pipe[stagedOp]
	policy    FsyncPolicy
	clk       clock.Clock
	encrypted bool
	path      string // AOF path; stable across rewrite swaps

	// rewriteMu serializes background rewrites against each other and
	// against close(): close acquires it first, so a Close waits for an
	// in-flight rewrite to finish its swap before tearing the file down.
	rewriteMu sync.Mutex

	// fileMu serializes file IO and file swaps (writer batches, fsyncs,
	// rewrite swap, Close) — never held while waiting on producers.
	fileMu sync.Mutex
	file   *securefs.File
	buf    []byte // writer-only encode buffer
	// Divert state (guarded by fileMu): while a background rewrite is
	// streaming its snapshot, every frame appended to the live file is
	// also copied here (uvarint length + bytes) and replayed onto the new
	// file before the swap, so no staged command can fall between the
	// snapshot and the new file's first direct append.
	diverting  bool
	divert     []byte
	divertOps  int64
	fileClosed bool // set by close(); makes a post-close rewrite fail cleanly
}

// pipeModes maps appendfsync onto logpipe: `always` callers wait for the
// group fsync covering their op; everysec and no return once staged.
func pipeModes(policy FsyncPolicy) (logpipe.Wait, logpipe.Flush) {
	switch policy {
	case FsyncAlways:
		return logpipe.WaitDurable, logpipe.FlushEachBatch
	case FsyncEverySec:
		return logpipe.WaitNone, logpipe.FlushEverySec
	default:
		return logpipe.WaitNone, logpipe.FlushNever
	}
}

func openPipe(path string, key []byte, policy FsyncPolicy, clk clock.Clock) (*aofPipe, error) {
	// A larger buffer than the inline profile's: frames reach the OS per
	// group commit, not per command.
	f, err := securefs.Append(path, securefs.Options{Key: key, BufferSize: 1 << 16})
	if err != nil {
		return nil, err
	}
	p := &aofPipe{policy: policy, clk: clk, encrypted: key != nil, path: path, file: f}
	wait, flush := pipeModes(policy)
	p.log = logpipe.New[stagedOp](p, logpipe.Spec[stagedOp]{Wait: wait, Flush: flush, Clock: clk})
	return p, nil
}

// stage queues op for the writer and returns its sequence. Write callers
// hold their data-stripe lock and a reserved slot; reads and expiry DELs
// pass slotted=false.
func (p *aofPipe) stage(op stagedOp, slotted bool) (uint64, error) {
	_, seq, err := p.log.Stage(op, slotted)
	return seq, err
}

// sizeBarrier barriers and reports the AOF's on-disk size.
func (p *aofPipe) sizeBarrier() (int64, error) {
	if err := p.log.Barrier(); err != nil {
		return 0, err
	}
	p.fileMu.Lock()
	defer p.fileMu.Unlock()
	return p.file.Size()
}

// close drains staging (the store froze the command sequence first by
// setting closed under every stripe lock) and closes the file. A sticky
// writer error takes precedence over the close error. Acquiring
// rewriteMu first makes close wait for an in-flight background
// rewrite's swap.
func (p *aofPipe) close() error {
	p.rewriteMu.Lock()
	defer p.rewriteMu.Unlock()
	err := p.log.Close()
	p.fileMu.Lock()
	cerr := p.file.Close()
	p.fileClosed = true
	p.fileMu.Unlock()
	if err != nil {
		return err
	}
	return cerr
}

// encodeOp renders one staged op as the frame the inline profile would
// have written — the two persistence paths are byte-compatible.
func (p *aofPipe) encodeOp(op stagedOp) []byte {
	switch op.op {
	case opSet:
		p.buf = encodeCommand(p.buf, opSet, op.key, op.value)
	case opSetex:
		p.buf = encodeCommandNum(p.buf, op.ns, opSetex, op.key, op.value)
	case opDel:
		p.buf = encodeCommand(p.buf, opDel, op.key)
	case opExpireAt:
		p.buf = encodeCommandNum(p.buf, op.ns, opExpireAt, op.key)
	case opFlushAll:
		p.buf = encodeCommand(p.buf, opFlushAll)
	default: // GET / SCAN / IDXSCAN read-audit frames
		p.buf = encodeCommand(p.buf, op.op, op.key)
	}
	return p.buf
}

// Write is the logpipe sink's batch step: one frame per op, mirrored into
// the divert buffer while a rewrite is streaming.
func (p *aofPipe) Write(batch []stagedOp) error {
	p.fileMu.Lock()
	defer p.fileMu.Unlock()
	for _, op := range batch {
		frame := p.encodeOp(op)
		if err := p.file.AppendFrame(frame); err != nil {
			return err
		}
		if p.diverting {
			p.divert = binary.AppendUvarint(p.divert, uint64(len(frame)))
			p.divert = append(p.divert, frame...)
			p.divertOps++
		}
	}
	obsAOFBatchOps.Observe(int64(len(batch)))
	return nil
}

// Sync is the logpipe sink's fsync step.
func (p *aofPipe) Sync() error {
	start := p.clk.Now()
	p.fileMu.Lock()
	err := p.file.Sync()
	p.fileMu.Unlock()
	obsAOFFsyncNs.ObserveDuration(p.clk.Since(start))
	return err
}
