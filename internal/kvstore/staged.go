package kvstore

import (
	"encoding/binary"
	"sync"

	"repro/internal/clock"
	"repro/internal/logpipe"
	"repro/internal/securefs"
)

// The AOF rides internal/logpipe: a command hands over its op while still
// holding the mutated key's stripe lock (FLUSHALL: every stripe lock), so
// for any key AOF order equals apply order. Store.stage picks who runs
// this file's sink — the caller through Direct (Striping = 0) or the
// pipe's writer goroutine, batching, through Stage — and appendfsync maps
// onto the pipe's wait depth and flush policy (pipeModes); either way the
// pipe's clock-driven idle flush syncs a log that went quiet under
// everysec. Staged command writes hold a backpressure slot, reserved
// before their stripe lock; read logging and expiry-cycle DELs stage
// without one (bounded by their own budgets) so they never park inside
// the hot path. This file keeps what is AOF-specific: the frame encoding,
// the file and its IO lock, and the rewrite divert buffer (rewrite.go).

// stagedOp is one parked AOF command: the op tag plus its operands.
// Reads carry their logged operand in key.
type stagedOp struct {
	op    string
	key   string
	value string
	ns    int64
}

// aofPipe is the AOF: the logpipe sink plus the file state rewrites swap
// underneath it.
type aofPipe struct {
	log *logpipe.Pipe[stagedOp]
	// direct says the pipe is fed through log.Direct (Striping = 0): the
	// caller runs Write, one op at a time.
	direct    bool
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
	buf    []byte // encode buffer, used inside Write
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
// group fsync covering their op (Direct: run it themselves); everysec and
// no return once staged (Direct: once written).
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

// The live AOF's userspace write buffer: frames reach the OS when it
// fills or on the next policy / idle / explicit Sync. A group-committing
// writer batches through 64 KiB; Direct writes keep it at 1 KiB, so AOF
// bytes reach the OS every few dozen commands, like Redis flushing
// aof_buf each event-loop iteration — under `appendfsync no` nothing else
// would ever push an acknowledged DEL out of the process.
const (
	aofBufferSize       = 1 << 16
	aofDirectBufferSize = 1 << 10
)

// fileOptions are the live AOF's open options (also after a rewrite swap).
func (p *aofPipe) fileOptions(key []byte) securefs.Options {
	if p.direct {
		return securefs.Options{Key: key, BufferSize: aofDirectBufferSize}
	}
	return securefs.Options{Key: key, BufferSize: aofBufferSize}
}

func openPipe(path string, key []byte, policy FsyncPolicy, clk clock.Clock, direct bool) (*aofPipe, error) {
	p := &aofPipe{direct: direct, policy: policy, clk: clk, encrypted: key != nil, path: path}
	f, err := securefs.Append(path, p.fileOptions(key))
	if err != nil {
		return nil, err
	}
	p.file = f
	wait, flush := pipeModes(policy)
	p.log = logpipe.New[stagedOp](p, logpipe.Spec[stagedOp]{Wait: wait, Flush: flush, Clock: clk})
	return p, nil
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

// encodeOp renders one staged op as its AOF frame (grammar in aof.go).
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
	if !p.direct {
		// Group-commit batch sizes; a Direct write is always a batch of one.
		obsAOFBatchOps.Observe(int64(len(batch)))
	}
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
