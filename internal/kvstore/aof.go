package kvstore

import (
	"encoding/binary"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/securefs"
)

// The AOF records one command per securefs frame. A command is a list of
// string arguments encoded as:
//
//	uvarint(argc) { uvarint(len) bytes }*
//
// Commands: SET key value, SETEX key value unixnano, EXPIREAT key unixnano
// (unixnano 0 clears the TTL), DEL key, FLUSHALL, and — when read logging
// is enabled — GET key / SCAN pattern / IDXSCAN attr=value, which replay
// as no-ops (they exist for the audit trail, mirroring the paper's "log
// all interactions including reads and scans" retrofit).
//
// Both persistence profiles — the inline single-mutex appender below and
// the staged group-commit pipeline in staged.go — emit these exact frames,
// so one replay path rebuilds state regardless of which profile wrote the
// file.

// AOF command names (also the staged-op tags in staged.go).
const (
	opSet      = "SET"
	opSetex    = "SETEX"
	opDel      = "DEL"
	opExpireAt = "EXPIREAT"
	opFlushAll = "FLUSHALL"
	opGet      = "GET"
	opScan     = "SCAN"
	opIdxScan  = "IDXSCAN"
)

// FsyncPolicy is Redis' appendfsync setting.
type FsyncPolicy int

// Fsync policies.
const (
	// FsyncNo leaves flushing to the OS.
	FsyncNo FsyncPolicy = iota
	// FsyncEverySec syncs at most once per second (Redis default; the
	// configuration the paper benchmarks).
	FsyncEverySec
	// FsyncAlways syncs after every command.
	FsyncAlways
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncNo:
		return "no"
	case FsyncEverySec:
		return "everysec"
	case FsyncAlways:
		return "always"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

type aof struct {
	file      *securefs.File
	policy    FsyncPolicy
	clk       clock.Clock
	lastSync  time.Time
	encrypted bool
	buf       []byte // reused encode buffer; callers hold the store lock
	appends   int64  // commands appended (each is its own "batch" inline)
	syncs     int64  // fsyncs issued
}

func openAOF(path string, key []byte, policy FsyncPolicy, clk clock.Clock) (*aof, error) {
	// A small write buffer makes AOF bytes reach the OS every few dozen
	// commands, like Redis flushing aof_buf each event-loop iteration.
	f, err := securefs.Append(path, securefs.Options{Key: key, BufferSize: 1 << 10})
	if err != nil {
		return nil, err
	}
	return &aof{file: f, policy: policy, clk: clk, lastSync: clk.Now(), encrypted: key != nil}, nil
}

func encodeCommand(buf []byte, args ...string) []byte {
	buf = binary.AppendUvarint(buf[:0], uint64(len(args)))
	for _, a := range args {
		buf = binary.AppendUvarint(buf, uint64(len(a)))
		buf = append(buf, a...)
	}
	return buf
}

// encodeCommandNum encodes args plus the decimal rendering of ns as one
// final argument — byte-identical to encodeCommand(buf, append(args,
// fmt.Sprintf("%d", ns))...) without materializing the string. The
// SETEX/EXPIREAT hot paths go through here so a deadline costs no
// allocation.
func encodeCommandNum(buf []byte, ns int64, args ...string) []byte {
	var num [20]byte // len("-9223372036854775808")
	nb := strconv.AppendInt(num[:0], ns, 10)
	buf = binary.AppendUvarint(buf[:0], uint64(len(args))+1)
	for _, a := range args {
		buf = binary.AppendUvarint(buf, uint64(len(a)))
		buf = append(buf, a...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(nb)))
	return append(buf, nb...)
}

func decodeCommand(p []byte) ([]string, error) {
	argc, n := binary.Uvarint(p)
	if n <= 0 || argc > 16 {
		return nil, fmt.Errorf("kvstore: bad AOF command header")
	}
	p = p[n:]
	args := make([]string, 0, argc)
	for i := uint64(0); i < argc; i++ {
		l, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p)-n) < l {
			return nil, fmt.Errorf("kvstore: truncated AOF argument")
		}
		args = append(args, string(p[n:n+int(l)]))
		p = p[n+int(l):]
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("kvstore: trailing bytes in AOF command")
	}
	return args, nil
}

func (a *aof) append(args ...string) error {
	a.buf = encodeCommand(a.buf, args...)
	return a.writeBuf()
}

// appendNum is append with a final integer argument, encoded without the
// intermediate string.
func (a *aof) appendNum(ns int64, args ...string) error {
	a.buf = encodeCommandNum(a.buf, ns, args...)
	return a.writeBuf()
}

// writeBuf appends the encoded frame in a.buf and applies the fsync
// policy.
func (a *aof) writeBuf() error {
	if err := a.file.AppendFrame(a.buf); err != nil {
		return err
	}
	a.appends++
	switch a.policy {
	case FsyncAlways:
		if err := a.syncTimed(); err != nil {
			return err
		}
		a.lastSync = a.clk.Now()
	case FsyncEverySec:
		if now := a.clk.Now(); now.Sub(a.lastSync) >= time.Second {
			if err := a.syncTimed(); err != nil {
				return err
			}
			a.lastSync = now
		}
	}
	return nil
}

// syncTimed fsyncs, feeding the fsync-latency histogram — the same series
// the staged pipeline reports, so the two persistence profiles compare
// directly on a scrape.
func (a *aof) syncTimed() error {
	start := a.clk.Now()
	err := a.file.Sync()
	obsAOFFsyncNs.ObserveDuration(a.clk.Since(start))
	if err != nil {
		return err
	}
	a.syncs++
	return nil
}

func (a *aof) appendSet(key, value string, expireAt time.Time) error {
	if expireAt.IsZero() {
		return a.append(opSet, key, value)
	}
	return a.appendNum(expireAt.UnixNano(), opSetex, key, value)
}

func (a *aof) appendDel(key string) error { return a.append(opDel, key) }

func (a *aof) appendExpireAt(key string, t time.Time) error {
	ns := int64(0)
	if !t.IsZero() {
		ns = t.UnixNano()
	}
	return a.appendNum(ns, opExpireAt, key)
}

func (a *aof) appendFlushAll() error { return a.append(opFlushAll) }

func (a *aof) appendRead(op, key string) error { return a.append(op, key) }

func (a *aof) sync() error { return a.syncTimed() }

func (a *aof) size() (int64, error) { return a.file.Size() }

func (a *aof) close() error { return a.file.Close() }

// ---------------------------------------------------------------------------
// Replay: one decoded-frame grammar shared by the sequential rebuild, the
// concurrent striped rebuild and the fuzzer.

// replayOp is one parsed, validated AOF command.
type replayOp struct {
	op   string
	key  string
	val  string
	ns   int64
	read bool // GET/SCAN/IDXSCAN: audit-only, replays as a no-op
}

// parseReplayCommand validates one decoded command's name, arity and
// integer arguments. Every malformed frame fails here, before any state
// is touched, so both replay paths (and the fuzzer) share one error
// surface.
func parseReplayCommand(args []string) (replayOp, error) {
	if len(args) == 0 {
		return replayOp{}, fmt.Errorf("kvstore: empty AOF command")
	}
	switch args[0] {
	case opSet:
		if len(args) != 3 {
			return replayOp{}, fmt.Errorf("kvstore: bad SET arity %d", len(args))
		}
		return replayOp{op: opSet, key: args[1], val: args[2]}, nil
	case opSetex:
		if len(args) != 4 {
			return replayOp{}, fmt.Errorf("kvstore: bad SETEX arity %d", len(args))
		}
		ns, err := parseInt64(args[3])
		if err != nil {
			return replayOp{}, err
		}
		return replayOp{op: opSetex, key: args[1], val: args[2], ns: ns}, nil
	case opDel:
		if len(args) != 2 {
			return replayOp{}, fmt.Errorf("kvstore: bad DEL arity %d", len(args))
		}
		return replayOp{op: opDel, key: args[1]}, nil
	case opExpireAt:
		if len(args) != 3 {
			return replayOp{}, fmt.Errorf("kvstore: bad EXPIREAT arity %d", len(args))
		}
		ns, err := parseInt64(args[2])
		if err != nil {
			return replayOp{}, err
		}
		return replayOp{op: opExpireAt, key: args[1], ns: ns}, nil
	case opFlushAll:
		if len(args) != 1 {
			return replayOp{}, fmt.Errorf("kvstore: bad FLUSHALL arity %d", len(args))
		}
		return replayOp{op: opFlushAll}, nil
	case opGet, opScan, opIdxScan:
		// Read audit entries: no state change.
		return replayOp{op: args[0], read: true}, nil
	default:
		return replayOp{}, fmt.Errorf("kvstore: unknown AOF command %q", args[0])
	}
}

// apply replays one single-key op onto this stripe. The caller has
// exclusive access (Open-time rebuild).
func (st *stripe) apply(op replayOp) {
	switch op.op {
	case opSet:
		st.set(op.key, op.val, time.Time{})
	case opSetex:
		st.set(op.key, op.val, time.Unix(0, op.ns))
	case opDel:
		st.del(op.key)
	case opExpireAt:
		if op.ns == 0 {
			st.setExpireAt(op.key, time.Time{})
		} else {
			st.setExpireAt(op.key, time.Unix(0, op.ns))
		}
	}
}

// replayAOF rebuilds store state from the AOF at path. Missing files are
// fine (fresh store). Read entries (GET/SCAN) replay as no-ops. The
// striped profile decodes sequentially (frame order is the commit order)
// but applies concurrently: one worker per stripe consumes a routed
// channel, so per-key order is preserved while stripes rebuild in
// parallel; FLUSHALL acts as a barrier (drain every worker, wipe, resume).
func replayAOF(path string, key []byte, s *Store) error {
	if _, err := os.Stat(path); os.IsNotExist(err) {
		return nil
	}
	if len(s.stripes) == 1 {
		return securefs.Replay(path, securefs.Options{Key: key}, func(p []byte) error {
			op, err := decodeReplayFrame(p)
			if err != nil {
				return err
			}
			s.replayOps.Add(1)
			if op.read {
				return nil
			}
			if op.op == opFlushAll {
				s.stripes[0].flush()
				return nil
			}
			s.stripes[0].apply(op)
			return nil
		})
	}
	return s.replayConcurrent(path, key)
}

func decodeReplayFrame(p []byte) (replayOp, error) {
	args, err := decodeCommand(p)
	if err != nil {
		return replayOp{}, err
	}
	return parseReplayCommand(args)
}

// replayConcurrent is the striped rebuild: a per-stripe worker pool fed
// by the sequential decoder. Decode/parse errors surface in the reader,
// before routing; workers apply infallible typed ops.
func (s *Store) replayConcurrent(path string, key []byte) error {
	var (
		chans []chan replayOp
		wg    sync.WaitGroup
	)
	start := func() {
		chans = make([]chan replayOp, len(s.stripes))
		for i := range chans {
			ch := make(chan replayOp, 128)
			chans[i] = ch
			wg.Add(1)
			go func(st *stripe, ch <-chan replayOp) {
				defer wg.Done()
				for op := range ch {
					st.apply(op)
				}
			}(&s.stripes[i], ch)
		}
	}
	stop := func() {
		for _, ch := range chans {
			close(ch)
		}
		wg.Wait()
	}
	start()
	err := securefs.Replay(path, securefs.Options{Key: key}, func(p []byte) error {
		op, err := decodeReplayFrame(p)
		if err != nil {
			return err
		}
		s.replayOps.Add(1)
		switch {
		case op.read:
		case op.op == opFlushAll:
			stop()
			for i := range s.stripes {
				s.stripes[i].flush()
			}
			start()
		default:
			chans[s.stripeIndex(op.key)] <- op
		}
		return nil
	})
	stop()
	return err
}

// parseInt64 sits on the AOF replay hot path (every SETEX/EXPIREAT
// deadline goes through it), so it parses without the Sscanf machinery.
func parseInt64(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("kvstore: bad integer %q: %w", s, err)
	}
	return v, nil
}

// Rewrite compacts the AOF: the current dataset is written as a fresh
// sequence of SET/SETEX commands to path+".rewrite", which then
// atomically replaces the live AOF (Redis' BGREWRITEAOF). The striped
// profile rewrites concurrently with live traffic — per-stripe shared-
// lock snapshots, a rewrite buffer for concurrently staged commands, a
// short exclusive swap window (rewrite.go); the legacy single-mutex
// profile rewrites in the foreground, like everything else it does.
func (s *Store) Rewrite() error {
	if s.pipe != nil {
		return s.backgroundRewrite()
	}
	return s.rewriteForeground()
}

// rewriteForeground is the legacy profile's stop-the-world rewrite: the
// store stays locked for the whole snapshot write.
func (s *Store) rewriteForeground() error {
	if s.aof == nil {
		return fmt.Errorf("kvstore: no AOF to rewrite")
	}
	start := time.Now()
	s.lockAll()
	defer s.unlockAll()
	if s.closed.Load() {
		return errClosed
	}
	path := s.aof.file.Path()
	tmp := path + ".rewrite"
	key := s.aofKey
	encrypted := s.aof.encrypted
	nf, err := securefs.Create(tmp, securefs.Options{Key: key})
	if err != nil {
		return err
	}
	if err := s.writeSnapshot(nf); err != nil {
		nf.Close()
		return err
	}
	if err := nf.Sync(); err != nil {
		nf.Close()
		return err
	}
	if err := nf.Close(); err != nil {
		return err
	}
	if err := s.aof.close(); err != nil {
		return err
	}
	if err := securefs.Replace(tmp, path); err != nil {
		return err
	}
	na, err := openAOF(path, key, s.aof.policy, s.clk)
	if err != nil {
		return err
	}
	na.encrypted = encrypted
	s.aof = na
	size, _ := na.size()
	s.finishRewrite(start, 0, size)
	return nil
}

// writeSnapshot emits the live dataset as SET/SETEX frames. Callers hold
// every stripe lock.
func (s *Store) writeSnapshot(f *securefs.File) error {
	var buf []byte
	for i := range s.stripes {
		st := &s.stripes[i]
		for _, k := range st.keySlice {
			e := st.dict[k]
			if e.expireAt.IsZero() {
				buf = encodeCommand(buf, opSet, k, e.value)
			} else {
				buf = encodeCommandNum(buf, e.expireAt.UnixNano(), opSetex, k, e.value)
			}
			if err := f.AppendFrame(buf); err != nil {
				return err
			}
		}
	}
	return nil
}
