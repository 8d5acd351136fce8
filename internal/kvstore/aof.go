package kvstore

import (
	"encoding/binary"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

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
// staged.go's sink and rewrite.go's snapshot are the only writers of
// these frames and replayAOF the only reader, whatever Config.Striping
// wrote or reopens the file.

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

// ---------------------------------------------------------------------------
// Replay: one decoded-frame grammar shared by the rebuild and the fuzzer.

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
// is touched, so replay and the fuzzer share one error surface.
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
// fine (fresh store). Read entries (GET/SCAN) replay as no-ops. Frames
// decode sequentially (frame order is the commit order) but apply
// concurrently: one worker per stripe consumes a routed channel, so
// per-key order is preserved while stripes rebuild in parallel; FLUSHALL
// acts as a barrier (drain every worker, wipe, resume). Decode/parse
// errors surface in the reader, before routing; workers apply infallible
// typed ops.
func replayAOF(path string, key []byte, s *Store) error {
	if _, err := os.Stat(path); os.IsNotExist(err) {
		return nil
	}
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

func decodeReplayFrame(p []byte) (replayOp, error) {
	args, err := decodeCommand(p)
	if err != nil {
		return replayOp{}, err
	}
	return parseReplayCommand(args)
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
