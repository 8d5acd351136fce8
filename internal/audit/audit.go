// Package audit implements the monitoring-and-logging action of Table 1
// (G 30 records of processing, G 33 breach notification): an append-only,
// timestamped trail of every data- and control-path operation, queryable
// by time range (the GET-SYSTEM-LOGS query) and by actor.
//
// It plays two roles from §5 of the paper: the Redis retrofit piggybacks
// on the AOF "updated to log all interactions including reads and scans",
// and the PostgreSQL retrofit uses csvlog plus a row-level-security policy
// "to record query responses". Both reduce to the same mechanism: one log
// entry per operation, persisted with a configurable sync policy
// (always / everysec / none — Redis' appendfsync spectrum).
//
// The append path rides internal/logpipe (see pipeline.go): callers stage
// entries through its sequencer, and its writer goroutine hands dense,
// ordered batches to this package's sink, which group-commits them into
// size-bounded on-disk segments (segment.go). Queries answer from disk +
// memory, so GET-SYSTEM-LOGS results are independent of the in-memory
// tail's eviction cap and survive restarts.
package audit

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Policy controls how aggressively entries reach stable storage.
type Policy int

// Sync policies, mirroring Redis appendfsync.
const (
	// SyncNone leaves flushing to the OS (fastest, weakest).
	SyncNone Policy = iota
	// SyncEverySec syncs at most once per second (the paper's Redis
	// configuration: "not synchronously in real-time, but in batches
	// synchronized once every second").
	SyncEverySec
	// SyncAlways syncs after every write (strict interpretation). Under
	// the batched pipeline the committer waits for a group fsync covering
	// its entry; under the async pipeline the writer still fsyncs every
	// batch, but callers do not wait.
	SyncAlways
)

func (p Policy) String() string {
	switch p {
	case SyncNone:
		return "none"
	case SyncEverySec:
		return "everysec"
	case SyncAlways:
		return "always"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Pipeline selects how an entry travels from Append to the trail.
type Pipeline int

// Pipeline modes — the ablation spectrum the audit benchmarks sweep.
const (
	// PipeSync encodes and writes inline in the caller, serialized behind
	// one lock (the legacy hot-path profile; the ablation baseline).
	PipeSync Pipeline = iota
	// PipeBatched stages the entry and waits until the writer goroutine
	// has batch-written it (and, under SyncAlways, group-fsynced it) —
	// durability semantics preserved, cost amortized across committers.
	PipeBatched
	// PipeAsync stages the entry and returns immediately; the only
	// blocking is backpressure when the bounded staging queue is full.
	// The loss window on a crash is at most one unflushed batch.
	PipeAsync
)

func (p Pipeline) String() string {
	switch p {
	case PipeSync:
		return "sync"
	case PipeBatched:
		return "batched"
	case PipeAsync:
		return "async"
	default:
		return fmt.Sprintf("Pipeline(%d)", int(p))
	}
}

// ParsePipeline maps a -auditpolicy flag value to a Pipeline.
func ParsePipeline(s string) (Pipeline, error) {
	switch s {
	case "sync":
		return PipeSync, nil
	case "batched":
		return PipeBatched, nil
	case "async":
		return PipeAsync, nil
	default:
		return 0, fmt.Errorf("audit: unknown pipeline %q (want sync, batched or async)", s)
	}
}

// Entry is one audit record.
type Entry struct {
	// Seq is a monotonically increasing sequence number assigned by Append.
	Seq uint64
	// Time is the instant the operation was logged.
	Time time.Time
	// Actor identifies who performed the operation ("controller:acme",
	// "customer:neo", ...).
	Actor string
	// Op is the operation name (e.g. "READ-DATA-BY-USR", "SET", "SELECT").
	Op string
	// Target describes what the operation touched (key or selector).
	Target string
	// OK reports whether the operation succeeded.
	OK bool
	// Note carries extra detail (error text, row counts).
	Note string
}

// encode renders an entry as one tab-separated line. Tabs and newlines in
// fields are escaped so the format is unambiguous (and so batch frames
// can join entries with newlines).
func (e Entry) encode() []byte {
	esc := func(s string) string {
		s = strings.ReplaceAll(s, "\\", `\\`)
		s = strings.ReplaceAll(s, "\t", `\t`)
		s = strings.ReplaceAll(s, "\n", `\n`)
		return s
	}
	ok := "0"
	if e.OK {
		ok = "1"
	}
	return []byte(strings.Join([]string{
		strconv.FormatUint(e.Seq, 10),
		strconv.FormatInt(e.Time.UnixNano(), 10),
		esc(e.Actor), esc(e.Op), esc(e.Target), ok, esc(e.Note),
	}, "\t"))
}

func unescape(s string) string {
	if !strings.Contains(s, "\\") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case 't':
				b.WriteByte('\t')
			case 'n':
				b.WriteByte('\n')
			case '\\':
				b.WriteByte('\\')
			default:
				b.WriteByte(s[i+1])
			}
			i++
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// decodeEntry parses a line produced by encode.
func decodeEntry(line []byte) (Entry, error) {
	parts := strings.SplitN(string(line), "\t", 7)
	if len(parts) != 7 {
		return Entry{}, fmt.Errorf("audit: malformed entry (%d fields)", len(parts))
	}
	seq, err := strconv.ParseUint(parts[0], 10, 64)
	if err != nil {
		return Entry{}, fmt.Errorf("audit: bad seq: %w", err)
	}
	ns, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return Entry{}, fmt.Errorf("audit: bad time: %w", err)
	}
	return Entry{
		Seq:    seq,
		Time:   time.Unix(0, ns).UTC(),
		Actor:  unescape(parts[2]),
		Op:     unescape(parts[3]),
		Target: unescape(parts[4]),
		OK:     parts[5] == "1",
		Note:   unescape(parts[6]),
	}, nil
}

// Stats are the pipeline's counters, surfaced by gdprbench -json.
type Stats struct {
	// Appended counts entries accepted into the trail.
	Appended int64
	// Bytes counts encoded entry bytes (framing excluded).
	Bytes int64
	// Batches counts write batches issued (== Appended under PipeSync).
	Batches int64
	// Flushes counts fsyncs issued.
	Flushes int64
	// MaxQueueDepth is the staging queue's high-water mark (pipeline
	// modes; 0 under PipeSync).
	MaxQueueDepth int64
	// Segments counts on-disk segments, the active one included.
	Segments int64
	// Compactions counts retention compaction passes that removed or
	// rewrote at least one segment.
	Compactions int64
	// CompactedEntries counts entries dropped by retention compaction.
	CompactedEntries int64
}
