package main

import (
	"encoding/json"
	"os"
	"time"

	gdprbench "repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
)

// The -json schema: one self-describing document per timed run, built
// from the same stats.Histogram accumulators the text report uses, so
// a bench trajectory can be recorded as BENCH_*.json files and diffed
// across commits. Engine-side blocks (kvstore, server, slowlog) read
// the obs registry — the process-local one for embedded runs, the
// server's own (over the METRICS wire verb) for -connect runs.

type jsonReport struct {
	Engine     string `json:"engine"`
	Records    int    `json:"records"`
	Operations int    `json:"operations"`
	Threads    int    `json:"threads"`
	Shards     int    `json:"shards"`
	Connect    string `json:"connect,omitempty"`
	// OpenLoop marks a run whose operations arrived on a fixed schedule
	// (-arrival-rate, ops/sec per workload). In that mode every per-op
	// latency below is measured from the operation's scheduled arrival,
	// so queueing delay is included (no coordinated omission).
	OpenLoop    bool    `json:"open_loop,omitempty"`
	ArrivalRate float64 `json:"arrival_rate,omitempty"`
	// RSSHighWaterBytes is the client process's peak resident set size at
	// report time (/proc/self/status VmHWM) — the bounded-memory claim of
	// the streaming read path is checked against it.
	RSSHighWaterBytes int64 `json:"rss_high_water_bytes"`
	// AllocsPerOp is the client process's heap allocations per workload
	// operation, metered around each timed loop alone (load-phase and
	// reporting allocations excluded).
	AllocsPerOp float64        `json:"allocs_per_op"`
	Load        jsonLoad       `json:"load"`
	Workloads   []jsonWorkload `json:"workloads"`
	Space       jsonSpace      `json:"space"`
	Audit       *jsonAudit     `json:"audit,omitempty"`
	Kvstore     *jsonKvstore   `json:"kvstore,omitempty"`
	Server      *jsonServer    `json:"server,omitempty"`
	Slowlog     []jsonSlowOp   `json:"slowlog,omitempty"`
}

// jsonAudit is the audit pipeline's accounting for the run. For remote
// runs the counters live server-side, so only the policy the server
// announced at handshake is recorded.
type jsonAudit struct {
	Policy        string `json:"policy"`
	Entries       int64  `json:"entries,omitempty"`
	Bytes         int64  `json:"bytes,omitempty"`
	Batches       int64  `json:"batches,omitempty"`
	Flushes       int64  `json:"flushes,omitempty"`
	MaxQueueDepth int64  `json:"max_queue_depth,omitempty"`
	Segments      int64  `json:"segments,omitempty"`
}

// jsonKvstore is the Redis-model engine's concurrency/persistence
// accounting for the run (stripe count, read- vs write-mode stripe-lock
// acquisitions and contention, full-keyspace scans served, dataset and
// index footprints, staged-AOF group commits and fsyncs), read from the
// obs registry the engine reports to — which is how it is now available
// for remote runs too. Absent for the postgres model.
type jsonKvstore struct {
	Stripes            int64 `json:"stripes"`
	FullScans          int64 `json:"full_scans"`
	ReadLocks          int64 `json:"read_locks"`
	WriteLocks         int64 `json:"write_locks"`
	LockContention     int64 `json:"lock_contention"`
	Bytes              int64 `json:"bytes"`
	IndexBytes         int64 `json:"index_bytes,omitempty"`
	AOFBatches         int64 `json:"aof_batches,omitempty"`
	AOFFlushes         int64 `json:"aof_flushes,omitempty"`
	AOFRewrites        int64 `json:"aof_rewrites,omitempty"`
	AOFLastRewriteUS   int64 `json:"aof_last_rewrite_us,omitempty"`
	AOFRewriteDiverted int64 `json:"aof_rewrite_diverted,omitempty"`
	ReplayOps          int64 `json:"replay_ops,omitempty"`
	ReplayUS           int64 `json:"replay_us,omitempty"`
}

// jsonServer is the network front end's accounting (remote runs only):
// frames served, sessions accepted, and the pipeline read-ahead depth
// distribution the client's request stream actually achieved.
type jsonServer struct {
	Frames           int64 `json:"frames"`
	Sessions         int64 `json:"sessions"`
	PipelineDepthP50 int64 `json:"pipeline_depth_p50"`
	PipelineDepthP95 int64 `json:"pipeline_depth_p95"`
	PipelineDepthMax int64 `json:"pipeline_depth_max"`
}

// jsonSlowOp is one slowlog entry: a traced operation whose total
// latency crossed -slowlog-threshold, with per-phase attribution.
type jsonSlowOp struct {
	Seq      uint64             `json:"seq"`
	Time     string             `json:"time,omitempty"`
	Op       string             `json:"op"`
	Role     string             `json:"role"`
	KeyClass string             `json:"key_class,omitempty"`
	Err      bool               `json:"err,omitempty"`
	TotalUS  float64            `json:"total_us"`
	PhasesUS map[string]float64 `json:"phases_us,omitempty"`
}

type jsonLoad struct {
	CompletionMS float64 `json:"completion_ms"`
	OpsPerSec    float64 `json:"ops_per_sec"`
}

type jsonWorkload struct {
	Workload     string            `json:"workload"`
	Operations   int64             `json:"operations"`
	Errors       int64             `json:"errors"`
	CompletionMS float64           `json:"completion_ms"`
	OpsPerSec    float64           `json:"ops_per_sec"`
	Ops          map[string]jsonOp `json:"ops"`
}

type jsonOp struct {
	OK     int64   `json:"ok"`
	Errors int64   `json:"errors"`
	P50us  float64 `json:"p50_us"`
	P95us  float64 `json:"p95_us"`
	P99us  float64 `json:"p99_us"`
	MaxUS  float64 `json:"max_us"`
}

type jsonSpace struct {
	PersonalBytes int64   `json:"personal_bytes"`
	TotalBytes    int64   `json:"total_bytes"`
	Factor        float64 `json:"factor"`
}

// obsSnapshot captures the registry the engine under test reports to:
// pulled over the METRICS wire verb for remote runs, read from the
// process-local default registry otherwise. A remote server predating
// the verb (or a pull error) degrades to an empty snapshot — the report
// just omits the engine-side blocks.
func obsSnapshot(db gdprbench.DB, isRemote bool) obs.Snapshot {
	if isRemote {
		if sm, ok := db.(interface {
			ServerMetrics(bool) (obs.Snapshot, error)
		}); ok {
			if snap, err := sm.ServerMetrics(true); err == nil {
				return snap
			}
		}
		return obs.Snapshot{}
	}
	return obs.Default().Snapshot(true)
}

// auditBlock derives the report's audit block from the DB under test:
// full pipeline counters for an embedded middleware, the announced
// policy alone for a remote client, nil when logging is off.
func auditBlock(db gdprbench.DB, opts options) *jsonAudit {
	if st, ok := db.(gdprbench.AuditStatser); ok {
		s, on := st.AuditStats()
		if !on {
			return nil
		}
		return &jsonAudit{
			Policy:        opts.store.AuditPolicy.String(),
			Entries:       s.Appended,
			Bytes:         s.Bytes,
			Batches:       s.Batches,
			Flushes:       s.Flushes,
			MaxQueueDepth: s.MaxQueueDepth,
			Segments:      s.Segments,
		}
	}
	if rc, ok := db.(interface{ ServerAuditPolicy() string }); ok {
		if p := rc.ServerAuditPolicy(); p != "" {
			return &jsonAudit{Policy: p}
		}
	}
	return nil
}

// kvstoreBlock reads the Redis-model engine's series out of the obs
// snapshot; nil when no kvstore registered a collector (postgres runs,
// or a remote server without one).
func kvstoreBlock(snap obs.Snapshot) *jsonKvstore {
	stripes := snap.Gauge("kvstore_stripes")
	if stripes == 0 {
		return nil
	}
	return &jsonKvstore{
		Stripes:            stripes,
		FullScans:          snap.Counter("kvstore_full_scans_total"),
		ReadLocks:          snap.Counter("kvstore_read_locks_total"),
		WriteLocks:         snap.Counter("kvstore_write_locks_total"),
		LockContention:     snap.Counter("kvstore_lock_contention_total"),
		Bytes:              snap.Gauge("kvstore_bytes"),
		IndexBytes:         snap.Gauge("kvstore_index_bytes"),
		AOFBatches:         snap.Counter("kvstore_aof_batches_total"),
		AOFFlushes:         snap.Counter("kvstore_aof_flushes_total"),
		AOFRewrites:        snap.Counter("kvstore_aof_rewrites_total"),
		AOFLastRewriteUS:   snap.Gauge("kvstore_aof_last_rewrite_us"),
		AOFRewriteDiverted: snap.Counter("kvstore_aof_rewrite_diverted_total"),
		ReplayOps:          snap.Counter("kvstore_replay_ops_total"),
		ReplayUS:           snap.Counter("kvstore_replay_us_total"),
	}
}

// serverBlock reads the network front end's series; nil when the run
// was embedded (no server frames in the snapshot).
func serverBlock(snap obs.Snapshot) *jsonServer {
	frames := snap.Counter("server_frames_total")
	if frames == 0 {
		return nil
	}
	depth := snap.Hists["server_pipeline_depth"]
	return &jsonServer{
		Frames:           frames,
		Sessions:         snap.Counter("server_connections_total"),
		PipelineDepthP50: depth.P50,
		PipelineDepthP95: depth.P95,
		PipelineDepthMax: depth.Max,
	}
}

// slowlogBlock renders the snapshot's slowlog (newest first), phase
// durations keyed by phase name.
func slowlogBlock(snap obs.Snapshot) []jsonSlowOp {
	if len(snap.Slowlog) == 0 {
		return nil
	}
	out := make([]jsonSlowOp, 0, len(snap.Slowlog))
	for _, e := range snap.Slowlog {
		op := jsonSlowOp{
			Seq:      e.Seq,
			Op:       e.Op,
			Role:     e.Role,
			KeyClass: e.KeyClass,
			Err:      e.Err,
			TotalUS:  float64(e.Total.Nanoseconds()) / 1e3,
		}
		if !e.Time.IsZero() {
			op.Time = e.Time.UTC().Format(time.RFC3339Nano)
		}
		for p, d := range e.Phases {
			if d > 0 {
				if op.PhasesUS == nil {
					op.PhasesUS = make(map[string]float64, len(e.Phases))
				}
				op.PhasesUS[obs.Phase(p).String()] = float64(d.Nanoseconds()) / 1e3
			}
		}
		out = append(out, op)
	}
	return out
}

func writeJSONReport(path string, opts options, label string, db gdprbench.DB, loadRun *stats.Run, report core.Report, runs map[gdprbench.WorkloadName]*stats.Run, allocsPerOp float64) error {
	snap := obsSnapshot(db, opts.connect != "")
	out := jsonReport{
		Engine:            label,
		Records:           opts.records,
		Operations:        opts.ops,
		Threads:           opts.threads,
		Shards:            opts.store.Shards,
		Connect:           opts.connect,
		OpenLoop:          opts.arrivalRate > 0,
		ArrivalRate:       opts.arrivalRate,
		RSSHighWaterBytes: rssHighWaterBytes(),
		AllocsPerOp:       allocsPerOp,
		Audit:             auditBlock(db, opts),
		Kvstore:           kvstoreBlock(snap),
		Server:            serverBlock(snap),
		Slowlog:           slowlogBlock(snap),
		Load: jsonLoad{
			CompletionMS: float64(loadRun.WallTime().Microseconds()) / 1e3,
			OpsPerSec:    loadRun.Throughput(),
		},
		Space: jsonSpace{
			PersonalBytes: report.Space.PersonalBytes,
			TotalBytes:    report.Space.TotalBytes,
			Factor:        report.Space.Factor(),
		},
	}
	for _, res := range report.Results {
		run := runs[res.Workload]
		jw := jsonWorkload{
			Workload:     string(res.Workload),
			Operations:   res.Operations,
			Errors:       res.Errors,
			CompletionMS: float64(res.CompletionTime.Microseconds()) / 1e3,
			OpsPerSec:    res.Throughput,
			Ops:          make(map[string]jsonOp),
		}
		for _, op := range run.OpNames() {
			o := run.Op(op)
			jw.Ops[op] = jsonOp{
				OK:     o.OK(),
				Errors: o.Errors(),
				P50us:  float64(o.Latency.Percentile(50).Nanoseconds()) / 1e3,
				P95us:  float64(o.Latency.Percentile(95).Nanoseconds()) / 1e3,
				P99us:  float64(o.Latency.Percentile(99).Nanoseconds()) / 1e3,
				MaxUS:  float64(o.Latency.Max().Nanoseconds()) / 1e3,
			}
		}
		out.Workloads = append(out.Workloads, jw)
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
