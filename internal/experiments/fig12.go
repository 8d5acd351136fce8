package experiments

import (
	"time"

	"repro/internal/audit"
	"repro/internal/core"
)

func init() {
	register("F12", runAuditPipeline)
}

// runAuditPipeline is the F12 experiment: workload completion time of
// the same GDPR customer workload as the audit append pipeline sweeps
// sync → batched → async, next to a no-logging baseline. Both source
// papers identify monitoring/logging as the dominant cause of the 2–5x
// GDPR slowdown; F12 measures how much of that overhead the pipeline
// rebuild recovers. The audit trail runs in its strict durable
// configuration (fsync per commit): that is where the old inline path —
// every operation encoding, writing and fsyncing under one global lock —
// hurts most, and where group commit (batched) and fire-and-forget
// staging (async) recover it.
func runAuditPipeline(scale Scale) (Result, error) {
	records, ops, threads := 1_200, 400, 4
	if scale == Paper {
		records, ops, threads = 20_000, 5_000, 8
	}
	res := Result{
		ID:     "F12",
		Title:  "Audit pipeline ablation: sync vs batched vs async appends (F12)",
		Header: []string{"Engine", "no-log", "sync", "batched", "async", "sync/async"},
	}
	for _, engine := range []string{"redis", "postgres"} {
		row := []string{engine}
		var syncWall, asyncWall time.Duration
		completion := func(logging bool, policy audit.Pipeline) (time.Duration, error) {
			run, err := leg{
				opts: core.Options{
					Engine: engine, Compliance: core.Compliance{AccessControl: true, Strict: true, Logging: logging},
					DisableDaemons: true, AuditPolicy: policy, AuditSyncAlways: true,
				},
				cfg: core.Config{Records: records, Operations: ops, Threads: threads, Seed: 1},
			}.run(core.Customer)
			if err != nil {
				return 0, err
			}
			return run.WallTime(), nil
		}
		baseline, err := completion(false, audit.PipeSync)
		if err != nil {
			return res, err
		}
		row = append(row, baseline.Round(time.Microsecond).String())
		for _, policy := range []audit.Pipeline{audit.PipeSync, audit.PipeBatched, audit.PipeAsync} {
			wall, err := completion(true, policy)
			if err != nil {
				return res, err
			}
			row = append(row, wall.Round(time.Microsecond).String())
			switch policy {
			case audit.PipeSync:
				syncWall = wall
			case audit.PipeAsync:
				asyncWall = wall
			}
		}
		row = append(row, f2(float64(syncWall)/float64(asyncWall))+"x")
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"paper (§6.1/§6.2 + HotStorage'19): monitoring/logging is the dominant cause of the 2-5x GDPR slowdown",
		"audit trail in strict durable mode (fsync per commit); sync = inline encode+write+fsync per op behind one lock (the old audit.Log), batched = group-committed with caller wait, async = staged with bounded-queue backpressure",
		"the no-log column keeps engine-side logging off too (no AOF read-logging / statement log), so it bounds the whole logging feature's cost, not just the trail's",
	)
	return res, nil
}
