package wal

import "repro/internal/obs"

// Group-commit telemetry, reported to the process-wide registry. Both
// series fire once per sink sync — every fsync the log's writer, its idle
// flush, Sync and Close issue — so the append path itself stays
// untouched. wal_group_commit_lsns is the number of records one fsync
// made durable (the batching-efficiency signal: 1 means group commit
// degenerated to per-commit fsyncs).
var (
	obsWALBatchLSNs = obs.Default().Histogram("wal_group_commit_lsns")
	obsWALFsyncNs   = obs.Default().Histogram("wal_fsync_ns")
)
