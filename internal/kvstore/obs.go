package kvstore

import "repro/internal/obs"

// Amortized-event histograms and background-task gauges, reported to the
// process-wide registry. These sites fire per group commit, per fsync or
// per rewrite, so recording straight into the default registry costs the
// staged hot path nothing; at Striping = 0 every Direct write is its own
// batch of one and pays the batch-size observation itself. Per-command
// counters stay in the per-store atomics and reach the registry through
// the pull-time collector registered in Open.
var (
	obsAOFBatchOps      = obs.Default().Histogram("kvstore_aof_batch_ops")
	obsAOFFsyncNs       = obs.Default().Histogram("kvstore_aof_fsync_ns")
	obsRewriteNs        = obs.Default().Histogram("kvstore_aof_rewrite_duration_ns")
	obsRewriteReclaimed = obs.Default().Gauge("kvstore_aof_rewrite_bytes_reclaimed")
)
