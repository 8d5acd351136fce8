package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/shard"
)

func init() {
	register("F9", runShardScale)
}

// runShardScale is the F9 scale experiment, going beyond the paper: §6.3
// shows GDPR metadata queries degrading linearly with personal-data
// volume and stops there. F9 measures the axis the paper punts on —
// completion time of the scan-heavy customer workload as the engine is
// hash-partitioned into more shards behind the same compliance
// middleware. Attribute queries scatter-gather, so each shard scans 1/N
// of the records in parallel; with enough cores the Redis model's O(n)
// scans should fall toward 1/N while the fixed per-query work bounds the
// gain (Amdahl).
func runShardScale(scale Scale) (Result, error) {
	shardCounts := []int{1, 2, 4, 8}
	cfg := core.Config{Records: 4_000, Operations: 400, Threads: 8, Seed: 1}
	if scale == Paper {
		cfg = core.Config{Records: 100_000, Operations: 10_000, Threads: 8, Seed: 1}
	}
	res := Result{
		ID:     "F9",
		Title:  "Sharded engines: GDPRbench customer completion time vs shard count (F9)",
		Header: []string{"Shards", "Redis model", "PostgreSQL model"},
	}
	for _, n := range shardCounts {
		row := []string{fmt.Sprintf("%d", n)}
		for _, engine := range []string{"redis", "postgres"} {
			l := leg{
				opts:  core.Options{Engine: engine, Shards: n, Compliance: core.Full(), AuditPolicy: audit.PipeBatched},
				route: func(e []core.Engine) (core.Engine, error) { return shard.New(e) },
				cfg:   cfg,
			}
			wall, err := l.medianWall(core.Customer)
			if err != nil {
				return res, err
			}
			row = append(row, wall.Round(time.Millisecond).String())
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"beyond the paper: §6.3 measures degradation with volume; F9 measures recovery with shards",
		fmt.Sprintf("scatter-gather scan speedup is hardware-bound: GOMAXPROCS=%d on this run", runtime.GOMAXPROCS(0)))
	return res, nil
}
