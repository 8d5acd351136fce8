package main

import (
	"time"

	"repro/internal/audit"
	"repro/internal/core"
)

// stackKind names the layers a workload's operations cross.
type stackKind int

const (
	stackKV    stackKind = iota // core → kvstore
	stackPG                     // core → relstore
	stackShard                  // core → shard → 4 × kvstore
	stackNet                    // remote → TCP → server → core → kvstore
)

// workload is one traffic mix over one stack. The why strings are the
// ones BENCHMARK.json and the README carry.
type workload struct {
	name  string
	why   string
	stack stackKind
	// records is the load size at full scale.
	records  int
	ttlShare float64
	mix      []mixEntry
	zipf     bool
	// seedOpsPerSec is the seed commit's closed-loop rate on this
	// workload, rounded. A run measuring for s seconds executes
	// seedOpsPerSec × s operations, however fast the build under test is:
	// the store's state evolves the same way on every commit, and a noisy
	// second cannot feed back into how much data the next second finds.
	seedOpsPerSec int
	auditPolicy   audit.Pipeline
	full          bool // full compliance (else the no-security baseline)
	tuning        core.Tuning
	// compacted names the registry counter that steps each time the store
	// finishes compacting its log; "" where the log only grows.
	compacted string
	// openRates are the fixed open-loop arrival rates r1<r2<r3 (ops/s),
	// about 0.25x, 0.4x and 0.7x the seed's closed-loop rate: the seed
	// meets the latency limit at the first two and not at the third. Zero
	// means no open-loop phase.
	openRates [3]float64
}

func (w *workload) compliance() core.Compliance {
	c := core.None()
	if w.full {
		c = core.Full()
	}
	c.MetadataIndexing = true
	return c
}

// share is the fraction of w's mix that is kind.
func (w *workload) share(kind opKind) float64 {
	var of, all float64
	for _, e := range w.mix {
		all += e.weight
		if e.kind == kind {
			of += e.weight
		}
	}
	return of / all
}

const shardCount = 4

// workloads returns the four workloads in the order they run.
func workloads() []*workload {
	return []*workload{
		{
			name:  "kv-rights",
			why:   "Table 2a customer mix on the compliant redis model: each point op pays ACL, transit, audit append and AOF commit, so core, audit, kvstore AOF and securefs work; shard, wire and relstore do not.",
			stack: stackKV, records: 30_000, ttlShare: 0.05, zipf: true,
			mix: []mixEntry{
				{opReadDataByUsr, 20}, {opReadMetaByKey, 20}, {opUpdateDataByKey, 20},
				{opUpdateMetaByKey, 20}, {opDeleteByKey, 20},
			},
			seedOpsPerSec: 11_500,
			auditPolicy:   audit.PipeBatched, full: true,
			// Redis' default of 100 gets through three rewrite cycles in a
			// run; at 30 it is nine, enough for their stalls to reach the
			// tails in every run.
			tuning:    core.Tuning{AOFRewritePct: 30},
			compacted: "kvstore_aof_rewrites_total",
		},
		{
			name:  "pg-admin",
			why:   "Table 2a controller mix on the compliant postgres model: selector-driven multi-row writes, so relstore planning, btree index upkeep and the wal dominate and per-op audit cost is minor.",
			stack: stackPG, records: 50_000, ttlShare: 0.05,
			mix: []mixEntry{
				{opCreate, 25},
				{opDeleteByPur, 25.0 / 3}, {opDeleteByTTL, 25.0 / 3}, {opDeleteByUsr, 25.0 / 3},
				{opUpdateMetaByPur, 50.0 / 3}, {opUpdateMetaByUsr, 50.0 / 3}, {opUpdateMetaByShr, 50.0 / 3},
			},
			seedOpsPerSec: 800,
			auditPolicy:   audit.PipeBatched, full: true,
			tuning:    core.Tuning{WALCheckpointBytes: 4 << 20},
			compacted: "relstore_wal_checkpoints_total",
		},
		{
			name:  "shard-scan",
			why:   "Read-only processor and regulator mix over 4 redis shards, async audit, largest data set: shard scatter-gather, index probes, kvstore read locks and the audit query path work; nothing waits on logs.",
			stack: stackShard, records: 200_000, zipf: true,
			mix: []mixEntry{
				{opReadDataByKey, 60}, {opReadDataByPur, 10}, {opReadDataByObj, 5}, {opReadDataByDec, 5},
				{opReadMetaByUsr, 10}, {opGetLogs, 5}, {opVerifyDeletion, 5},
			},
			seedOpsPerSec: 17_000,
			auditPolicy:   audit.PipeAsync, full: true,
		},
		{
			name:  "net-point",
			why:   "The paper's baseline (compliance off) through remote.Client over localhost TCP: ops are cheap, so most of each op is remote, wire, server and TCP; 10% writes ride beside the reads.",
			stack: stackNet, records: 100_000, zipf: true,
			mix: []mixEntry{
				{opReadDataByKey, 70}, {opReadMetaByKey, 10}, {opUpdateDataByKey, 10}, {opReadDataByUsr, 10},
			},
			seedOpsPerSec: 42_000,
			openRates:     [3]float64{8_000, 12_000, 40_000},
		},
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scale sizes a run. Full scale is what BENCHMARK.json measures; quick is
// the tier-1 test size.
type scale struct {
	name    string
	records func(w *workload) int
	// timedOps returns how many operations each client executes in a
	// closed-loop phase meant to last the given number of seconds.
	timedOps func(w *workload, seconds float64) int
	warm     bool // run an untimed warm-up segment before the clock
	setups   int  // set-ups per run; setup_s is their median
	reopens  int  // close/reopen cycles per run; recovery_s is their median
	// restartFor: a restart that takes 50 ms reads ±30% from one time to
	// the next, so short ones are repeated, up to three times as often,
	// until this much restarting has been timed.
	restartFor time.Duration
}

var (
	fullScale = scale{
		name:    "full",
		records: func(w *workload) int { return w.records },
		timedOps: func(w *workload, seconds float64) int {
			return int(float64(w.seedOpsPerSec)*seconds) / clients
		},
		warm: true, setups: 3, reopens: 5, restartFor: time.Second,
	}
	quickScale = scale{
		name:     "quick",
		records:  func(*workload) int { return 2000 },
		timedOps: func(*workload, float64) int { return 2000 / clients },
		setups:   1, reopens: 1,
	}
)
