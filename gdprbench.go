// Package gdprbench is a from-scratch Go reproduction of "Understanding
// and Benchmarking the Impact of GDPR on Database Systems" (Shastri,
// Banakar, Wasserman, Kumar, Chidambaram — VLDB 2020): the GDPRbench
// benchmark, two embedded storage engines standing in for the paper's
// Redis and PostgreSQL, the GDPR-compliance retrofits (encryption at rest
// and in transit, audit logging, timely deletion, metadata indexing,
// metadata-based access control), and a harness that regenerates every
// table and figure of the paper's evaluation.
//
// # Quick start
//
//	db, err := gdprbench.OpenEngine(gdprbench.Options{
//		Engine:     "redis",
//		Dir:        "/tmp/gdpr",
//		Compliance: gdprbench.FullCompliance(),
//	})
//	if err != nil { ... }
//	defer db.Close()
//
//	cfg := gdprbench.Config{Records: 10_000, Operations: 1_000}
//	ds, _, err := gdprbench.Load(db, cfg)       // controller loads personal data
//	run, err := gdprbench.Run(db, ds, gdprbench.Customer) // customers exercise rights
//	fmt.Println(run.Summary())
//
// See the examples/ directory for runnable walk-throughs and DESIGN.md for
// the system inventory and per-experiment index.
package gdprbench

import (
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/acl"
	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gdpr"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stats"
)

// Core types, re-exported for the public API. The paper's abstractions:
// personal-data records with seven metadata attributes (§3.1), GDPR
// queries (§3.3), role workloads (Table 2a) and compliance features (§3.2).
type (
	// DB is the GDPR query interface (§3.3) implemented by both engines.
	DB = core.DB
	// Record is one personal data item with its GDPR metadata.
	Record = gdpr.Record
	// Metadata is the seven-attribute set of §3.1.
	Metadata = gdpr.Metadata
	// Selector picks records by key or metadata attribute.
	Selector = gdpr.Selector
	// Delta is a metadata mutation.
	Delta = gdpr.Delta
	// Actor is a GDPR entity (controller, customer, processor, regulator).
	Actor = acl.Actor
	// Compliance toggles the five §3.2 feature families.
	Compliance = core.Compliance
	// Config parameterizes a benchmark run.
	Config = core.Config
	// Dataset describes the loaded records deterministically.
	Dataset = core.Dataset
	// WorkloadName names one of the four role workloads.
	WorkloadName = core.WorkloadName
	// RunStats carries a run's latencies, errors and completion time.
	RunStats = stats.Run
	// SpaceUsage is the §4.2.3 space-overhead metric input.
	SpaceUsage = core.SpaceUsage
	// CorrectnessReport is the §4.2.3 correctness metric.
	CorrectnessReport = core.CorrectnessReport
	// AuditEntry is one line of the compliance audit trail.
	AuditEntry = audit.Entry
	// Options is one store configuration: engine model, shard count,
	// directory, compliance features, clock, log policies and tuning.
	Options = core.Options
	// Tuning carries the background log-compaction knobs (AOF rewrite
	// threshold, WAL checkpoint threshold, audit retention window).
	Tuning = core.Tuning
	// ExperimentResult is one regenerated paper artifact.
	ExperimentResult = experiments.Result
	// ExperimentScale sizes experiments ("small" or "paper").
	ExperimentScale = experiments.Scale
)

// The four GDPR role workloads (Table 2a).
const (
	Controller = core.Controller
	Customer   = core.Customer
	Processor  = core.Processor
	Regulator  = core.Regulator
)

// Attribute names a GDPR metadata attribute.
type Attribute = gdpr.Attribute

// The seven metadata attributes of §3.1.
const (
	AttrPurpose   = gdpr.AttrPurpose
	AttrTTL       = gdpr.AttrTTL
	AttrUser      = gdpr.AttrUser
	AttrObjection = gdpr.AttrObjection
	AttrDecision  = gdpr.AttrDecision
	AttrSharing   = gdpr.AttrSharing
	AttrSource    = gdpr.AttrSource
)

// DeltaOp is a metadata-mutation kind.
type DeltaOp = gdpr.DeltaOp

// Metadata mutations.
const (
	DeltaSet    = gdpr.DeltaSet
	DeltaAdd    = gdpr.DeltaAdd
	DeltaRemove = gdpr.DeltaRemove
)

// Experiment scales.
const (
	ScaleSmall = experiments.Small
	ScalePaper = experiments.Paper
)

// AuditPolicy selects the audit append pipeline: inline (sync),
// group-committed with caller wait (batched), or fire-and-forget with
// bounded-queue backpressure (async). See DESIGN.md §1e.
type AuditPolicy = audit.Pipeline

// The audit pipeline spectrum (the -auditpolicy flag values).
const (
	AuditSync    = audit.PipeSync
	AuditBatched = audit.PipeBatched
	AuditAsync   = audit.PipeAsync
)

// AuditStats carries the audit pipeline's counters (gdprbench -json's
// audit block). Any DB wrapped by the compliance middleware exposes it
// through AuditStatser.
type AuditStats = audit.Stats

// AuditStatser is implemented by DBs that can report their audit
// pipeline counters (every embedded middleware-wrapped DB; remote
// clients cannot, since the trail lives server-side).
type AuditStatser interface {
	AuditStats() (AuditStats, bool)
}

// RecordCursor is the chunked-iteration contract of the streaming read
// path: Next returns the next chunk of records (io.EOF after the last)
// and Close releases the cursor early. Not safe for concurrent use.
type RecordCursor = core.RecordCursor

// StreamReader is implemented by DBs that serve selector reads as
// bounded-memory chunk streams instead of one materialized slice: every
// embedded middleware-wrapped DB and the remote client. A chunk of 0
// means DefaultStreamChunk.
type StreamReader = core.StreamReader

// DefaultStreamChunk is the records-per-chunk default of the streaming
// read path.
const DefaultStreamChunk = core.DefaultStreamChunk

// DrainCursor fully consumes cur (closing it) and returns all records —
// the bridge back from the streaming API to the materialized one.
func DrainCursor(cur RecordCursor) ([]Record, error) { return core.Drain(cur) }

// FullCompliance returns the fully-compliant configuration of §6.2.
func FullCompliance() Compliance { return core.Full() }

// NoCompliance returns the no-security baseline of §6.1.
func NoCompliance() Compliance { return core.None() }

// Engine is the narrow storage contract beneath the compliance
// middleware; implement it to give a new backend the full GDPR layer.
type Engine = core.Engine

// OpenEngine opens the store o describes — the one way to open one, shared
// by the CLIs, the examples and the tests: a single engine under the
// compliance middleware for one shard, the scatter-gather router under the
// same middleware (and a single audit trail) for several.
func OpenEngine(o Options) (DB, error) {
	if o.Shards > 1 {
		return shard.Open(o)
	}
	return core.Open(o, nil)
}

// RemoteConfig configures OpenRemote (server address, auth token,
// connection pool size per GDPR role).
type RemoteConfig = remote.Config

// OpenRemote connects to a network GDPR datastore (cmd/gdprserver or
// gdprbench -serve) and returns a DB that executes every §3.3 query
// over the pipelined wire protocol. Compliance — access control,
// redaction, audit, strict validation — runs server-side; the client is
// just another DB, so the whole benchmark stack runs over TCP
// unchanged.
func OpenRemote(cfg RemoteConfig) (DB, error) { return remote.Dial(cfg) }

// ServerConfig configures NewServer (auth token, pipeline depth, drain
// timeout).
type ServerConfig = server.Config

// Server is the wire-protocol network front end for any DB.
type Server = server.Server

// NewServer wraps db in the network service layer: a TCP server with
// per-connection role-bound sessions, request pipelining with ordered
// responses, and graceful drain on Close. The caller still owns (and
// closes) db.
func NewServer(db DB, cfg ServerConfig) *Server { return server.New(db, cfg) }

// ServeEngine opens the store o describes (on a frozen simulated clock
// with expiry daemons off when frozen, the configuration
// oracle-validation clients need) and serves it on addr until
// SIGINT/SIGTERM, then drains gracefully. An empty o.Dir uses a temp
// directory removed on exit. It is the one serve bootstrap shared by
// cmd/gdprserver and gdprbench -serve, so the two binaries cannot drift.
func ServeEngine(addr, token string, o Options, frozen bool) error {
	if o.Dir == "" {
		tmp, err := os.MkdirTemp("", "gdprserver-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		o.Dir = tmp
	}
	if frozen {
		o.Clock, o.DisableDaemons = clock.NewSim(time.Time{}), true
	}
	db, err := OpenEngine(o)
	if err != nil {
		return err
	}
	defer db.Close()
	srv := NewServer(db, ServerConfig{Token: token, AuditPolicy: o.AuditPolicy.String()})
	bound, err := srv.Start(addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving engine=%s shards=%d compliance=%s auditpolicy=%s on %s\n", o.Engine, o.Shards, o.Compliance, o.AuditPolicy, bound)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("draining...")
	return srv.Close()
}

// Load populates db with cfg.Records personal-data records as the
// controller and returns the dataset descriptor plus load statistics.
func Load(db DB, cfg Config) (*Dataset, *RunStats, error) { return core.Load(db, cfg, nil) }

// Run executes one Table 2a workload and returns its statistics; the
// workload completion time (§4.2.3) is RunStats.WallTime.
func Run(db DB, ds *Dataset, name WorkloadName) (*RunStats, error) {
	return core.Run(db, ds, name, nil)
}

// Validate replays a deterministic single-threaded script of the workload
// against db and an in-memory oracle, returning the §4.2.3 correctness
// metric. The db must be freshly loaded with ds on a non-advancing clock.
func Validate(db DB, ds *Dataset, name WorkloadName, aclEnabled bool) (CorrectnessReport, error) {
	return core.Validate(db, ds, name, clock.NewSim(time.Time{}), aclEnabled)
}

// Mix is a workload's query composition; build one to define custom
// workloads (§4.2.2).
type Mix = core.Mix

// Dist selects a record/attribute selection distribution (Table 2a);
// Mix.Dist drives record selection and Mix.SecondaryDist the minority
// query class's attribute values.
type Dist = core.Dist

// The Table 2a distributions.
const (
	DistUniform = core.DistUniform
	DistZipf    = core.DistZipf
)

// Workloads returns the Table 2a workload definitions.
func Workloads() map[WorkloadName]Mix { return core.DefaultWorkloads() }

// RunMix executes a workload mix against db. rate 0 runs closed loop;
// rate > 0 runs open loop: operations arrive on a fixed schedule at rate
// ops/sec and latency is measured from each operation's scheduled
// arrival, so queueing behind a stall is counted instead of silently
// omitted (no coordinated omission).
func RunMix(db DB, ds *Dataset, mix Mix, rate float64) (*RunStats, error) {
	return core.RunMix(db, ds, mix, rate, nil)
}

// WorkloadNames lists the four workloads in the paper's order.
func WorkloadNames() []WorkloadName { return core.WorkloadNames() }

// Selector constructors (§3.3 query families).
var (
	// ByKey selects one record by key.
	ByKey = gdpr.ByKey
	// ByUser selects all records of a data subject (G 15, G 20).
	ByUser = gdpr.ByUser
	// ByPurpose selects records collected for a purpose (G 5(1b)).
	ByPurpose = gdpr.ByPurpose
	// ByObjection selects records whose owners objected to a use (G 21).
	ByObjection = gdpr.ByObjection
	// ByNotObjecting selects records whose owners did not object (G 21.3).
	ByNotObjecting = gdpr.ByNotObjecting
	// ByDecision selects records registered for an automated decision (G 22).
	ByDecision = gdpr.ByDecision
	// ByShare selects records shared with a third party (G 13).
	ByShare = gdpr.ByShare
	// ByExpiredAt selects records whose TTL has passed (G 5(1e), G 17).
	ByExpiredAt = gdpr.ByExpiredAt
)

// Actor constructors.

// ControllerActor returns the data-controller principal.
func ControllerActor() Actor { return core.ControllerActor() }

// CustomerActor returns the data subject with the given identity.
func CustomerActor(id string) Actor { return Actor{Role: acl.Customer, ID: id} }

// ProcessorActor returns a processor acting under the given purpose.
func ProcessorActor(id, purpose string) Actor {
	return Actor{Role: acl.Processor, ID: id, Purpose: purpose}
}

// RegulatorActor returns the supervisory-authority principal.
func RegulatorActor() Actor { return core.RegulatorActor() }

// Experiments lists the regenerable paper artifacts (T1, T2a, F3a … F8b).
func Experiments() []string { return experiments.IDs() }

// RunExperiment regenerates one paper artifact.
func RunExperiment(id string, scale ExperimentScale) (ExperimentResult, error) {
	return experiments.Run(id, scale)
}

// RunAllExperiments regenerates every artifact in order.
func RunAllExperiments(scale ExperimentScale) ([]ExperimentResult, error) {
	return experiments.RunAll(scale)
}
