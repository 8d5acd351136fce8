// Command gdprbench loads a personal-data dataset into one of the two
// engines and runs the Table 2a workloads against it, printing the
// §4.2.3 metrics (completion time per workload, correctness when
// requested, and the space-overhead factor). With -shards N the engine is
// hash-partitioned into N shards behind the same compliance middleware;
// attribute queries scatter-gather across shards in parallel.
//
// The benchmark also runs client/server: -serve turns the process into a
// network datastore (like cmd/gdprserver), and -connect points the whole
// benchmark stack at such a server over the pipelined wire protocol —
// same workloads, same oracle, compliance enforced server-side.
//
// Examples:
//
//	gdprbench -engine redis -records 10000 -ops 2000
//	gdprbench -engine postgres -index -workloads controller,customer
//	gdprbench -engine redis -validate
//	gdprbench -engine redis -shards 4 -records 20000
//	gdprbench -engine redis -secondarydist uniform -workloads processor
//	gdprbench -serve 127.0.0.1:7946 -engine redis
//	gdprbench -connect 127.0.0.1:7946 -records 10000 -ops 2000 -json out.json
//
// A run exits non-zero if any workload records operation errors, so CI
// cannot mistake a failing run for a passing one.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	gdprbench "repro"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
)

type options struct {
	store       gdprbench.Options // the ten engine flags (core.RegisterFlags)
	records     int
	ops         int
	threads     int
	dataSize    int
	seed        int64
	workloads   string
	secondary   *gdprbench.Dist
	validate    bool
	serve       string
	frozen      bool
	connect     string
	token       string
	jsonPath    string
	arrivalRate float64
	slowlog     time.Duration
	cpuProfile  string
	memProfile  string
}

// engineFlags are meaningless with -connect (the server owns the
// engine); benchFlags are meaningless with -serve (a server runs no
// workloads). Naming each set keeps the rejection messages exact
// instead of silently dropping misplaced flags. main adds every flag
// core.RegisterFlags declares to engineFlags.
var engineFlags = map[string]bool{"slowlog-threshold": true}

var benchFlags = map[string]bool{
	"records": true, "ops": true, "threads": true, "datasize": true, "seed": true,
	"workloads": true, "secondarydist": true, "validate": true, "json": true,
	"arrival-rate": true, "cpuprofile": true, "memprofile": true,
}

func main() {
	engineOpts := core.RegisterFlags(flag.CommandLine)
	flag.VisitAll(func(f *flag.Flag) { engineFlags[f.Name] = true }) // nothing else is declared yet
	var (
		records   = flag.Int("records", 10_000, "personal-data records to load")
		ops       = flag.Int("ops", 2_000, "operations per workload")
		threads   = flag.Int("threads", 8, "client threads")
		dataSize  = flag.Int("datasize", 10, "personal-data payload bytes per record")
		seed      = flag.Int64("seed", 1, "random seed")
		workloads = flag.String("workloads", "controller,customer,processor,regulator", "comma-separated workloads")
		validate  = flag.Bool("validate", false, "run the single-threaded correctness pass instead of the timed run")
		secondary = flag.String("secondarydist", "", "override the minority-query attribute distribution for timed runs: uniform | zipf (default: each workload's Table 2a distribution)")
		serve     = flag.String("serve", "", "serve the configured engine on this TCP address instead of running workloads")
		frozen    = flag.Bool("frozenclock", false, "with -serve: run engines on a simulated clock frozen at the epoch with expiry daemons off (required for -connect -validate clients)")
		connect   = flag.String("connect", "", "run the benchmark against a gdprserver at this TCP address instead of an embedded engine")
		token     = flag.String("token", "", "auth token for -serve / -connect")
		jsonPath  = flag.String("json", "", "write machine-readable results (per-workload completion, ops/s, per-op p50/p95/p99) to this file")
		arrival   = flag.Float64("arrival-rate", 0, "open-loop mode: issue operations on a fixed schedule at this many ops/sec per workload, measuring latency from each operation's scheduled arrival (coordinated-omission-free); 0 = closed loop")
		slowlog   = flag.Duration("slowlog-threshold", 0, "record every operation at least this slow in the slowlog with per-phase latency attribution, reported in -json (e.g. 10ms; 0 = off); with -connect, set it on the server instead")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProf   = flag.String("memprofile", "", "write a heap/allocation profile to this file when the run ends")
	)
	flag.Parse()

	secondaryDist, err := parseDist(*secondary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gdprbench:", err)
		os.Exit(1)
	}
	opts := options{
		records: *records, ops: *ops, threads: *threads,
		dataSize: *dataSize, seed: *seed,
		workloads: *workloads, secondary: secondaryDist, validate: *validate,
		serve: *serve, frozen: *frozen, connect: *connect, token: *token, jsonPath: *jsonPath,
		arrivalRate: *arrival, slowlog: *slowlog,
		cpuProfile: *cpuProf, memProfile: *memProf,
	}
	if err := run(opts, engineOpts); err != nil {
		fmt.Fprintln(os.Stderr, "gdprbench:", err)
		os.Exit(1)
	}
}

// parseDist maps the -secondarydist flag value to a distribution; nil
// means "keep each workload's Table 2a default".
func parseDist(s string) (*gdprbench.Dist, error) {
	switch s {
	case "":
		return nil, nil
	case "uniform":
		d := gdprbench.DistUniform
		return &d, nil
	case "zipf":
		d := gdprbench.DistZipf
		return &d, nil
	default:
		return nil, fmt.Errorf("-secondarydist must be uniform or zipf, got %q", s)
	}
}

func run(opts options, engineOpts func() (gdprbench.Options, error)) error {
	if opts.serve != "" && opts.connect != "" {
		return fmt.Errorf("-serve and -connect are mutually exclusive")
	}
	if opts.connect != "" {
		var misplaced []string
		flag.Visit(func(f *flag.Flag) {
			if engineFlags[f.Name] {
				misplaced = append(misplaced, "-"+f.Name)
			}
		})
		if len(misplaced) > 0 {
			return fmt.Errorf("%s configure the engine host; with -connect, set them on the server instead", strings.Join(misplaced, ", "))
		}
	}
	if opts.serve != "" {
		var misplaced []string
		flag.Visit(func(f *flag.Flag) {
			if benchFlags[f.Name] {
				misplaced = append(misplaced, "-"+f.Name)
			}
		})
		if len(misplaced) > 0 {
			return fmt.Errorf("%s drive workload runs; a -serve process only hosts the engine — run them from a -connect client", strings.Join(misplaced, ", "))
		}
	}
	if opts.frozen && opts.serve == "" {
		return fmt.Errorf("-frozenclock only applies to -serve")
	}
	var err error
	if opts.store, err = engineOpts(); err != nil {
		return err
	}
	if opts.slowlog < 0 {
		return fmt.Errorf("-slowlog-threshold must be >= 0")
	}
	if opts.arrivalRate < 0 {
		return fmt.Errorf("-arrival-rate must be >= 0")
	}
	// Arm the process-wide registry before any engine opens: embedded
	// runs and -serve both report there.
	obs.Default().SetSlowlogThreshold(opts.slowlog)
	if opts.serve != "" {
		// The one serve bootstrap shared with cmd/gdprserver (temp-dir
		// handling, frozen clock, drain on SIGINT/SIGTERM).
		return gdprbench.ServeEngine(opts.serve, opts.token, opts.store, opts.frozen)
	}
	if opts.store.Dir == "" {
		opts.store.Dir, err = os.MkdirTemp("", "gdprbench-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(opts.store.Dir)
	}

	cfg := gdprbench.Config{
		Records: opts.records, Operations: opts.ops, Threads: opts.threads,
		DataSize: opts.dataSize, Seed: opts.seed,
	}

	var names []gdprbench.WorkloadName
	for _, w := range strings.Split(opts.workloads, ",") {
		w = strings.TrimSpace(w)
		if w != "" {
			names = append(names, gdprbench.WorkloadName(w))
		}
	}

	stopProfiles, err := startProfiles(opts)
	if err != nil {
		return err
	}
	if opts.validate {
		err = runValidate(opts, cfg, names)
	} else {
		err = runTimed(opts, cfg, names)
	}
	if perr := stopProfiles(); perr != nil && err == nil {
		err = perr
	}
	return err
}

// startProfiles arms -cpuprofile / -memprofile; the returned stop
// function finalizes both files once the run ends.
func startProfiles(opts options) (func() error, error) {
	var cpu *os.File
	if opts.cpuProfile != "" {
		f, err := os.Create(opts.cpuProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpu = f
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if opts.memProfile != "" {
			f, err := os.Create(opts.memProfile)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // settle the heap so in-use numbers reflect live data
			return pprof.WriteHeapProfile(f)
		}
		return nil
	}, nil
}

// openBench returns the DB under test: a remote client for -connect, an
// embedded engine otherwise, plus its report label.
func openBench(opts options, clk clock.Clock, disableDaemons bool) (gdprbench.DB, string, error) {
	if opts.connect != "" {
		db, err := gdprbench.OpenRemote(gdprbench.RemoteConfig{
			Addr: opts.connect, Token: opts.token, ConnsPerRole: max(2, opts.threads/2),
		})
		return db, "remote(" + opts.connect + ")", err
	}
	o := opts.store
	o.Clock, o.DisableDaemons = clk, disableDaemons
	db, err := gdprbench.OpenEngine(o)
	label := o.Engine
	if o.Shards > 1 {
		label = fmt.Sprintf("%s x%d shards", o.Engine, o.Shards)
	}
	return db, label, err
}

func runValidate(opts options, cfg gdprbench.Config, names []gdprbench.WorkloadName) error {
	if opts.secondary != nil {
		// The oracle pass replays its own deterministic script, not a
		// Mix, so a distribution override would be silently ignored.
		return fmt.Errorf("-secondarydist applies to timed runs only, not -validate")
	}
	if opts.jsonPath != "" {
		// The JSON report carries timed-run latency histograms; failing
		// loudly beats a CI script reading a file that was never written.
		return fmt.Errorf("-json applies to timed runs only, not -validate")
	}
	if opts.arrivalRate > 0 {
		// The oracle replays a deterministic script; pacing it open-loop
		// would change nothing but the wall clock.
		return fmt.Errorf("-arrival-rate applies to timed runs only, not -validate")
	}
	if opts.connect != "" && len(names) != 1 {
		// The oracle needs a freshly loaded store per workload; a remote
		// server cannot be reopened from here.
		return fmt.Errorf("-connect -validate checks one workload per freshly started server (-frozenclock); pass exactly one via -workloads")
	}
	var total gdprbench.CorrectnessReport
	for _, name := range names {
		sim := clock.NewSim(time.Time{})
		subOpts := opts
		if opts.connect == "" {
			// Each workload validates against a freshly loaded store.
			sub, err := os.MkdirTemp(opts.store.Dir, "validate-*")
			if err != nil {
				return err
			}
			subOpts.store.Dir = sub
		}
		db, _, err := openBench(subOpts, sim, true)
		if err != nil {
			return err
		}
		ds, _, err := core.Load(db, cfg, sim)
		if err != nil {
			db.Close()
			return err
		}
		rep, err := core.Validate(db, ds, name, sim, opts.store.Compliance.AccessControl)
		db.Close()
		if err != nil {
			return err
		}
		fmt.Printf("workload %-10s correctness %.2f%% (%d/%d)\n", name, rep.Score(), rep.Matched, rep.Total)
		total.Total += rep.Total
		total.Matched += rep.Matched
	}
	fmt.Printf("cumulative correctness %.2f%% (%d/%d)\n", total.Score(), total.Matched, total.Total)
	return nil
}

func runTimed(opts options, cfg gdprbench.Config, names []gdprbench.WorkloadName) error {
	db, label, err := openBench(opts, nil, false)
	if err != nil {
		return err
	}
	defer db.Close()

	if opts.connect != "" {
		// The server owns the compliance configuration; printing the
		// client-side default would misattribute the results.
		fmt.Printf("loading %d records into %s (compliance: server-side)...\n", opts.records, label)
	} else {
		fmt.Printf("loading %d records into %s (compliance: %s)...\n", opts.records, label, opts.store.Compliance)
	}
	ds, loadRun, err := gdprbench.Load(db, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("load: %v (%.0f inserts/s)\n", loadRun.WallTime().Round(time.Millisecond), loadRun.Throughput())

	report := core.Report{Engine: label, Records: opts.records}
	runs := make(map[gdprbench.WorkloadName]*stats.Run, len(names))
	// Heap allocations per workload operation (the read-path allocation
	// budget the pooled codec and copy-out paths are accountable to),
	// metered tightly around each timed loop — never the load phase or
	// the reporting between workloads.
	var meter allocMeter
	for _, name := range names {
		var run *gdprbench.RunStats
		err := meter.measure(func() (int64, error) {
			mix, ok := gdprbench.Workloads()[name]
			if !ok {
				return 0, fmt.Errorf("unknown workload %q", name)
			}
			if opts.secondary != nil {
				mix.SecondaryDist = *opts.secondary
			}
			var err error
			run, err = gdprbench.RunMix(db, ds, mix, opts.arrivalRate)
			if err != nil {
				return 0, err
			}
			return run.TotalOps(), nil
		})
		if err != nil {
			return fmt.Errorf("workload %s: %w", name, err)
		}
		runs[name] = run
		report.Results = append(report.Results, core.WorkloadResult{
			Workload:       name,
			Operations:     run.TotalOps(),
			Errors:         run.TotalErrors(),
			CompletionTime: run.WallTime(),
			Throughput:     run.Throughput(),
			Correctness:    -1,
		})
	}
	allocsPerOp := meter.allocsPerOp()

	space, err := db.SpaceUsage()
	if err != nil {
		return err
	}
	report.Space = space
	fmt.Print(report)

	if opts.jsonPath != "" {
		if err := writeJSONReport(opts.jsonPath, opts, label, db, loadRun, report, runs, allocsPerOp); err != nil {
			return fmt.Errorf("-json: %w", err)
		}
		fmt.Printf("wrote %s\n", opts.jsonPath)
	}

	// A run that recorded operation errors is a failed run: surface it
	// in the exit code so automation cannot mistake it for a pass.
	var totalErrs int64
	for _, res := range report.Results {
		totalErrs += res.Errors
	}
	if totalErrs > 0 {
		return fmt.Errorf("%d operation error(s) recorded across workloads", totalErrs)
	}
	return nil
}
