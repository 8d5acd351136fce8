// Command ycsb runs the traditional YCSB workloads (Table 2: A-F) against
// one of the two engines, with the paper's GDPR security features
// individually toggleable — the §6.1 experiment from the command line.
//
// Examples:
//
//	ycsb -engine redis -workload C -records 100000 -ops 100000
//	ycsb -engine postgres -workload A -log -encrypt
//	ycsb -engine redis -workload A -encrypt -ttl -log   # "combined"
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/ycsb"
)

func main() {
	var (
		engine   = flag.String("engine", "redis", "engine: redis | postgres")
		workload = flag.String("workload", "A", "YCSB workload letter (A-F)")
		records  = flag.Int("records", 10_000, "records to load")
		ops      = flag.Int("ops", 10_000, "operations to run")
		threads  = flag.Int("threads", 16, "client threads")
		seed     = flag.Int64("seed", 1, "random seed")
		dir      = flag.String("dir", "", "data directory (default: a temp dir)")
		encrypt  = flag.Bool("encrypt", false, "enable encryption at rest + in transit")
		ttl      = flag.Bool("ttl", false, "enable timely-deletion machinery")
		logAll   = flag.Bool("log", false, "log all operations including reads")
	)
	flag.Parse()
	cfg := ycsb.Config{Records: *records, Operations: *ops, Threads: *threads, Seed: *seed}
	f := ycsb.Features{Encrypt: *encrypt, TTL: *ttl, Log: *logAll}
	if err := run(*engine, *workload, *dir, cfg, f); err != nil {
		fmt.Fprintln(os.Stderr, "ycsb:", err)
		os.Exit(1)
	}
}

func run(engine, workload, dir string, cfg ycsb.Config, f ycsb.Features) error {
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "ycsb-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	kv, closeAll, err := ycsb.Open(engine, dir, f)
	if err != nil {
		return err
	}
	err = loadAndRun(kv, engine, workload, cfg, f)
	if cerr := closeAll(); err == nil {
		err = cerr
	}
	return err
}

func loadAndRun(kv ycsb.KV, engine, workload string, cfg ycsb.Config, f ycsb.Features) error {
	fmt.Printf("loading %d records into %s (encrypt=%v ttl=%v log=%v)...\n", cfg.Records, engine, f.Encrypt, f.TTL, f.Log)
	loadRun, err := ycsb.Load(kv, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("load: %v (%.0f inserts/s)\n", loadRun.WallTime().Round(time.Millisecond), loadRun.Throughput())

	run, err := ycsb.Run(kv, workload, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s:\n%s", workload, run.Summary())
	return nil
}
