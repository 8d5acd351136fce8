package experiments

import (
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/ycsb"
)

// leg is one measurement of an experiment: the store opts describes,
// loaded with cfg. Every leg gets a fresh store, as GDPRbench does — the
// controller workload's bulk deletions must not starve later workloads,
// and audit trails must not accumulate across runs.
type leg struct {
	opts core.Options
	// route, when non-nil, composes the engines (shard.New): F9 measures
	// even its one-shard row through the shard router.
	route func([]core.Engine) (core.Engine, error)
	// overTCP serves the store on loopback and drives it through a
	// remote client.
	overTCP bool
	cfg     core.Config
}

// full is the fully compliant store of the paper's §6.2 runs.
func full(engine string, indexed bool) core.Options {
	comp := core.Full()
	comp.MetadataIndexing = indexed
	return core.Options{Engine: engine, Compliance: comp}
}

// with opens l's store in a fresh temp dir, loads it and calls fn with
// the loaded store; everything is closed and removed when fn returns.
func (l leg) with(fn func(db core.DB, ds *core.Dataset) error) error {
	dir, err := os.MkdirTemp("", "gdprbench-exp-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := l.opts
	opts.Dir = dir
	db, err := core.Open(opts, l.route)
	if err != nil {
		return err
	}
	defer db.Close()
	if l.overTCP {
		srv := server.New(db, server.Config{})
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer srv.Close()
		cli, err := remote.Dial(remote.Config{Addr: addr})
		if err != nil {
			return err
		}
		defer cli.Close()
		db = cli
	}
	ds, _, err := core.Load(db, l.cfg, nil)
	if err != nil {
		return err
	}
	return fn(db, ds)
}

// run times the named Table 2a workload, closed loop, on a freshly
// loaded store. An operation error fails the leg.
func (l leg) run(name core.WorkloadName) (*stats.Run, error) {
	var run *stats.Run
	err := l.with(func(db core.DB, ds *core.Dataset) error {
		var err error
		run, err = core.Run(db, ds, name, nil)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s on %s: %w", name, l.opts.Engine, err)
	}
	return run, nil
}

// medianWall runs l's workload on three freshly loaded stores and
// returns the median completion time, which damps warm-up noise.
func (l leg) medianWall(name core.WorkloadName) (time.Duration, error) {
	var walls [3]time.Duration
	for i := range walls {
		run, err := l.run(name)
		if err != nil {
			return 0, err
		}
		walls[i] = run.WallTime()
	}
	sort.Slice(walls[:], func(i, j int) bool { return walls[i] < walls[j] })
	return walls[1], nil
}

// ycsbLeg builds the §5 YCSB stack of engine with features f in a fresh
// temp dir, loads cfg, warms up with one run of workload letter (a third
// of the window when cfg.MaxTime bounds runs) and returns the median of
// the next three runs, by throughput.
func ycsbLeg(engine string, f ycsb.Features, letter string, cfg ycsb.Config) (*stats.Run, error) {
	dir, err := os.MkdirTemp("", "gdprbench-ycsb-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	kv, closeAll, err := ycsb.Open(engine, dir, f)
	if err != nil {
		return nil, err
	}
	defer closeAll()
	if _, err := ycsb.Load(kv, cfg); err != nil {
		return nil, err
	}
	warm := cfg
	warm.MaxTime /= 3
	if _, err := ycsb.Run(kv, letter, warm); err != nil {
		return nil, err
	}
	var runs []*stats.Run
	for i := 0; i < 3; i++ {
		run, err := ycsb.Run(kv, letter, cfg)
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].Throughput() < runs[j].Throughput() })
	return runs[1], nil
}
