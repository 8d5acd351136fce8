package shard

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/core"
)

// This file builds ready-to-use sharded clients: N storage engines (one
// subdirectory, AOF/WAL and expiry loop each) under one Router, wrapped
// in one compliance middleware with a single audit trail — the topology
// the package comment describes.

// shardDir returns (and creates) shard i's subdirectory; "" stays "".
func shardDir(base string, i int) (string, error) {
	if base == "" {
		return "", nil
	}
	dir := filepath.Join(base, fmt.Sprintf("shard-%03d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// closeAll closes the engines built so far on a constructor error path.
func closeAll(engines []core.Engine) {
	for _, e := range engines {
		if e != nil {
			e.Close()
		}
	}
}

// OpenRedis builds a sharded Redis-model client: shards kvstore engines
// (each with its own AOF and strict-expiry loop in cfg.Dir/shard-NNN)
// behind one compliance middleware whose audit trail lives at the top of
// cfg.Dir. The returned DB implements core.BatchCreator — batched loads
// fan out per shard — unlike the unsharded Redis client, which keeps the
// paper's one-command-per-record load shape.
func OpenRedis(shards int, cfg core.RedisConfig) (core.DB, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", shards)
	}
	engines := make([]core.Engine, shards)
	for i := range engines {
		ecfg := cfg
		dir, err := shardDir(cfg.Dir, i)
		if err != nil {
			closeAll(engines)
			return nil, err
		}
		ecfg.Dir = dir
		engines[i], err = core.NewRedisEngine(ecfg)
		if err != nil {
			closeAll(engines)
			return nil, err
		}
	}
	router, err := New(engines)
	if err != nil {
		closeAll(engines)
		return nil, err
	}
	db, err := core.Wrap(router, cfg.WrapConfig())
	if err != nil {
		router.Close()
		return nil, err
	}
	return db, nil
}

// OpenPostgres builds a sharded PostgreSQL-model client: shards relstore
// engines (each with its own WAL, indexes and TTL daemon in
// cfg.Dir/shard-NNN) behind one compliance middleware. All shards log
// statements into the middleware's single csvlog-style audit trail, so
// GET-SYSTEM-LOGS stays one query over one log.
func OpenPostgres(shards int, cfg core.PostgresConfig) (core.DB, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", shards)
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.NewReal()
	}
	wc := cfg.WrapConfig()
	var log *audit.Log
	if cfg.Compliance.Logging {
		if cfg.Dir == "" {
			return nil, fmt.Errorf("shard: postgres logging requires a directory")
		}
		var err error
		// One audit pipeline serves every shard: the middleware and N
		// statement loggers all stage into the same lock-striped buffers,
		// so a scatter-gather query's per-shard goroutines never
		// serialize behind one encode+write lock.
		log, err = core.OpenAudit(wc, clk)
		if err != nil {
			return nil, err
		}
		wc.Audit = log
	}
	fail := func(engines []core.Engine, err error) (core.DB, error) {
		closeAll(engines)
		if log != nil {
			log.Close()
		}
		return nil, err
	}
	engines := make([]core.Engine, shards)
	for i := range engines {
		ecfg := cfg
		dir, err := shardDir(cfg.Dir, i)
		if err != nil {
			return fail(engines, err)
		}
		ecfg.Dir = dir
		engines[i], err = core.NewPostgresEngine(ecfg, log)
		if err != nil {
			return fail(engines, err)
		}
	}
	router, err := New(engines)
	if err != nil {
		return fail(engines, err)
	}
	db, err := core.Wrap(router, wc)
	if err != nil {
		router.Close()
		if log != nil {
			log.Close()
		}
		return nil, err
	}
	return db, nil
}

// Open dispatches on the engine model name ("redis" | "postgres")
// shared by the CLIs and experiments. policy selects the audit append
// pipeline (core's -auditpolicy spectrum); kvstripes selects the
// kvstore concurrency profile (0 = Redis-faithful exclusive profile,
// ignored by the postgres model); tun arms the background log-compaction triggers
// (AOF rewrite, WAL checkpoint, audit retention — zero disables all).
func Open(engine string, shards int, dir string, comp core.Compliance, clk clock.Clock, disableDaemons bool, policy audit.Pipeline, kvstripes int, tun core.Tuning) (core.DB, error) {
	switch engine {
	case "redis":
		return OpenRedis(shards, core.RedisConfig{
			Dir: dir, Compliance: comp, Clock: clk, DisableBackgroundExpiry: disableDaemons,
			AuditPolicy: policy, KVStripes: kvstripes, Tuning: tun,
		})
	case "postgres":
		return OpenPostgres(shards, core.PostgresConfig{
			Dir: dir, Compliance: comp, Clock: clk, DisableTTLDaemon: disableDaemons,
			AuditPolicy: policy, Tuning: tun,
		})
	default:
		return nil, fmt.Errorf("shard: unknown engine %q", engine)
	}
}
