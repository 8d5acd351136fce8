package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/gdpr"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/shard"
)

// stack is one workload's system under test, built from the public
// constructors only.
type stack struct {
	w   *workload
	dir string
	t   *tracer
	// db is what the client goroutines call: the compliance middleware on
	// embedded stacks, the remote client on network ones.
	db core.DB
	// embedded is the middleware-wrapped engine; on network stacks srv
	// serves it and client talks to srv.
	embedded core.DB
	srv      *server.Server
	client   *remote.Client
}

// Close shuts the stack down, outermost layer first.
func (st *stack) Close() error {
	err := st.stopServing()
	if st.embedded != nil {
		err = errors.Join(err, st.embedded.Close())
		st.embedded = nil
	}
	return err
}

// openStack builds w's stack over dir. A non-nil tracer inserts the span
// decorators at every layer boundary the stack has.
func openStack(w *workload, dir string, t *tracer) (*stack, error) {
	db, err := openEmbedded(w, dir, t)
	if err != nil {
		return nil, err
	}
	st := &stack{w: w, dir: dir, t: t, db: db, embedded: db}
	if w.stack == stackNet {
		if err := st.serve(); err != nil {
			st.Close()
			return nil, err
		}
	}
	return st, nil
}

// serve hosts the embedded DB on a loopback port in this process and
// points db at a fresh client of it.
func (st *stack) serve() error {
	st.srv = server.New(st.embedded, server.Config{})
	addr, err := st.srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	// Two connections in all (the script speaks as one role). Sharing a
	// single connection between the two clients was tried first and is
	// bistable: throughput flips between 21k and 38k ops/s from run to
	// run as their requests fall in and out of step in the pipeline.
	st.client, err = remote.Dial(remote.Config{Addr: addr, ConnsPerRole: clients})
	if err != nil {
		return err
	}
	st.db = st.client
	if st.t != nil {
		st.db = traceDB(st.client, st.t, layerRemote)
	}
	return nil
}

// stopServing closes the client and drains the server, if there are any.
func (st *stack) stopServing() error {
	var err error
	if st.client != nil {
		err = st.client.Close()
		st.client = nil
	}
	if st.srv != nil {
		err = errors.Join(err, st.srv.Close())
		st.srv = nil
	}
	return err
}

// openEmbedded builds engine(s) → [router] → compliance middleware.
func openEmbedded(w *workload, dir string, t *tracer) (core.DB, error) {
	comp := w.compliance()
	wrap := func(e core.Engine, wc core.WrapConfig) (core.DB, error) {
		db, err := core.Wrap(e, wc)
		if err != nil {
			e.Close()
			return nil, err
		}
		if t != nil {
			db = traceDB(db, t, layerCore)
		}
		return db, nil
	}
	decorate := func(e core.Engine, l layer) core.Engine {
		if t != nil {
			return traceEngine(e, t, l)
		}
		return e
	}
	switch w.stack {
	case stackKV, stackNet:
		cfg := core.RedisConfig{Dir: dir, Compliance: comp, AuditPolicy: w.auditPolicy, KVStripes: 8, Tuning: w.tuning}
		e, err := core.NewRedisEngine(cfg)
		if err != nil {
			return nil, err
		}
		return wrap(decorate(e, layerKvstore), cfg.WrapConfig())
	case stackPG:
		cfg := core.PostgresConfig{Dir: dir, Compliance: comp, AuditPolicy: w.auditPolicy, Tuning: w.tuning}
		wc := cfg.WrapConfig()
		log, err := core.OpenAudit(wc, clock.NewReal())
		if err != nil {
			return nil, err
		}
		wc.Audit = log
		e, err := core.NewPostgresEngine(cfg, log)
		if err != nil {
			log.Close()
			return nil, err
		}
		return wrap(decorate(e, layerRelstore), wc) // the middleware owns and closes log
	case stackShard:
		cfg := core.RedisConfig{Dir: dir, Compliance: comp, AuditPolicy: w.auditPolicy, KVStripes: 8, Tuning: w.tuning}
		engines := make([]core.Engine, shardCount)
		closeAll := func() {
			for _, e := range engines {
				if e != nil {
					e.Close()
				}
			}
		}
		for i := range engines {
			ecfg := cfg
			ecfg.Dir = filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
			if err := os.MkdirAll(ecfg.Dir, 0o755); err != nil {
				closeAll()
				return nil, err
			}
			e, err := core.NewRedisEngine(ecfg)
			if err != nil {
				closeAll()
				return nil, err
			}
			engines[i] = decorate(e, layerKvstore)
		}
		router, err := shard.New(engines)
		if err != nil {
			closeAll()
			return nil, err
		}
		return wrap(decorate(router, layerShard), cfg.WrapConfig())
	}
	return nil, fmt.Errorf("bench: unknown stack %d", w.stack)
}

// loadBatch matches core.Load's batch size for BatchCreator clients.
const loadBatch = 128

// load inserts recs as the controller from `clients` goroutines, through
// the bulk path when the stack has one (as core.Load does).
func load(db core.DB, recs []gdpr.Record) error {
	actor := core.ControllerActor()
	bc, batched := db.(core.BatchCreator)
	claim := int64(1)
	if batched {
		claim = loadBatch
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				lo := next.Add(claim) - claim
				if lo >= int64(len(recs)) {
					return
				}
				hi := min(lo+claim, int64(len(recs)))
				var err error
				if batched {
					err = bc.CreateRecords(actor, recs[lo:hi])
				} else {
					err = db.CreateRecord(actor, recs[lo])
				}
				if err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// setUp opens w's stack in a fresh directory and loads the script's
// dataset, returning the stack and how long that took. Volatile records
// go in last, their deadlines stamped now: spread evenly from the end of
// the warm-up across ttlWindow.
func setUp(w *workload, s *script, dir string, t *tracer, ttlStart, ttlWindow time.Duration) (*stack, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	st, err := openStack(w, dir, t)
	if err != nil {
		return nil, 0, err
	}
	stable, volatile := s.ds.stable(), s.ds.volatile()
	if err := load(st.db, stable); err != nil {
		st.Close()
		return nil, 0, fmt.Errorf("load: %w", err)
	}
	first := time.Now().Add(ttlStart)
	for i := range volatile {
		volatile[i].Meta.Expiry = first.Add(ttlWindow * time.Duration(i) / time.Duration(len(volatile)))
	}
	if err := load(st.db, volatile); err != nil {
		st.Close()
		return nil, 0, fmt.Errorf("load volatile records: %w", err)
	}
	took := time.Since(t0)
	if err := st.pickLogWindows(s.tab); err != nil {
		st.Close()
		return nil, 0, err
	}
	return st, took, nil
}

// pickLogWindows chooses the GET-SYSTEM-LOGS ranges from the load phase's
// own audit entries: each window spans a fixed count of consecutive
// historical entries, so every query returns exactly that many however
// fast the run goes and whatever it appends meanwhile.
func (st *stack) pickLogWindows(tab *tables) error {
	if st.w.share(opGetLogs) == 0 {
		return nil
	}
	entries, err := st.db.GetSystemLogs(core.RegulatorActor(), time.Time{}, time.Now())
	if err != nil {
		return fmt.Errorf("reading load-phase audit entries: %w", err)
	}
	per := min(100, len(entries)/2)
	if per < 1 {
		return fmt.Errorf("load left %d audit entries, too few for a log window", len(entries))
	}
	stride := (len(entries) - per) / len(tab.windows)
	for i := range tab.windows {
		lo := i * stride
		hi := lo + per - 1
		// Grow the window over neighbours that share its edge timestamps
		// so the expected count is exact.
		for lo > 0 && entries[lo-1].Time.Equal(entries[lo].Time) {
			lo--
		}
		for hi+1 < len(entries) && entries[hi+1].Time.Equal(entries[hi].Time) {
			hi++
		}
		tab.windows[i] = logWindow{from: entries[lo].Time, to: entries[hi].Time, want: int32(hi - lo + 1)}
	}
	return nil
}

// persists reports whether the stack's store survives a restart. The
// network stack runs the paper's baseline, which writes nothing to disk.
func (w *workload) persists() bool { return w.compliance().Logging }

// reopen closes the stack, opens it again over the same directory and
// returns once a point read of probe succeeds: the time a user waits for
// the store to come back. A store that persists nothing comes back empty,
// so there coming back includes loading reload again.
func (st *stack) reopen(probe string, reload []gdpr.Record) (time.Duration, error) {
	t0 := time.Now()
	if err := st.Close(); err != nil {
		return 0, fmt.Errorf("close: %w", err)
	}
	fresh, err := openStack(st.w, st.dir, st.t)
	if err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	*st = *fresh
	if !st.w.persists() {
		if err := load(st.db, reload); err != nil {
			return 0, fmt.Errorf("reload: %w", err)
		}
	}
	recs, err := st.db.ReadData(core.ControllerActor(), gdpr.ByKey(probe))
	if err != nil {
		return 0, fmt.Errorf("first read after reopen: %w", err)
	}
	if len(recs) != 1 {
		return 0, fmt.Errorf("first read after reopen: %q not found", probe)
	}
	return time.Since(t0), nil
}
