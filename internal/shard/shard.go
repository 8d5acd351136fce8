// Package shard adds horizontal partitioning beneath the compliance
// middleware: a Router hash-partitions personal-data records by key
// across N storage engines (Redis-model kvstores or PostgreSQL-model
// relstores, each with its own AOF/WAL and expiry loop) and implements
// core.Engine itself, so core.Wrap layers the full GDPR compliance stack
// — access control, audit, redaction, transit encryption, strict
// validation — over the whole fleet exactly as it does over one engine.
//
// Routing rules:
//
//   - keyed operations (Put, Get, Update, Exists, key selectors) touch
//     exactly one shard, chosen by FNV-1a hash of the key;
//   - attribute selectors (BY-PUR|USR|OBJ|DEC|SHR|TTL) scatter to every
//     shard in parallel and gather merged results, with per-shard errors
//     aggregated via errors.Join;
//   - batched loads split the batch by shard and ingest the parts
//     concurrently — the load phase fans out per shard;
//   - deletes group their keys by shard and run concurrently, summing
//     per-shard counts.
//
// Consistency model: per-key linearizability only. Each key lives on one
// shard and inherits that engine's per-key atomicity (read-modify-write
// under the engine lock), so the middleware's apply-time re-checks still
// hold. Cross-shard operations are NOT atomic: a scatter-gather read is
// not a snapshot — it observes each shard at a slightly different
// instant, and a multi-record mutation (update/delete by attribute) that
// fails on one shard may already have applied on another. That is the
// same contract the single-engine stubs offer for multi-record
// operations (they mutate record by record), which is why the oracle
// validation passes unchanged on sharded engines.
package shard

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/gdpr"
)

// Router is a core.Engine that partitions records across child engines.
type Router struct {
	shards []core.Engine
}

// New builds a Router over the given engines. The shard count is fixed
// for the lifetime of the dataset (keys are placed by hash modulo N;
// there is no resharding).
func New(shards []core.Engine) (*Router, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: need at least one engine")
	}
	return &Router{shards: shards}, nil
}

// Shards reports the shard count.
func (r *Router) Shards() int { return len(r.shards) }

// shardIndex places a key on its owning shard by FNV-1a hash. The
// modulo stays in uint32 so the index is valid on 32-bit ints too.
func (r *Router) shardIndex(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(len(r.shards)))
}

// shardFor returns the engine owning key.
func (r *Router) shardFor(key string) core.Engine {
	return r.shards[r.shardIndex(key)]
}

// scatter runs fn once per shard, concurrently when there is more than
// one, and aggregates every shard's error. The first shard failure
// cancels ctx, so sibling workers that have not started yet skip their
// engine call and workers with cooperation points (the per-record
// PutBatch fallback) stop between items instead of running a doomed
// operation to completion into the errors.Join aggregation.
// Cancellation noise (context.Canceled) is dropped from the aggregate —
// only root-cause shard errors surface.
func (r *Router) scatter(fn func(ctx context.Context, i int, e core.Engine) error) error {
	if len(r.shards) == 1 {
		return fn(context.Background(), 0, r.shards[0])
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make([]error, len(r.shards))
	var wg sync.WaitGroup
	for i, e := range r.shards {
		wg.Add(1)
		go func(i int, e core.Engine) {
			defer wg.Done()
			if ctx.Err() != nil {
				return
			}
			if err := fn(ctx, i, e); err != nil && !errors.Is(err, context.Canceled) {
				errs[i] = err
				cancel()
			}
		}(i, e)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// scatterAll runs fn once per shard, concurrently, always visiting
// every shard even after a failure — the shape for operations that must
// not be skipped on sibling error (Close must release every engine,
// Delete must report what actually happened per shard).
func (r *Router) scatterAll(fn func(i int, e core.Engine) error) error {
	if len(r.shards) == 1 {
		return fn(0, r.shards[0])
	}
	errs := make([]error, len(r.shards))
	var wg sync.WaitGroup
	for i, e := range r.shards {
		wg.Add(1)
		go func(i int, e core.Engine) {
			defer wg.Done()
			errs[i] = fn(i, e)
		}(i, e)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// groupKeys splits keys into per-shard buckets, preserving each shard's
// relative order.
func (r *Router) groupKeys(keys []string) [][]string {
	groups := make([][]string, len(r.shards))
	for _, k := range keys {
		i := r.shardIndex(k)
		groups[i] = append(groups[i], k)
	}
	return groups
}

// Put implements core.Engine: one shard, chosen by key.
func (r *Router) Put(rec gdpr.Record) error { return r.shardFor(rec.Key).Put(rec) }

// PutBatch implements core.BatchEngine: the batch splits by shard and the
// parts ingest concurrently — each shard takes its engine's native bulk
// path when it has one (relstore's InsertBatch) and falls back to
// per-record puts otherwise (the kvstore keeps one command per record,
// but N shards absorb them in parallel).
func (r *Router) PutBatch(recs []gdpr.Record) error {
	groups := make([][]gdpr.Record, len(r.shards))
	for _, rec := range recs {
		i := r.shardIndex(rec.Key)
		groups[i] = append(groups[i], rec)
	}
	return r.scatter(func(ctx context.Context, i int, e core.Engine) error {
		if len(groups[i]) == 0 {
			return nil
		}
		if be, ok := e.(core.BatchEngine); ok {
			return be.PutBatch(groups[i])
		}
		for _, rec := range groups[i] {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := e.Put(rec); err != nil {
				return err
			}
		}
		return nil
	})
}

// Get implements core.Engine: one shard.
func (r *Router) Get(key string) (gdpr.Record, bool, error) {
	return r.shardFor(key).Get(key)
}

// Select implements core.Engine: SelectStream at core.WholeChunk,
// drained — key selectors route to one shard; attribute selectors run
// every shard's Select in parallel, one whole chunk each, and gather
// them in shard order.
func (r *Router) Select(sel gdpr.Selector) ([]gdpr.Record, error) {
	return core.Collect(r.SelectStream(sel, core.WholeChunk))
}

// SelectKeys implements core.Engine: key selectors route to one shard;
// attribute selectors scatter to every shard in parallel and gather the
// merged key set.
func (r *Router) SelectKeys(sel gdpr.Selector) ([]string, error) {
	if sel.Attr == gdpr.AttrKey {
		return r.shardFor(sel.Value).SelectKeys(sel)
	}
	parts := make([][]string, len(r.shards))
	err := r.scatter(func(_ context.Context, i int, e core.Engine) error {
		keys, err := e.SelectKeys(sel)
		parts[i] = keys
		return err
	})
	if err != nil {
		return nil, err
	}
	return flatten(parts), nil
}

// Update implements core.Engine: one shard, preserving the child
// engine's lock-time atomicity for the middleware's re-checks.
func (r *Router) Update(key string, mutate func(gdpr.Record) (gdpr.Record, error)) (bool, error) {
	return r.shardFor(key).Update(key, mutate)
}

// Delete implements core.Engine: keys group by owning shard and the
// groups delete concurrently; the count is the sum over shards.
func (r *Router) Delete(keys []string) (int, error) {
	groups := r.groupKeys(keys)
	counts := make([]int, len(r.shards))
	err := r.scatterAll(func(i int, e core.Engine) error {
		if len(groups[i]) == 0 {
			return nil
		}
		n, err := e.Delete(groups[i])
		counts[i] = n
		return err
	})
	total := 0
	for _, n := range counts {
		total += n
	}
	return total, err
}

// Exists implements core.Engine: one shard.
func (r *Router) Exists(key string) (bool, error) { return r.shardFor(key).Exists(key) }

// Features implements core.Engine: the first shard's facts plus the
// sharding topology.
func (r *Router) Features() map[string]string {
	f := r.shards[0].Features()
	f["shards"] = fmt.Sprintf("%d", len(r.shards))
	f["engine"] = fmt.Sprintf("sharded(%s x%d)", f["engine"], len(r.shards))
	return f
}

// SpaceUsage implements core.Engine: the sum over shards.
func (r *Router) SpaceUsage() (core.SpaceUsage, error) {
	parts := make([]core.SpaceUsage, len(r.shards))
	err := r.scatterAll(func(i int, e core.Engine) error {
		u, err := e.SpaceUsage()
		parts[i] = u
		return err
	})
	var total core.SpaceUsage
	for _, u := range parts {
		total.PersonalBytes += u.PersonalBytes
		total.TotalBytes += u.TotalBytes
	}
	return total, err
}

// Close implements core.Engine: every shard closes; errors aggregate.
// (Per-shard engine counters need no router rollup: each kvstore
// registers an obs collector under the same series names, and the
// registry sums same-name emissions at snapshot time.)
func (r *Router) Close() error {
	return r.scatterAll(func(_ int, e core.Engine) error { return e.Close() })
}

func flatten[T any](parts [][]T) []T {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// ---------------------------------------------------------------------------
// Streaming scatter-gather

// SelectStream implements core.StreamEngine: key selectors stream from
// their one owning shard; attribute selectors run one streaming worker
// per shard, each driving that shard's cursor (core.StreamOf: at
// core.WholeChunk, the shard's own Select as one chunk) into a buffered
// channel, while the merge cursor drains the shards in index order — so
// chunked and whole-result reads agree byte-for-byte on a quiescent
// fleet.
//
// Memory stays bounded at O(shards x chunk): each worker holds at most
// one chunk in flight plus one parked in its channel, so a slow
// consumer back-pressures every shard instead of buffering whole
// per-shard result sets. The first shard error (and Close) cancels the
// shared context, which unparks and retires every worker; Close waits
// for them, so no goroutines or engine cursors outlive the stream.
func (r *Router) SelectStream(sel gdpr.Selector, chunk int) (core.RecordCursor, error) {
	if sel.Attr == gdpr.AttrKey {
		return core.StreamOf(r.shardFor(sel.Value), sel, chunk)
	}
	if chunk <= 0 {
		chunk = core.DefaultStreamChunk
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &mergeCursor{cancel: cancel, chans: make([]chan shardChunk, len(r.shards))}
	for i, e := range r.shards {
		ch := make(chan shardChunk, 1)
		m.chans[i] = ch
		m.wg.Add(1)
		go func(e core.Engine, ch chan shardChunk) {
			defer m.wg.Done()
			defer close(ch)
			terminal := func(err error) {
				select {
				case ch <- shardChunk{err: err}:
				case <-ctx.Done():
				}
			}
			cur, err := core.StreamOf(e, sel, chunk)
			if err != nil {
				terminal(err)
				return
			}
			defer cur.Close()
			for {
				recs, err := cur.Next()
				if err == io.EOF {
					return
				}
				if err != nil {
					terminal(err)
					return
				}
				select {
				case ch <- shardChunk{recs: recs}:
				case <-ctx.Done():
					return
				}
			}
		}(e, ch)
	}
	return m, nil
}

// shardChunk is one worker-to-merger hand-off: a batch of records or a
// terminal error.
type shardChunk struct {
	recs []gdpr.Record
	err  error
}

// mergeCursor drains per-shard channels in shard-index order.
type mergeCursor struct {
	cancel context.CancelFunc
	chans  []chan shardChunk
	wg     sync.WaitGroup
	cur    int
	err    error
	done   bool
}

func (m *mergeCursor) Next() ([]gdpr.Record, error) {
	if m.err != nil {
		return nil, m.err
	}
	if m.done {
		return nil, io.EOF
	}
	for m.cur < len(m.chans) {
		c, ok := <-m.chans[m.cur]
		if !ok {
			m.cur++
			continue
		}
		if c.err != nil {
			m.err = c.err
			m.cancel()
			return nil, c.err
		}
		return c.recs, nil
	}
	m.done = true
	return nil, io.EOF
}

func (m *mergeCursor) Close() error {
	m.cancel()
	m.wg.Wait()
	m.done = true
	return nil
}

var (
	_ core.BatchEngine  = (*Router)(nil)
	_ core.StreamEngine = (*Router)(nil)
)
