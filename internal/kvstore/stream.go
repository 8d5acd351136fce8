package kvstore

// Selector walks: the store's only two ways to evaluate an attribute
// predicate. IndexedChunk walks the inverted metadata index, ScanChunk
// the keyspace; each visits at most limit entries per call, so a
// streaming caller drives a cursor through repeated calls while a
// materialised read asks for a limit no result can fill (math.MaxInt)
// and gets its whole result from one call. Either way a call copies its
// entries out under the stripe locks through the internal/pool scratch
// buffers and then runs fn over the copy under the copied/scanned rule:
// outside every lock when Striping > 0, inside the exclusive hold at
// Striping = 0. Snapshots are per call, not per query: a record mutated
// between two calls is observed in whichever state the call that covers
// its key finds it — the per-stripe-consistency contract the shard
// router already gives multi-key reads (see DESIGN.md §1i).

import (
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/gdpr"
	"repro/internal/index"
)

// MetadataIndexed reports whether the store maintains the metadata-index
// layer (Config.MetadataIndexing); selector callers use it to choose
// between the indexed and scan walks.
func (s *Store) MetadataIndexed() bool { return s.stripes[0].meta != nil }

// copyLive copies out the present, unexpired entries among keys into a
// pooled kvScratch slice. Expired-but-unreaped keys are skipped, not
// deleted: selector walks are reads. Callers hold st's read lock.
func (st *stripe) copyLive(keys []string, now time.Time) []kv {
	out := kvScratch.Get(len(keys))
	for _, k := range keys {
		e := st.dict[k]
		if e == nil || (!e.expireAt.IsZero() && !e.expireAt.After(now)) {
			continue
		}
		out = append(out, kv{k, e.value, e.expireAt})
	}
	return out
}

// IndexedChunk visits, in global sorted key order, up to limit live
// entries whose attr metadata contains value and whose keys sort
// strictly after `after`, stopping early when fn returns false — O(result)
// instead of ScanChunk's O(n). It returns the cursor for the following
// call and done=true when the posting lists are exhausted; ok is false,
// having visited nothing, when metadata indexing is off or attr is not
// an inverted dimension, in which case callers scan instead.
//
// Every stripe's posting shard is probed in parallel (scatter) through
// index.LookupChunk, so per-call memory is O(stripes x min(limit,
// result)); the read log gets one IDXSCAN entry per call.
func (s *Store) IndexedChunk(attr gdpr.Attribute, value, after string, limit int, fn func(key, value string, expireAt time.Time) bool) (next string, done, ok bool) {
	if s.stripes[0].meta == nil || !index.IsDim(attr) || limit <= 0 {
		return "", false, false
	}
	now := s.clk.Now()
	// bound.key is the min over full stripes of the largest posting
	// examined: keys past it may exist unexamined in some stripe, so the
	// call must not emit (or advance the cursor) beyond it.
	var bound struct {
		sync.Mutex
		key string
		set bool
	}
	parts := s.scatter(func(st *stripe) []kv {
		keys, last, full, _ := st.meta.LookupChunk(attr, value, after, limit)
		if full {
			bound.Lock()
			if !bound.set || last < bound.key {
				bound.key, bound.set = last, true
			}
			bound.Unlock()
		}
		return st.copyLive(keys, now)
	})
	defer s.scanned()
	defer putParts(parts)
	total := 0
	for _, part := range parts {
		total += len(part)
	}
	merged := kvScratch.Get(total)
	defer func() { kvScratch.Put(merged) }()
	for _, part := range parts {
		for _, item := range part {
			if !bound.set || item.key <= bound.key {
				merged = append(merged, item)
			}
		}
	}
	// Per-stripe chunks come back sorted; restore the global order.
	slices.SortFunc(merged, func(a, b kv) int { return strings.Compare(a.key, b.key) })
	emit := merged
	truncated := len(emit) > limit
	if truncated {
		emit = emit[:limit]
	}
	for _, item := range emit {
		if !fn(item.key, item.value, item.expireAt) {
			break
		}
	}
	s.logRead(opIdxScan, string(attr)+"="+value)
	switch {
	case truncated:
		return emit[len(emit)-1].key, false, true
	case bound.set:
		// Every posting <= bound in every stripe was examined; resuming at
		// bound makes progress even when the whole chunk was expired holes.
		return bound.key, false, true
	default:
		return "", true, true
	}
}

// ScanChunk visits up to limit live entries starting at the global scan
// offset cursor, over the concatenation of per-stripe scan orders Scan
// walks, stopping early when fn returns false — the O(n) attribute scan
// the paper attributes to Redis' lack of secondary indexes. It returns
// the next cursor and done=true when the walk is complete. Like Scan the
// cursor is positional, so it is approximate under concurrent mutation
// (keys present for the whole walk are seen at least once; Redis' SCAN
// contract); under a quiescent store the concatenated chunks reproduce a
// whole-keyspace call exactly. A walk that starts at cursor 0 counts as
// one full scan (FullScans); the read log gets one SCAN entry per call.
func (s *Store) ScanChunk(cursor, limit int, fn func(key, value string, expireAt time.Time) bool) (next int, done bool) {
	if cursor < 0 || limit <= 0 {
		return 0, true
	}
	if cursor == 0 {
		s.fullScans.Add(1)
	}
	now := s.clk.Now()
	parts := partsScratch.Get(len(s.stripes))
	offset := 0
	for i := range s.stripes {
		st := &s.stripes[i]
		s.rlock(st)
		n := len(st.keySlice)
		lo, hi := max(cursor, offset), offset+n
		if limit < hi-cursor {
			hi = cursor + limit
		}
		if lo < hi {
			parts = append(parts, st.copyLive(st.keySlice[lo-offset:hi-offset], now))
		}
		offset += n
		s.copied(st)
	}
	defer s.scanned()
	defer putParts(parts)
	defer s.logRead(opScan, "*")
	if limit >= offset-cursor {
		next, done = 0, true
	} else {
		next = cursor + limit
	}
	for _, part := range parts {
		for _, item := range part {
			if !fn(item.key, item.value, item.expireAt) {
				return next, done
			}
		}
	}
	return next, done
}
