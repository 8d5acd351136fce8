// Package index provides the metadata-index layer both storage engines
// consult instead of scanning: an inverted index over the five equality
// metadata dimensions GDPR queries select on (purpose, user, objections,
// decisions, sharing — the BY-PUR/USR/OBJ/DEC/SHR families of §3.3) and a
// B-tree-backed ordered expiry index that makes "everything due by now"
// an O(expired) range scan instead of an O(all-TTL'd-keys) walk.
//
// The structures hold no locks of their own: each engine maintains its
// indexes under its existing lock (the kvstore's single global mutex, the
// relstore's per-table writer lock), so adding indexes changes the cost
// profile of selectors without changing either engine's concurrency
// model. Space is accounted per entry (value component + key + an 8-byte
// pointer, approximating a B-tree leaf entry) so SpaceUsage can report
// the paper's indexing space overhead (Table 3).
package index

import (
	"encoding/binary"
	"math"
	"sort"
	"time"

	"repro/internal/btree"
	"repro/internal/gdpr"
)

// Dims lists the inverted-indexed metadata dimensions: the five equality
// attributes GDPR selectors match on. TTL is ordered, not inverted (see
// Expiry); SRC is deliberately unindexed — its value pool is a handful of
// origins, so a posting list would be a constant fraction of the keyspace
// and the scan is as good.
var Dims = []gdpr.Attribute{
	gdpr.AttrPurpose, gdpr.AttrUser, gdpr.AttrObjection, gdpr.AttrDecision, gdpr.AttrSharing,
}

// IsDim reports whether attr is one of the inverted-indexed dimensions.
func IsDim(attr gdpr.Attribute) bool {
	for _, a := range Dims {
		if a == attr {
			return true
		}
	}
	return false
}

// postingOverhead approximates the per-entry pointer cost of an index
// entry, mirroring relstore's secondary-index accounting.
const postingOverhead = 8

// Inverted maps (attribute, value) to the set of record keys whose
// metadata carries that value. Multi-valued attributes contribute one
// posting per value. Not safe for concurrent use; the owning engine's
// lock serializes access.
type Inverted struct {
	dims  map[gdpr.Attribute]map[string]map[string]struct{}
	bytes int64
}

// NewInverted returns an empty inverted index over Dims.
func NewInverted() *Inverted {
	ix := &Inverted{dims: make(map[gdpr.Attribute]map[string]map[string]struct{}, len(Dims))}
	for _, a := range Dims {
		ix.dims[a] = make(map[string]map[string]struct{})
	}
	return ix
}

// Insert adds key's postings for every indexed dimension of rec.
func (ix *Inverted) Insert(key string, rec gdpr.Record) {
	for _, a := range Dims {
		vals := ix.dims[a]
		for _, v := range rec.Meta.Values(a) {
			set := vals[v]
			if set == nil {
				set = make(map[string]struct{})
				vals[v] = set
			}
			if _, dup := set[key]; !dup {
				set[key] = struct{}{}
				ix.bytes += int64(len(v)+len(key)) + postingOverhead
			}
		}
	}
}

// Remove deletes key's postings for every indexed dimension of rec. The
// record must be the one Insert saw (engines re-derive it from the stored
// value before overwriting or deleting).
func (ix *Inverted) Remove(key string, rec gdpr.Record) {
	for _, a := range Dims {
		vals := ix.dims[a]
		for _, v := range rec.Meta.Values(a) {
			set := vals[v]
			if set == nil {
				continue
			}
			if _, ok := set[key]; ok {
				delete(set, key)
				ix.bytes -= int64(len(v)+len(key)) + postingOverhead
				if len(set) == 0 {
					delete(vals, v)
				}
			}
		}
	}
}

// LookupChunk returns up to limit keys posted under (attr, value) that
// sort strictly after `after`, in ascending key order, plus the largest
// posting examined (the caller's safe resume bound when the chunk came
// back full) — O(result log result), independent of the keyspace size.
// full reports that the posting list held more than limit candidates
// past `after` (so keys beyond last remain unexamined); ok is false when
// attr is not an inverted dimension (callers fall back to their scan
// path). A limit that covers the posting list collects and sorts it;
// a smaller one streams candidates through a bounded max-heap, so the
// working set is O(limit) however long the list is.
func (ix *Inverted) LookupChunk(attr gdpr.Attribute, value, after string, limit int) (keys []string, last string, full, ok bool) {
	vals, ok := ix.dims[attr]
	if !ok {
		return nil, "", false, false
	}
	set := vals[value]
	if len(set) == 0 || limit <= 0 {
		return nil, "", false, true
	}
	if limit >= len(set) {
		keys = make([]string, 0, len(set))
		for k := range set {
			if k > after {
				keys = append(keys, k)
			}
		}
		if len(keys) == 0 {
			return nil, "", false, true
		}
		sort.Strings(keys)
		return keys, keys[len(keys)-1], false, true
	}
	// Bounded selection: a max-heap of the limit smallest candidates
	// past the cursor. Anything evicted from the heap sorts after every
	// retained key, so the heap's max is the resume bound.
	h := make([]string, 0, limit)
	for k := range set {
		if k <= after {
			continue
		}
		if len(h) < limit {
			h = append(h, k)
			heapUp(h, len(h)-1)
			continue
		}
		full = true
		if k < h[0] {
			h[0] = k
			heapDown(h, 0)
		}
	}
	if len(h) == 0 {
		return nil, "", false, true
	}
	sort.Strings(h)
	return h, h[len(h)-1], full, true
}

// heapUp / heapDown maintain a max-heap over a string slice (LookupChunk's
// bounded selection; container/heap would force per-key interface boxing).
func heapUp(h []string, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p] >= h[i] {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func heapDown(h []string, i int) {
	for {
		big := i
		if l := 2*i + 1; l < len(h) && h[l] > h[big] {
			big = l
		}
		if r := 2*i + 2; r < len(h) && h[r] > h[big] {
			big = r
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// Bytes returns the approximate size of all postings.
func (ix *Inverted) Bytes() int64 { return ix.bytes }

// Reset drops every posting (engine FLUSHALL).
func (ix *Inverted) Reset() {
	for _, a := range Dims {
		ix.dims[a] = make(map[string]map[string]struct{})
	}
	ix.bytes = 0
}

// ---------------------------------------------------------------------------
// Ordered expiry index

// Expiry orders keys by their TTL deadline in a B-tree of composite keys
// (8-byte sortable time encoding + record key), so collecting everything
// due by an instant is a range scan over exactly the due entries —
// O(expired + log n) — instead of a walk over every key carrying a TTL.
// Zero deadlines (no TTL) are never stored. Not safe for concurrent use.
type Expiry struct {
	tree  *btree.Tree[struct{}]
	bytes int64
}

// NewExpiry returns an empty expiry index.
func NewExpiry() *Expiry { return &Expiry{tree: btree.NewDefault[struct{}]()} }

// encodeDeadline renders at as 8 bytes whose lexicographic order matches
// time order (the same biased big-endian UnixNano encoding relstore's
// time indexes use).
func encodeDeadline(at time.Time) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(at.UnixNano())+math.MaxInt64+1)
	return string(b[:])
}

// Set records that key expires at the given non-zero deadline.
func (e *Expiry) Set(key string, at time.Time) {
	if at.IsZero() {
		return
	}
	if e.tree.Set(encodeDeadline(at)+key, struct{}{}) {
		e.bytes += int64(8+len(key)) + postingOverhead
	}
}

// Remove drops key's entry for the given deadline (zero is a no-op).
func (e *Expiry) Remove(key string, at time.Time) {
	if at.IsZero() {
		return
	}
	if e.tree.Delete(encodeDeadline(at) + key) {
		e.bytes -= int64(8+len(key)) + postingOverhead
	}
}

// dueEnd returns the exclusive upper bound covering every composite key
// whose deadline is <= now.
func dueEnd(now time.Time) (string, bool) {
	enc := uint64(now.UnixNano()) + math.MaxInt64 + 1
	if enc == math.MaxUint64 {
		return "", false // bound saturated: scan the whole tree
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], enc+1)
	return string(b[:]), true
}

// Due returns the keys whose deadline is <= now, ordered by (deadline,
// key): O(expired + log n).
func (e *Expiry) Due(now time.Time) []string {
	var keys []string
	e.ascendDue(now, func(k string) bool {
		keys = append(keys, k)
		return true
	})
	return keys
}

// DueCount counts the keys whose deadline is <= now.
func (e *Expiry) DueCount(now time.Time) int {
	n := 0
	e.ascendDue(now, func(string) bool {
		n++
		return true
	})
	return n
}

func (e *Expiry) ascendDue(now time.Time, fn func(key string) bool) {
	visit := func(composite string, _ struct{}) bool { return fn(composite[8:]) }
	if end, ok := dueEnd(now); ok {
		e.tree.AscendRange("", end, visit)
	} else {
		e.tree.Ascend(visit)
	}
}

// Len returns the number of entries (keys carrying a TTL).
func (e *Expiry) Len() int { return e.tree.Len() }

// Bytes returns the approximate size of all entries.
func (e *Expiry) Bytes() int64 { return e.bytes }

// Reset drops every entry (engine FLUSHALL).
func (e *Expiry) Reset() {
	e.tree = btree.NewDefault[struct{}]()
	e.bytes = 0
}
