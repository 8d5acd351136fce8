package core

// Selector reads: one cursor per layer. A RecordCursor hands back records
// a bounded chunk at a time so a portability export of one subject among
// millions costs O(chunk) memory, not O(result), at every layer that
// composes over it (shard router, middleware, wire protocol, remote
// client). A materialised read is the same cursor asked for WholeChunk:
// Select, ReadData and ReadMetadata each drain one whole-result chunk
// from the cursor their streaming counterparts page through, so the two
// shapes cannot drift apart.

import (
	"fmt"
	"io"
	"time"

	"repro/internal/acl"
	"repro/internal/gdpr"
	"repro/internal/obs"
	"repro/internal/relstore"
)

// DefaultStreamChunk is the chunk size used when a caller passes 0.
const DefaultStreamChunk = 256

// WholeChunk is the chunk size of a materialised read: a limit no result
// can fill, so every layer's walk answers with its whole result in one
// chunk. It never crosses the wire — the server clamps a requested chunk
// to at most 4096 records.
const WholeChunk = relstore.NoLimit

// RecordCursor iterates a selector result set chunk by chunk. Next
// returns the next non-empty batch of records, or io.EOF when the
// stream is exhausted; any other error is terminal. Close releases the
// cursor's resources and is safe to call at any point, including after
// EOF and more than once. Cursors are not safe for concurrent use.
type RecordCursor interface {
	Next() ([]gdpr.Record, error)
	Close() error
}

// StreamEngine is implemented by engines whose storage supports chunked
// selector iteration. SelectStream returns a cursor over the same
// result set Select(sel) materializes; chunk <= 0 selects
// DefaultStreamChunk. Under a quiescent store the concatenated chunks
// are identical to the materialized result; under concurrent mutation
// each chunk observes the engine state at its own Next call (per-chunk
// snapshots — see DESIGN.md §1i).
type StreamEngine interface {
	Engine
	SelectStream(sel gdpr.Selector, chunk int) (RecordCursor, error)
}

// StreamReader is implemented by DBs that serve compliance-checked
// streaming reads (the cursor counterpart of ReadData/ReadMetadata).
// ACL filtering and redaction apply per chunk; the audit trail records
// one entry per stream when the cursor completes (EOF, error, or
// Close), carrying the total record count.
type StreamReader interface {
	ReadDataStream(a acl.Actor, sel gdpr.Selector, chunk int) (RecordCursor, error)
	ReadMetadataStream(a acl.Actor, sel gdpr.Selector, chunk int) (RecordCursor, error)
}

func normChunk(chunk int) int {
	if chunk <= 0 {
		return DefaultStreamChunk
	}
	return chunk
}

// sliceCursor chunks an already-materialized result set.
type sliceCursor struct {
	recs  []gdpr.Record
	chunk int
}

// SliceCursor returns a cursor over an in-memory result set — how
// StreamOf serves a point read, a whole-result request, and an engine
// without SelectStream.
func SliceCursor(recs []gdpr.Record, chunk int) RecordCursor {
	return &sliceCursor{recs: recs, chunk: normChunk(chunk)}
}

func (c *sliceCursor) Next() ([]gdpr.Record, error) {
	if len(c.recs) == 0 {
		return nil, io.EOF
	}
	n := min(c.chunk, len(c.recs))
	out := c.recs[:n:n]
	c.recs = c.recs[n:]
	return out, nil
}

func (c *sliceCursor) Close() error {
	c.recs = nil
	return nil
}

// Drain consumes cur to EOF, returning the concatenated result, and
// closes it. It is how a materialised read takes its one whole chunk,
// and how a caller that ultimately wants the materialized result
// exercises the streaming path (the equivalence tests and the
// validate-oracle-over-iterator leg).
func Drain(cur RecordCursor) ([]gdpr.Record, error) {
	defer cur.Close()
	// The chunks are joined once at the end, into one exactly sized slice;
	// a single chunk (a whole-result read) is returned as is.
	chunks := make([][]gdpr.Record, 0, 8)
	n := 0
	for {
		recs, err := cur.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		chunks = append(chunks, recs)
		n += len(recs)
	}
	switch len(chunks) {
	case 0:
		return nil, nil
	case 1:
		return chunks[0], nil
	}
	out := make([]gdpr.Record, 0, n)
	for _, recs := range chunks {
		out = append(out, recs...)
	}
	return out, nil
}

// Collect is Drain for a cursor straight from its opener, passing an
// open error through: a materialised read is
// Collect(e.SelectStream(sel, WholeChunk)).
func Collect(cur RecordCursor, err error) ([]gdpr.Record, error) {
	if err != nil {
		return nil, err
	}
	return Drain(cur)
}

// StreamOf returns a cursor over e's result set for sel. A key selector
// is one Get and a WholeChunk request one Select, each served as a
// single chunk; any other request is the engine's own SelectStream when
// it implements StreamEngine, otherwise a SliceCursor over one Select.
func StreamOf(e Engine, sel gdpr.Selector, chunk int) (RecordCursor, error) {
	var recs []gdpr.Record
	var err error
	switch se, ok := e.(StreamEngine); {
	case sel.Attr == gdpr.AttrKey:
		var rec gdpr.Record
		if rec, ok, err = e.Get(sel.Value); ok {
			recs = []gdpr.Record{rec}
		}
	case ok && chunk != WholeChunk:
		return se.SelectStream(sel, chunk)
	default:
		recs, err = e.Select(sel)
	}
	if err != nil {
		return nil, err
	}
	return SliceCursor(recs, chunk), nil
}

// keysInOrder projects records onto their keys, in order.
func keysInOrder(recs []gdpr.Record) []string {
	keys := make([]string, len(recs))
	for i, r := range recs {
		keys[i] = r.Key
	}
	return keys
}

// ---------------------------------------------------------------------------
// kvEngine cursor

// SelectStream implements StreamEngine for the Redis-model engine: key
// selectors resolve to a single Get; indexed equality selectors walk the
// inverted metadata index (IndexedChunk); everything else walks the
// keyspace through the positional scan cursor (ScanChunk).
func (e *kvEngine) SelectStream(sel gdpr.Selector, chunk int) (RecordCursor, error) {
	if sel.Attr == gdpr.AttrKey {
		return StreamOf(e, sel, chunk)
	}
	return &kvCursor{e: e, sel: sel, chunk: normChunk(chunk),
		indexed: indexable(sel) && e.store.MetadataIndexed()}, nil
}

// kvCursor streams a selector through one of the kvstore's two walks,
// filtering with sel.Matches. `after` is the indexed walk's cursor (the
// last emitted or bound-advanced key, so each Next resumes the global
// sorted key order), pos the scan walk's positional cursor.
type kvCursor struct {
	e       *kvEngine
	sel     gdpr.Selector
	chunk   int
	indexed bool
	after   string
	pos     int
	done    bool
}

func (c *kvCursor) Next() ([]gdpr.Record, error) {
	for !c.done {
		var out []gdpr.Record
		var decodeErr error
		visit := func(key, value string, _ time.Time) bool {
			rec, err := gdpr.Decode(value)
			if err != nil {
				decodeErr = fmt.Errorf("core: record %q: %w", key, err)
				return false
			}
			if c.sel.Matches(rec) {
				out = append(out, rec)
			}
			return true
		}
		if c.indexed {
			var ok bool
			c.after, c.done, ok = c.e.store.IndexedChunk(c.sel.Attr, c.sel.Value, c.after, c.chunk, visit)
			if !ok {
				c.done = true
				return nil, fmt.Errorf("core: metadata index unavailable for %s=%s", c.sel.Attr, c.sel.Value)
			}
		} else {
			c.pos, c.done = c.e.store.ScanChunk(c.pos, c.chunk, visit)
		}
		if decodeErr != nil {
			c.done = true
			return nil, decodeErr
		}
		if len(out) > 0 {
			return out, nil
		}
		// A whole chunk of expired holes or non-matching entries: the
		// cursor advanced, try the next window.
	}
	return nil, io.EOF
}

func (c *kvCursor) Close() error {
	c.done = true
	return nil
}

var _ StreamEngine = (*kvEngine)(nil)

// ---------------------------------------------------------------------------
// relEngine cursor

// SelectStream implements StreamEngine for the PostgreSQL-model engine:
// key selectors resolve to a single Get; everything else pages through
// SelectChunk — the planner's index range or a pk-ordered scan —
// against a fresh snapshot per chunk.
func (e *relEngine) SelectStream(sel gdpr.Selector, chunk int) (RecordCursor, error) {
	if sel.Attr == gdpr.AttrKey {
		return StreamOf(e, sel, chunk)
	}
	pred, err := predicateFor(sel)
	if err != nil {
		return nil, err
	}
	return &relCursor{e: e, pred: pred, chunk: normChunk(chunk)}, nil
}

// relCursor streams SelectChunk pages; `after` is the pk of the last
// returned row.
type relCursor struct {
	e     *relEngine
	pred  relstore.Predicate
	chunk int
	after string
	done  bool
}

func (c *relCursor) Next() ([]gdpr.Record, error) {
	if c.done {
		return nil, io.EOF
	}
	rows, err := c.e.db.SelectChunk(RecordsTable, c.pred, c.after, c.chunk)
	if err != nil {
		c.done = true
		return nil, err
	}
	// SelectChunk only comes back short when the table is exhausted.
	c.done = len(rows) < c.chunk
	if len(rows) == 0 {
		return nil, io.EOF
	}
	recs := make([]gdpr.Record, len(rows))
	for i, row := range rows {
		recs[i] = recordFromRow(row)
	}
	c.after = recs[len(recs)-1].Key
	return recs, nil
}

func (c *relCursor) Close() error {
	c.done = true
	return nil
}

var _ StreamEngine = (*relEngine)(nil)

// ---------------------------------------------------------------------------
// Middleware reads

// ReadData implements DB: the read cursor drained at WholeChunk.
func (m *middleware) ReadData(a acl.Actor, sel gdpr.Selector) ([]gdpr.Record, error) {
	return Collect(m.openRead(kReadData, a, sel, WholeChunk))
}

// ReadMetadata implements DB: ReadData's projection with Data redacted.
func (m *middleware) ReadMetadata(a acl.Actor, sel gdpr.Selector) ([]gdpr.Record, error) {
	return Collect(m.openRead(kReadMeta, a, sel, WholeChunk))
}

// ReadDataStream implements StreamReader: ReadData's cursor, paged.
func (m *middleware) ReadDataStream(a acl.Actor, sel gdpr.Selector, chunk int) (RecordCursor, error) {
	return m.openRead(kReadDataStream, a, sel, chunk)
}

// ReadMetadataStream implements StreamReader: ReadMetadata's cursor,
// paged.
func (m *middleware) ReadMetadataStream(a acl.Actor, sel gdpr.Selector, chunk int) (RecordCursor, error) {
	return m.openRead(kReadMetaStream, a, sel, chunk)
}

// openRead is the one compliance-checked selector read: the engine
// cursor (StreamOf) wrapped in mwCursor. Compliance work is paid per
// chunk — ACL filtering and redaction as each batch surfaces, one
// in-transit round trip per chunk pulled — while the audit trail gets
// ONE entry when the read completes (EOF, terminal error, early Close,
// or a failed open), noting the total record count. At WholeChunk that
// is exactly the materialised read: one engine Select (or Get), one
// round trip, one audit entry.
func (m *middleware) openRead(k opKind, a acl.Actor, sel gdpr.Selector, chunk int) (RecordCursor, error) {
	sp := m.begin(k, a, string(sel.Attr))
	sp.EnterPhase(obs.PhaseEngine)
	inner, err := StreamOf(m.eng, sel, chunk)
	c := &mwCursor{m: m, k: k, sp: sp, inner: inner, a: a, target: sel.String(), verb: acl.VerbReadData,
		redact: k == kReadMeta || k == kReadMetaStream, whole: chunk == WholeChunk}
	if err != nil {
		c.finalize(err)
		return nil, err
	}
	if c.redact {
		c.verb = acl.VerbReadMetadata
	}
	if m.pipe != nil {
		c.req = opKindNames[k] + " " + c.target
	}
	return c, nil
}

// mwCursor wraps an engine cursor with the per-chunk compliance work.
type mwCursor struct {
	m      *middleware
	k      opKind
	sp     *obs.Span
	inner  RecordCursor
	a      acl.Actor
	target string // the selector, as audited
	verb   acl.Verb
	redact bool
	req    string // the transit request of each pull
	whole  bool   // one pull answers the whole read
	out    []gdpr.Record
	eof    bool
	total  int
	closed bool
}

func (c *mwCursor) Next() ([]gdpr.Record, error) {
	for !c.closed {
		err := c.m.transitWrap(c.sp, c.req, c.pull)
		out := c.out
		c.out = nil
		if err != nil {
			c.finalize(err)
			return nil, err
		}
		c.total += len(out)
		if c.eof || c.whole {
			c.finalize(nil)
		}
		// The ACL filter can empty a chunk; keep pulling — Next's contract
		// is a non-empty batch or EOF.
		if len(out) > 0 {
			return out, nil
		}
	}
	return nil, io.EOF
}

// pull is the server side of one round trip: the engine cursor's next
// chunk through the ACL filter and redaction, encoded for the wire.
func (c *mwCursor) pull() (string, error) {
	recs, err := c.inner.Next()
	if err == io.EOF {
		c.eof = true
		return "", nil
	}
	if err != nil {
		return "", err
	}
	c.sp.EnterPhase(obs.PhaseACL)
	c.out = filterACL(c.m.comp.AccessControl, c.a, c.verb, recs, nil)
	if c.redact {
		c.out = redactData(c.out)
	}
	if c.m.pipe == nil {
		return "", nil
	}
	return encodeAll(c.out), nil
}

func (c *mwCursor) Close() error {
	err := c.inner.Close()
	c.finalize(nil)
	return err
}

// finalize emits the read's single audit entry and closes the span;
// idempotent so EOF-then-Close (the normal shape) audits once.
func (c *mwCursor) finalize(err error) {
	if c.closed {
		return
	}
	c.closed = true
	c.sp.EnterPhase(obs.PhaseAudit)
	auditOp(c.m.log, c.a, opKindNames[c.k], c.target, err == nil, countNote(c.total))
	c.m.finish(c.k, c.sp, err)
}

var _ StreamReader = (*middleware)(nil)
