package main

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/acl"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/gdpr"
)

// layer names a module boundary spans are recorded at, outermost first.
type layer uint8

const (
	layerRemote layer = iota
	layerCore
	layerShard
	layerKvstore
	layerRelstore
	numLayers
)

var layerNames = [numLayers]string{"remote", "core", "shard", "kvstore", "relstore"}

// method names the call a span brackets.
type method uint8

const (
	mCreateRecord method = iota
	mCreateRecords
	mReadData
	mReadMetadata
	mUpdateData
	mUpdateMetadata
	mDeleteRecord
	mGetSystemLogs
	mGetSystemFeatures
	mVerifyDeletion
	mReadDataStream
	mReadMetadataStream
	mPut
	mPutBatch
	mGet
	mSelect
	mSelectKeys
	mUpdate
	mDelete
	mExists
	mSelectStream
	numMethods
)

var methodNames = [numMethods]string{
	"CreateRecord", "CreateRecords", "ReadData", "ReadMetadata", "UpdateData",
	"UpdateMetadata", "DeleteRecord", "GetSystemLogs", "GetSystemFeatures",
	"VerifyDeletion", "ReadDataStream", "ReadMetadataStream",
	"Put", "PutBatch", "Get", "Select", "SelectKeys", "Update", "Delete", "Exists", "SelectStream",
}

// span is one call into one layer on behalf of one scripted op.
type span struct {
	op       uint32
	layer    layer
	method   method
	class    opClass
	selector bool // the call resolved an attribute selector, not a key
	failed   bool
	start    int64 // ns since tracer.base
	end      int64
	parent   int32 // index of the enclosing span one layer out; -1 = top
}

// tracer collects spans from the decorators. The traced run keeps one op
// in flight, so every span — router children on other goroutines,
// server-side calls across TCP — belongs to the op the driver announced
// last; decorators read that instead of threading an id through APIs
// they do not own.
type tracer struct {
	base  time.Time
	on    atomic.Bool
	curOp atomic.Uint32
	class atomic.Uint32
	n     atomic.Int64
	buf   []span
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), buf: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin returns the span start, or -1 when tracing is off.
func (t *tracer) begin() int64 {
	if t == nil || !t.on.Load() {
		return -1
	}
	return t.now()
}

func (t *tracer) end(l layer, m method, start int64, selector bool, err error) {
	if start < 0 {
		return
	}
	end := t.now()
	i := t.n.Add(1) - 1
	if i >= int64(len(t.buf)) {
		return // buffer full: the span is dropped and spans() reports it
	}
	t.buf[i] = span{
		op: t.curOp.Load(), layer: l, method: m, class: opClass(t.class.Load()),
		selector: selector, failed: err != nil && !isDenial(err),
		start: start, end: end, parent: -1,
	}
}

// isDenial reports whether err is an access-control refusal — a correct
// answer to the question asked, not a failure of the store.
func isDenial(err error) bool {
	var denied *acl.DeniedError
	return errors.As(err, &denied)
}

// spans returns what was recorded and how many spans did not fit.
func (t *tracer) spans() ([]span, int64) {
	n := t.n.Load()
	if n > int64(len(t.buf)) {
		return t.buf, n - int64(len(t.buf))
	}
	return t.buf[:n], 0
}

func bySelector(sel gdpr.Selector) bool { return sel.Attr != gdpr.AttrKey }

// ---------------------------------------------------------------------------
// core.DB decorator

// auditStatser mirrors the root package's AuditStatser (method set only).
type auditStatser interface {
	AuditStats() (audit.Stats, bool)
}

// tracedDB brackets every query of a core.DB in a span.
type tracedDB struct {
	in core.DB
	t  *tracer
	l  layer
}

// traceDB wraps db so each call records a span at layer l. The result
// implements exactly the optional interfaces db does (BatchCreator,
// StreamReader, AuditStats), because core.Load, server.New and the CLIs
// pick their code path by asserting for them.
func traceDB(db core.DB, t *tracer, l layer) core.DB {
	d := &tracedDB{in: db, t: t, l: l}
	bc, hasB := db.(core.BatchCreator)
	sr, hasS := db.(core.StreamReader)
	as, hasA := db.(auditStatser)
	b, s := dbBatch{d, bc}, dbStream{d, sr}
	switch {
	case hasB && hasS && hasA:
		return struct {
			*tracedDB
			dbBatch
			dbStream
			auditStatser
		}{d, b, s, as}
	case hasB && hasS:
		return struct {
			*tracedDB
			dbBatch
			dbStream
		}{d, b, s}
	case hasB && hasA:
		return struct {
			*tracedDB
			dbBatch
			auditStatser
		}{d, b, as}
	case hasS && hasA:
		return struct {
			*tracedDB
			dbStream
			auditStatser
		}{d, s, as}
	case hasB:
		return struct {
			*tracedDB
			dbBatch
		}{d, b}
	case hasS:
		return struct {
			*tracedDB
			dbStream
		}{d, s}
	case hasA:
		return struct {
			*tracedDB
			auditStatser
		}{d, as}
	}
	return d
}

type dbBatch struct {
	d  *tracedDB
	in core.BatchCreator
}

func (b dbBatch) CreateRecords(a acl.Actor, recs []gdpr.Record) error {
	t0 := b.d.t.begin()
	err := b.in.CreateRecords(a, recs)
	b.d.t.end(b.d.l, mCreateRecords, t0, false, err)
	return err
}

type dbStream struct {
	d  *tracedDB
	in core.StreamReader
}

func (s dbStream) ReadDataStream(a acl.Actor, sel gdpr.Selector, chunk int) (core.RecordCursor, error) {
	t0 := s.d.t.begin()
	cur, err := s.in.ReadDataStream(a, sel, chunk)
	s.d.t.end(s.d.l, mReadDataStream, t0, bySelector(sel), err)
	return cur, err
}

func (s dbStream) ReadMetadataStream(a acl.Actor, sel gdpr.Selector, chunk int) (core.RecordCursor, error) {
	t0 := s.d.t.begin()
	cur, err := s.in.ReadMetadataStream(a, sel, chunk)
	s.d.t.end(s.d.l, mReadMetadataStream, t0, bySelector(sel), err)
	return cur, err
}

func (d *tracedDB) CreateRecord(a acl.Actor, rec gdpr.Record) error {
	t0 := d.t.begin()
	err := d.in.CreateRecord(a, rec)
	d.t.end(d.l, mCreateRecord, t0, false, err)
	return err
}

func (d *tracedDB) ReadData(a acl.Actor, sel gdpr.Selector) ([]gdpr.Record, error) {
	t0 := d.t.begin()
	recs, err := d.in.ReadData(a, sel)
	d.t.end(d.l, mReadData, t0, bySelector(sel), err)
	return recs, err
}

func (d *tracedDB) ReadMetadata(a acl.Actor, sel gdpr.Selector) ([]gdpr.Record, error) {
	t0 := d.t.begin()
	recs, err := d.in.ReadMetadata(a, sel)
	d.t.end(d.l, mReadMetadata, t0, bySelector(sel), err)
	return recs, err
}

func (d *tracedDB) UpdateData(a acl.Actor, key, data string) (int, error) {
	t0 := d.t.begin()
	n, err := d.in.UpdateData(a, key, data)
	d.t.end(d.l, mUpdateData, t0, false, err)
	return n, err
}

func (d *tracedDB) UpdateMetadata(a acl.Actor, sel gdpr.Selector, delta gdpr.Delta) (int, error) {
	t0 := d.t.begin()
	n, err := d.in.UpdateMetadata(a, sel, delta)
	d.t.end(d.l, mUpdateMetadata, t0, bySelector(sel), err)
	return n, err
}

func (d *tracedDB) DeleteRecord(a acl.Actor, sel gdpr.Selector) (int, error) {
	t0 := d.t.begin()
	n, err := d.in.DeleteRecord(a, sel)
	d.t.end(d.l, mDeleteRecord, t0, bySelector(sel), err)
	return n, err
}

func (d *tracedDB) GetSystemLogs(a acl.Actor, from, to time.Time) ([]audit.Entry, error) {
	t0 := d.t.begin()
	entries, err := d.in.GetSystemLogs(a, from, to)
	d.t.end(d.l, mGetSystemLogs, t0, true, err)
	return entries, err
}

func (d *tracedDB) GetSystemFeatures(a acl.Actor) (map[string]string, error) {
	t0 := d.t.begin()
	f, err := d.in.GetSystemFeatures(a)
	d.t.end(d.l, mGetSystemFeatures, t0, false, err)
	return f, err
}

func (d *tracedDB) VerifyDeletion(a acl.Actor, keys []string) (int, error) {
	t0 := d.t.begin()
	n, err := d.in.VerifyDeletion(a, keys)
	d.t.end(d.l, mVerifyDeletion, t0, false, err)
	return n, err
}

func (d *tracedDB) SpaceUsage() (core.SpaceUsage, error) { return d.in.SpaceUsage() }
func (d *tracedDB) Close() error                         { return d.in.Close() }

// ---------------------------------------------------------------------------
// core.Engine decorator

// tracedEngine brackets every storage call of a core.Engine in a span.
type tracedEngine struct {
	in core.Engine
	t  *tracer
	l  layer
}

// traceEngine wraps e so each call records a span at layer l, forwarding
// exactly the optional interfaces e has (BatchEngine, StreamEngine):
// core.Wrap and shard.Router choose bulk and streaming paths by them.
func traceEngine(e core.Engine, t *tracer, l layer) core.Engine {
	d := &tracedEngine{in: e, t: t, l: l}
	be, hasB := e.(core.BatchEngine)
	se, hasS := e.(core.StreamEngine)
	b, s := engBatch{d, be}, engStream{d, se}
	switch {
	case hasB && hasS:
		return struct {
			*tracedEngine
			engBatch
			engStream
		}{d, b, s}
	case hasB:
		return struct {
			*tracedEngine
			engBatch
		}{d, b}
	case hasS:
		return struct {
			*tracedEngine
			engStream
		}{d, s}
	}
	return d
}

type engBatch struct {
	d  *tracedEngine
	in core.BatchEngine
}

func (b engBatch) PutBatch(recs []gdpr.Record) error {
	t0 := b.d.t.begin()
	err := b.in.PutBatch(recs)
	b.d.t.end(b.d.l, mPutBatch, t0, false, err)
	return err
}

type engStream struct {
	d  *tracedEngine
	in core.StreamEngine
}

func (s engStream) SelectStream(sel gdpr.Selector, chunk int) (core.RecordCursor, error) {
	t0 := s.d.t.begin()
	cur, err := s.in.SelectStream(sel, chunk)
	s.d.t.end(s.d.l, mSelectStream, t0, bySelector(sel), err)
	return cur, err
}

func (d *tracedEngine) Put(rec gdpr.Record) error {
	t0 := d.t.begin()
	err := d.in.Put(rec)
	d.t.end(d.l, mPut, t0, false, err)
	return err
}

func (d *tracedEngine) Get(key string) (gdpr.Record, bool, error) {
	t0 := d.t.begin()
	rec, ok, err := d.in.Get(key)
	d.t.end(d.l, mGet, t0, false, err)
	return rec, ok, err
}

func (d *tracedEngine) Select(sel gdpr.Selector) ([]gdpr.Record, error) {
	t0 := d.t.begin()
	recs, err := d.in.Select(sel)
	d.t.end(d.l, mSelect, t0, bySelector(sel), err)
	return recs, err
}

func (d *tracedEngine) SelectKeys(sel gdpr.Selector) ([]string, error) {
	t0 := d.t.begin()
	keys, err := d.in.SelectKeys(sel)
	d.t.end(d.l, mSelectKeys, t0, bySelector(sel), err)
	return keys, err
}

func (d *tracedEngine) Update(key string, mutate func(gdpr.Record) (gdpr.Record, error)) (bool, error) {
	t0 := d.t.begin()
	ok, err := d.in.Update(key, mutate)
	d.t.end(d.l, mUpdate, t0, false, err)
	return ok, err
}

func (d *tracedEngine) Delete(keys []string) (int, error) {
	t0 := d.t.begin()
	n, err := d.in.Delete(keys)
	d.t.end(d.l, mDelete, t0, false, err)
	return n, err
}

func (d *tracedEngine) Exists(key string) (bool, error) {
	t0 := d.t.begin()
	ok, err := d.in.Exists(key)
	d.t.end(d.l, mExists, t0, false, err)
	return ok, err
}

func (d *tracedEngine) Features() map[string]string          { return d.in.Features() }
func (d *tracedEngine) SpaceUsage() (core.SpaceUsage, error) { return d.in.SpaceUsage() }
func (d *tracedEngine) Close() error                         { return d.in.Close() }
