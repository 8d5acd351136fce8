package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/acl"
	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/gdpr"
	"repro/internal/obs"
	"repro/internal/transit"
)

// This file is the compliance middleware: one implementation of the §3.3
// query interface (core.DB) layered over any storage Engine. It owns every
// cross-cutting concern the two client stubs used to duplicate — strict
// validation, Figure 1 access control, metadata redaction, audit logging,
// the in-transit record layer, and read-modify-write re-checks under the
// engine lock — so a backend only implements the narrow Engine contract
// and inherits full GDPR compliance.

// WrapConfig configures Wrap.
type WrapConfig struct {
	// Compliance selects the feature set the middleware enforces.
	Compliance Compliance
	// Clock supplies time; defaults to the real clock.
	Clock clock.Clock
	// Audit is a pre-opened audit log to use (and close) when Logging is
	// on; the sharded PostgreSQL model shares one log between the
	// middleware and every shard's statement logger. When nil, the
	// middleware opens AuditPath itself.
	Audit *audit.Log
	// AuditPath is the audit-trail base path, used when Audit is nil.
	// Required when Logging is enabled.
	AuditPath string
	// AuditKey encrypts the audit trail at rest (nil = plaintext).
	AuditKey []byte
	// AuditPolicy selects the audit append pipeline (sync | batched |
	// async) when the middleware opens AuditPath itself.
	AuditPolicy audit.Pipeline
	// AuditSyncAlways makes the audit trail fsync per group commit (the
	// strict interpretation) instead of the paper's everysec batching.
	AuditSyncAlways bool
	// AuditMemoryCap bounds the audit log's in-memory tail (0 = its
	// default); queries stay correct past it via the segment store.
	AuditMemoryCap int
	// AuditRetention compacts trail segments older than this window
	// (0 keeps everything forever).
	AuditRetention time.Duration
	// TransitKey derives the in-transit record layer; required when
	// EncryptInTransit is enabled.
	TransitKey []byte
	// Obs is the observability registry the middleware reports to (op
	// counters, sampled phase spans, slowlog, audit-pipeline collector);
	// nil means the process-wide obs.Default().
	Obs *obs.Registry
}

// OpenAudit opens the audit trail described by a WrapConfig (sync policy
// per the paper's conventions — everysec unless AuditSyncAlways — with
// the configured pipeline and optional at-rest encryption). Open uses it
// to create the single log that every engine and the middleware share.
func OpenAudit(wc WrapConfig, clk clock.Clock) (*audit.Log, error) {
	policy := audit.SyncEverySec
	if wc.AuditSyncAlways {
		policy = audit.SyncAlways
	}
	return audit.Open(audit.Config{
		Path:      wc.AuditPath,
		Key:       wc.AuditKey,
		Policy:    policy,
		Pipeline:  wc.AuditPolicy,
		Clock:     clk,
		MemoryCap: wc.AuditMemoryCap,
		Retention: wc.AuditRetention,
	})
}

// Wrap layers the compliance middleware over an Engine, returning the
// GDPR query interface. When the engine implements BatchEngine the
// returned DB also implements BatchCreator, so core.Load batches.
func Wrap(e Engine, cfg WrapConfig) (DB, error) {
	m, err := newMiddleware(e, cfg)
	if err != nil {
		return nil, err
	}
	if _, ok := e.(BatchEngine); ok {
		return &batchDB{m}, nil
	}
	return m, nil
}

// opKind indexes the middleware's interned per-op metrics so the always-on
// counter increments never pay a map lookup on the hot path.
type opKind int

const (
	kCreate opKind = iota
	kCreateBatch
	kReadData
	kReadMeta
	kUpdateData
	kUpdateMeta
	kDelete
	kGetLogs
	kGetFeatures
	kVerifyDel
	kReadDataStream
	kReadMetaStream
	numOpKinds
)

// opKindNames are the metric label values — identical to the audit trail's
// op names so a slowlog entry, a metric series, and an audit line all name
// the op the same way.
var opKindNames = [numOpKinds]string{
	"CREATE-RECORD", "CREATE-RECORDS", "READ-DATA", "READ-METADATA",
	"UPDATE-DATA", "UPDATE-METADATA", "DELETE-RECORD", "GET-SYSTEM-LOGS",
	"GET-SYSTEM-FEATURES", "VERIFY-DELETION", "READ-DATA-STREAM",
	"READ-METADATA-STREAM",
}

type opMetrics struct {
	total *obs.Counter
	errs  *obs.Counter
}

// middleware implements DB over an Engine.
type middleware struct {
	eng  Engine
	log  *audit.Log
	pipe *transit.Pipe
	comp Compliance
	clk  clock.Clock
	obs  *obs.Registry
	ops  [numOpKinds]opMetrics
	coll *obs.CollectorHandle
}

func newMiddleware(e Engine, cfg WrapConfig) (*middleware, error) {
	clk := cfg.Clock
	if clk == nil {
		clk = clock.NewReal()
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.Default()
	}
	m := &middleware{eng: e, comp: cfg.Compliance, clk: clk, log: cfg.Audit, obs: reg}
	for k := opKind(0); k < numOpKinds; k++ {
		m.ops[k] = opMetrics{
			total: reg.Counter(`gdpr_ops_total{op="` + opKindNames[k] + `"}`),
			errs:  reg.Counter(`gdpr_op_errors_total{op="` + opKindNames[k] + `"}`),
		}
	}
	if cfg.Compliance.Logging && m.log == nil {
		if cfg.AuditPath == "" {
			return nil, fmt.Errorf("core: logging requires an audit path")
		}
		log, err := OpenAudit(cfg, clk)
		if err != nil {
			return nil, err
		}
		m.log = log
	}
	if cfg.Compliance.EncryptInTransit {
		if len(cfg.TransitKey) == 0 {
			m.closeOwned()
			return nil, fmt.Errorf("core: in-transit encryption requires a transit key")
		}
		pipe, err := transit.NewPipe(cfg.TransitKey)
		if err != nil {
			m.closeOwned()
			return nil, err
		}
		m.pipe = pipe
	}
	if m.log != nil {
		// The audit pipeline's counters live in audit.Log; export them
		// pull-time so scrapes see the trail without new hot-path atomics.
		log := m.log
		m.coll = reg.RegisterCollector(func(emit func(string, int64, bool)) {
			s := log.Stats()
			emit("audit_appended_total", s.Appended, false)
			emit("audit_bytes_total", s.Bytes, false)
			emit("audit_batches_total", s.Batches, false)
			emit("audit_flushes_total", s.Flushes, false)
			emit("audit_compactions_total", s.Compactions, false)
			emit("audit_compacted_entries_total", s.CompactedEntries, false)
			emit("audit_max_queue_depth", s.MaxQueueDepth, true)
			emit("audit_segments", s.Segments, true)
		})
	}
	return m, nil
}

// closeOwned releases middleware-held resources without touching the
// engine (constructor error paths; the caller still owns the engine).
func (m *middleware) closeOwned() {
	if m.log != nil {
		m.log.Close()
	}
	m.coll.Close()
}

// begin counts the op (always) and opens a sampled span (usually nil). The
// span starts in the validate phase.
func (m *middleware) begin(k opKind, a acl.Actor, keyClass string) *obs.Span {
	m.ops[k].total.Inc()
	return m.obs.StartSpan(opKindNames[k], a.Role.String(), keyClass)
}

// finish counts a failure and closes the span.
func (m *middleware) finish(k opKind, sp *obs.Span, err error) {
	if err != nil {
		m.ops[k].errs.Inc()
	}
	sp.Finish(err)
}

// batchDB is the middleware with the bulk CREATE-RECORD path exposed; Wrap
// returns it when the engine can batch.
type batchDB struct{ *middleware }

// CreateRecords implements BatchCreator.
func (b *batchDB) CreateRecords(a acl.Actor, recs []gdpr.Record) error {
	return b.createBatch(a, recs)
}

// transitWrap pays the in-transit record-layer cost around fn. The request
// and response payloads cross the simulated wire. The span's engine phase
// brackets fn; the encrypt/decrypt work on both sides accumulates into the
// transit phase.
func (m *middleware) transitWrap(sp *obs.Span, req string, fn func() (string, error)) error {
	if m.pipe == nil {
		sp.EnterPhase(obs.PhaseEngine)
		_, err := fn()
		return err
	}
	sp.EnterPhase(obs.PhaseTransit)
	var opErr error
	_, err := m.pipe.RoundTrip([]byte(req), func([]byte) []byte {
		sp.EnterPhase(obs.PhaseEngine)
		resp, e := fn()
		opErr = e
		sp.EnterPhase(obs.PhaseTransit)
		return []byte(resp)
	})
	if opErr != nil {
		return opErr
	}
	return err
}

// CreateRecord implements DB.
func (m *middleware) CreateRecord(a acl.Actor, rec gdpr.Record) error {
	sp := m.begin(kCreate, a, "key")
	if err := rec.Validate(m.comp.Strict); err != nil {
		m.finish(kCreate, sp, err)
		return err
	}
	if m.comp.AccessControl {
		sp.EnterPhase(obs.PhaseACL)
		if err := acl.CheckRecord(a, acl.VerbCreate, rec, nil); err != nil {
			sp.EnterPhase(obs.PhaseAudit)
			auditOp(m.log, a, "CREATE-RECORD", rec.Key, false, err.Error())
			m.finish(kCreate, sp, err)
			return err
		}
	}
	err := m.transitWrap(sp, "CREATE "+rec.Key, func() (string, error) {
		return "OK", m.eng.Put(rec)
	})
	sp.EnterPhase(obs.PhaseAudit)
	auditOp(m.log, a, "CREATE-RECORD", rec.Key, err == nil, "")
	m.finish(kCreate, sp, err)
	return err
}

// createBatch validates and ACL-checks every record, then inserts the
// batch through the engine's bulk path — one engine call, one durability
// wait (or one per-shard fan-out) per batch instead of per record.
func (m *middleware) createBatch(a acl.Actor, recs []gdpr.Record) error {
	be, ok := m.eng.(BatchEngine)
	if !ok {
		for _, rec := range recs {
			if err := m.CreateRecord(a, rec); err != nil {
				return err
			}
		}
		return nil
	}
	sp := m.begin(kCreateBatch, a, "key")
	for _, rec := range recs {
		if err := rec.Validate(m.comp.Strict); err != nil {
			m.finish(kCreateBatch, sp, err)
			return err
		}
		if m.comp.AccessControl {
			sp.EnterPhase(obs.PhaseACL)
			if err := acl.CheckRecord(a, acl.VerbCreate, rec, nil); err != nil {
				sp.EnterPhase(obs.PhaseAudit)
				auditOp(m.log, a, "CREATE-RECORD", rec.Key, false, err.Error())
				m.finish(kCreateBatch, sp, err)
				return err
			}
		}
	}
	err := m.transitWrap(sp, fmt.Sprintf("CREATE-BATCH %d", len(recs)), func() (string, error) {
		return "OK", be.PutBatch(recs)
	})
	sp.EnterPhase(obs.PhaseAudit)
	auditOp(m.log, a, "CREATE-RECORDS", fmt.Sprintf("%d records", len(recs)), err == nil, "")
	m.finish(kCreateBatch, sp, err)
	return err
}

// rmw atomically applies mutate to the record at key, re-verifying the
// selector and the actor's rights under the engine lock (a concurrent
// mutation may have changed the record since it was selected). It reports
// whether the record was updated.
func (m *middleware) rmw(a acl.Actor, verb acl.Verb, key string, sel gdpr.Selector, delta *gdpr.Delta, mutate func(*gdpr.Record) error) (bool, error) {
	updated, err := m.eng.Update(key, func(rec gdpr.Record) (gdpr.Record, error) {
		if !sel.Matches(rec) {
			return gdpr.Record{}, errSkipUpdate
		}
		if m.comp.AccessControl {
			if err := acl.CheckRecord(a, verb, rec, delta); err != nil {
				return gdpr.Record{}, errSkipUpdate
			}
		}
		if err := mutate(&rec); err != nil {
			return gdpr.Record{}, err
		}
		if err := rec.Validate(m.comp.Strict); err != nil {
			return gdpr.Record{}, err
		}
		return rec, nil
	})
	if errors.Is(err, errSkipUpdate) {
		return false, nil
	}
	return updated, err
}

// UpdateData implements DB.
func (m *middleware) UpdateData(a acl.Actor, key, data string) (int, error) {
	sp := m.begin(kUpdateData, a, "key")
	n := 0
	err := m.transitWrap(sp, "UPDATE-DATA "+key, func() (string, error) {
		ok, err := m.rmw(a, acl.VerbUpdateData, key, gdpr.ByKey(key), nil, func(rec *gdpr.Record) error {
			rec.Data = data
			return nil
		})
		if err != nil {
			return "", err
		}
		if ok {
			n = 1
		}
		return fmt.Sprintf("%d", n), nil
	})
	sp.EnterPhase(obs.PhaseAudit)
	auditOp(m.log, a, "UPDATE-DATA", key, err == nil, countNote(n))
	m.finish(kUpdateData, sp, err)
	return n, err
}

// UpdateMetadata implements DB. Candidate keys are collected in ONE
// selector resolution (a single scan on the Redis model, one index probe
// on the PostgreSQL model, one scatter-gather on the shard router); each
// candidate is then re-checked against the selector and the actor's
// rights at apply time under the engine lock, so a by-user update is one
// scan plus k point read-modify-writes, not k+1 scans.
func (m *middleware) UpdateMetadata(a acl.Actor, sel gdpr.Selector, delta gdpr.Delta) (int, error) {
	sp := m.begin(kUpdateMeta, a, string(sel.Attr))
	n := 0
	err := m.transitWrap(sp, "UPDATE-META "+sel.String(), func() (string, error) {
		keys, err := m.eng.SelectKeys(sel)
		if err != nil {
			return "", err
		}
		for _, key := range keys {
			ok, err := m.rmw(a, acl.VerbUpdateMetadata, key, sel, &delta, func(r *gdpr.Record) error {
				return delta.Apply(&r.Meta)
			})
			if err != nil {
				return "", err
			}
			if ok {
				n++
			}
		}
		return fmt.Sprintf("%d", n), nil
	})
	sp.EnterPhase(obs.PhaseAudit)
	auditOp(m.log, a, "UPDATE-METADATA", sel.String(), err == nil, countNote(n))
	m.finish(kUpdateMeta, sp, err)
	return n, err
}

// DeleteRecord implements DB.
func (m *middleware) DeleteRecord(a acl.Actor, sel gdpr.Selector) (int, error) {
	sp := m.begin(kDelete, a, string(sel.Attr))
	n := 0
	err := m.transitWrap(sp, "DELETE "+sel.String(), func() (string, error) {
		var keys []string
		if sel.Attr == gdpr.AttrTTL {
			// Purge expired records (G 5(1e)): engines resolve this from
			// their expiry tracking without a value scan, and the purge is
			// not ACL-filtered per record — only controllers may run it.
			if m.comp.AccessControl && a.Role != acl.Controller {
				return "", &acl.DeniedError{Actor: a, Verb: acl.VerbDelete, Reason: "only controllers purge by TTL"}
			}
			var err error
			keys, err = m.eng.SelectKeys(sel)
			if err != nil {
				return "", err
			}
		} else {
			recs, err := Collect(StreamOf(m.eng, sel, WholeChunk))
			if err != nil {
				return "", err
			}
			keys = keysInOrder(filterACL(m.comp.AccessControl, a, acl.VerbDelete, recs, nil))
		}
		if len(keys) == 0 {
			return "0", nil
		}
		deleted, err := m.eng.Delete(keys)
		if err != nil {
			return "", err
		}
		n = deleted
		return fmt.Sprintf("%d", n), nil
	})
	sp.EnterPhase(obs.PhaseAudit)
	auditOp(m.log, a, "DELETE-RECORD", sel.String(), err == nil, countNote(n))
	m.finish(kDelete, sp, err)
	return n, err
}

// GetSystemLogs implements DB. Range barriers on the audit pipeline and
// merges the segment store with the memory tail, so the answer covers
// every completed operation regardless of the pipeline mode, the
// in-memory eviction cap, or restarts.
func (m *middleware) GetSystemLogs(a acl.Actor, from, to time.Time) ([]audit.Entry, error) {
	sp := m.begin(kGetLogs, a, "range")
	sp.EnterPhase(obs.PhaseACL)
	if err := checkSystemACL(m.comp.AccessControl, a, acl.VerbReadLogs); err != nil {
		m.finish(kGetLogs, sp, err)
		return nil, err
	}
	if m.log == nil {
		err := fmt.Errorf("%w: logging", ErrFeatureDisabled)
		m.finish(kGetLogs, sp, err)
		return nil, err
	}
	sp.EnterPhase(obs.PhaseEngine)
	entries, err := m.log.Range(from, to)
	if err != nil {
		m.finish(kGetLogs, sp, err)
		return nil, err
	}
	sp.EnterPhase(obs.PhaseAudit)
	auditOp(m.log, a, "GET-SYSTEM-LOGS", fmt.Sprintf("%d..%d", from.Unix(), to.Unix()), true, countNote(len(entries)))
	m.finish(kGetLogs, sp, nil)
	return entries, nil
}

// GetSystemFeatures implements DB.
func (m *middleware) GetSystemFeatures(a acl.Actor) (map[string]string, error) {
	sp := m.begin(kGetFeatures, a, "system")
	sp.EnterPhase(obs.PhaseACL)
	if err := checkSystemACL(m.comp.AccessControl, a, acl.VerbReadFeatures); err != nil {
		m.finish(kGetFeatures, sp, err)
		return nil, err
	}
	sp.EnterPhase(obs.PhaseEngine)
	defer m.finish(kGetFeatures, sp, nil)
	f := m.eng.Features()
	f["compliance"] = m.comp.String()
	f["encrypt_in_transit"] = fmt.Sprintf("%v", m.pipe != nil)
	if m.log != nil {
		f["audit_policy"] = m.log.Pipeline().String()
		f["audit_sync"] = m.log.SyncPolicy().String()
	}
	return f, nil
}

// AuditStats reports the audit pipeline's counters (entries, bytes,
// batches, flushes, queue high-water mark, segments). The second result
// is false when logging is off. gdprbench -json surfaces it.
func (m *middleware) AuditStats() (audit.Stats, bool) {
	if m.log == nil {
		return audit.Stats{}, false
	}
	return m.log.Stats(), true
}

// VerifyDeletion implements DB.
func (m *middleware) VerifyDeletion(a acl.Actor, keys []string) (int, error) {
	sp := m.begin(kVerifyDel, a, "key")
	sp.EnterPhase(obs.PhaseACL)
	if err := checkSystemACL(m.comp.AccessControl, a, acl.VerbVerifyDeletion); err != nil {
		m.finish(kVerifyDel, sp, err)
		return 0, err
	}
	sp.EnterPhase(obs.PhaseEngine)
	present := 0
	for _, k := range keys {
		ok, err := m.eng.Exists(k)
		if err != nil {
			m.finish(kVerifyDel, sp, err)
			return present, err
		}
		if ok {
			present++
		}
	}
	sp.EnterPhase(obs.PhaseAudit)
	auditOp(m.log, a, "VERIFY-DELETION", fmt.Sprintf("%d keys", len(keys)), true, countNote(present))
	m.finish(kVerifyDel, sp, nil)
	return present, nil
}

// SpaceUsage implements DB.
func (m *middleware) SpaceUsage() (SpaceUsage, error) { return m.eng.SpaceUsage() }

// Close implements DB: the engine first, then the audit trail.
func (m *middleware) Close() error {
	m.coll.Close()
	var first error
	if err := m.eng.Close(); err != nil {
		first = err
	}
	if m.log != nil {
		if err := m.log.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func encodeAll(recs []gdpr.Record) string {
	var b strings.Builder
	for _, r := range recs {
		b.WriteString(gdpr.Encode(r))
		b.WriteByte('\n')
	}
	return b.String()
}

var (
	_ DB           = (*middleware)(nil)
	_ BatchCreator = (*batchDB)(nil)
)
