package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/acl"
	"repro/internal/clock"
	"repro/internal/dist"
	"repro/internal/gdpr"
	"repro/internal/stats"
)

// loadBatchSize is how many records a load worker claims per engine call
// when the client supports batched creates.
const loadBatchSize = 128

// Load populates db with cfg.Records personal-data records as the
// controller, using cfg.Threads workers, and returns the dataset
// descriptor plus load statistics. Clients implementing BatchCreator
// (the PostgreSQL model) ingest batches of loadBatchSize records per
// engine call — one lock acquisition and one group-commit wait per
// batch; other clients load record by record.
func Load(db DB, cfg Config, clk clock.Clock) (*Dataset, *stats.Run, error) {
	cfg = cfg.WithDefaults()
	if clk == nil {
		clk = clock.NewReal()
	}
	ds := NewDataset(cfg, clk.Now())
	run := stats.NewRun()
	run.Start(time.Now())
	actor := ControllerActor()
	bc, batched := db.(BatchCreator)
	claim := int64(1)
	if batched {
		claim = loadBatchSize
	}
	var next atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < cfg.Threads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			op := run.Op(string(QCreateRecord))
			for {
				lo := next.Add(claim) - claim
				if lo >= int64(cfg.Records) {
					return
				}
				hi := lo + claim
				if hi > int64(cfg.Records) {
					hi = int64(cfg.Records)
				}
				t0 := time.Now()
				var err error
				if batched {
					recs := make([]gdpr.Record, 0, hi-lo)
					for i := lo; i < hi; i++ {
						recs = append(recs, ds.RecordAt(int(i)))
					}
					err = bc.CreateRecords(actor, recs)
				} else {
					err = db.CreateRecord(actor, ds.RecordAt(int(lo)))
				}
				elapsed := time.Since(t0)
				if err != nil {
					op.RecordErr(elapsed)
					firstErr.CompareAndSwap(nil, err)
					return
				}
				// Attribute the batch latency evenly across its records so
				// per-record stats stay comparable across load paths.
				per := elapsed / time.Duration(hi-lo)
				for i := lo; i < hi; i++ {
					op.RecordOK(per)
				}
			}
		}()
	}
	wg.Wait()
	run.Finish(time.Now())
	if err, _ := firstErr.Load().(error); err != nil {
		return nil, run, err
	}
	return ds, run, nil
}

// opContext carries per-worker state through query execution.
type opContext struct {
	ds   *Dataset
	r    *rand.Rand
	keys dist.Generator // selects record indexes under mix.Dist
	// secondary selects attribute-value indexes (purposes, shares,
	// decisions) for the minority query class under mix.SecondaryDist.
	secondary dist.Generator
	clk       clock.Clock
	// newKeySeq hands out indexes for controller-created records.
	newKeySeq *atomic.Int64
	// deletedSample remembers recently deleted keys for verify-deletion.
	deletedMu     *sync.Mutex
	deletedSample *[]string
}

func (oc *opContext) recordDeleted(keys ...string) {
	oc.deletedMu.Lock()
	defer oc.deletedMu.Unlock()
	for _, k := range keys {
		if len(*oc.deletedSample) >= 256 {
			(*oc.deletedSample)[oc.r.Intn(256)] = k
		} else {
			*oc.deletedSample = append(*oc.deletedSample, k)
		}
	}
}

func (oc *opContext) sampleDeleted(n int) []string {
	oc.deletedMu.Lock()
	defer oc.deletedMu.Unlock()
	if len(*oc.deletedSample) == 0 {
		// Nothing deleted yet: verify keys that never existed.
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("rec-deleted-%06d", oc.r.Intn(1_000_000))
		}
		return out
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, (*oc.deletedSample)[oc.r.Intn(len(*oc.deletedSample))])
	}
	return out
}

// execute runs one query of type q against db, returning an error only
// for engine failures. Denials under access control and empty matches are
// valid benchmark outcomes.
func execute(db DB, q QueryType, oc *opContext) error {
	ds := oc.ds
	cfg := ds.Cfg
	i := int(oc.keys.Next()) // record index under the workload's distribution
	var err error
	switch q {
	case QCreateRecord:
		idx := int(oc.newKeySeq.Add(1))
		rec := ds.RecordAt(0) // shape template
		rec.Key = fmt.Sprintf("rec-new-%08d", idx)
		rec.Data = fmt.Sprintf("%0*d", cfg.DataSize, idx%1_000_000)
		rec.Meta.User = ds.UserAt(i)
		rec.Meta.Expiry = oc.clk.Now().Add(cfg.DefaultTTL)
		err = db.CreateRecord(ControllerActor(), rec)

	case QDeleteByKey:
		key := ds.KeyAt(i)
		_, err = db.DeleteRecord(ds.CustomerActor(ds.OwnerOfKey(i)), gdpr.ByKey(key))
		if err == nil {
			oc.recordDeleted(key)
		}
	case QDeleteByPurpose:
		_, err = db.DeleteRecord(ControllerActor(), gdpr.ByPurpose(ds.PurposeName(int(oc.secondary.Next()))))
	case QDeleteByTTL:
		_, err = db.DeleteRecord(ControllerActor(), gdpr.ByExpiredAt(oc.clk.Now()))
	case QDeleteByUser:
		_, err = db.DeleteRecord(ControllerActor(), gdpr.ByUser(ds.UserAt(i)))

	case QReadDataByKey:
		// The processor reads under the record's first load-time purpose,
		// which the dataset can recompute without touching the store.
		rec := ds.RecordAt(i)
		actor := acl.Actor{Role: acl.Processor, ID: "processor-1", Purpose: rec.Meta.Purposes[0]}
		_, err = db.ReadData(actor, gdpr.ByKey(rec.Key))
	case QReadDataByPurpose:
		p := int(oc.secondary.Next())
		_, err = db.ReadData(ds.ProcessorActor(p), gdpr.ByPurpose(ds.PurposeName(p)))
	case QReadDataByUser:
		u := ds.OwnerOfKey(i)
		_, err = db.ReadData(ds.CustomerActor(u), gdpr.ByUser(ds.UserName(u)))
	case QReadDataByObj:
		// Objection-conditioned processor read (G 21.3). Like the
		// GDPRbench implementation, the workload matches the OBJ
		// attribute value directly; the access-control layer then filters
		// out what the processor may not see.
		p := int(oc.secondary.Next())
		_, err = db.ReadData(ds.ProcessorActor(p), gdpr.ByObjection(ds.PurposeName(p)))
	case QReadDataByDec:
		p := int(oc.secondary.Next())
		_, err = db.ReadData(ds.ProcessorActor(p), gdpr.ByDecision(ds.DecisionName(p)))

	case QReadMetaByKey:
		_, err = db.ReadMetadata(ds.CustomerActor(ds.OwnerOfKey(i)), gdpr.ByKey(ds.KeyAt(i)))
	case QReadMetaByUser:
		_, err = db.ReadMetadata(RegulatorActor(), gdpr.ByUser(ds.UserAt(i)))
	case QReadMetaByShare:
		_, err = db.ReadMetadata(RegulatorActor(), gdpr.ByShare(ds.ShareName(int(oc.secondary.Next()))))

	case QUpdateDataByKey:
		newData := fmt.Sprintf("%0*d", cfg.DataSize, oc.r.Intn(1_000_000))
		_, err = db.UpdateData(ds.CustomerActor(ds.OwnerOfKey(i)), ds.KeyAt(i), newData)

	case QUpdateMetaByKey:
		// The customer flips an objection (G 18.1 / G 7.3).
		delta := gdpr.Delta{Attr: gdpr.AttrObjection, Op: gdpr.DeltaAdd, Values: []string{ds.PurposeName(oc.r.Intn(cfg.Purposes))}}
		_, err = db.UpdateMetadata(ds.CustomerActor(ds.OwnerOfKey(i)), gdpr.ByKey(ds.KeyAt(i)), delta)
	case QUpdateMetaByPur:
		// The controller extends retention for a purpose (G 13.3).
		delta := gdpr.Delta{Attr: gdpr.AttrTTL, Op: gdpr.DeltaSet, Expiry: oc.clk.Now().Add(cfg.DefaultTTL)}
		_, err = db.UpdateMetadata(ControllerActor(), gdpr.ByPurpose(ds.PurposeName(int(oc.secondary.Next()))), delta)
	case QUpdateMetaByUser:
		// The controller records a new third-party share for a user.
		delta := gdpr.Delta{Attr: gdpr.AttrSharing, Op: gdpr.DeltaAdd, Values: []string{ds.ShareName(oc.r.Intn(cfg.Shares))}}
		_, err = db.UpdateMetadata(ControllerActor(), gdpr.ByUser(ds.UserAt(i)), delta)
	case QUpdateMetaByShare:
		// The controller retires a third-party share.
		s := ds.ShareName(int(oc.secondary.Next()))
		delta := gdpr.Delta{Attr: gdpr.AttrSharing, Op: gdpr.DeltaRemove, Values: []string{s}}
		_, err = db.UpdateMetadata(ControllerActor(), gdpr.ByShare(s), delta)

	case QGetSystemLogs:
		now := oc.clk.Now()
		_, err = db.GetSystemLogs(RegulatorActor(), now.Add(-cfg.LogWindow), now)
	case QGetSystemFeatures:
		_, err = db.GetSystemFeatures(RegulatorActor())
	case QVerifyDeletion:
		_, err = db.VerifyDeletion(RegulatorActor(), oc.sampleDeleted(4))

	default:
		return fmt.Errorf("core: unknown query type %q", q)
	}
	// Access denials are correct benchmark responses, not failures.
	var denied *acl.DeniedError
	if errors.As(err, &denied) {
		return nil
	}
	return err
}

// Run executes one Table 2a workload closed-loop against db:
// cfg.Operations queries drawn from the workload's mix, spread over
// cfg.Threads workers. The returned stats carry per-query latencies and
// the workload completion time (§4.2.3's headline metric).
func Run(db DB, ds *Dataset, name WorkloadName, clk clock.Clock) (*stats.Run, error) {
	mix, ok := DefaultWorkloads()[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown workload %q", name)
	}
	return RunMix(db, ds, mix, 0, clk)
}

// RunMix executes a workload mix — §4.2.2 makes the default workloads
// replaceable ("we make it possible to update or replace them with
// custom workloads, when necessary"). The mix must name at least one
// query with positive weight.
//
// rate 0 runs closed loop: each worker starts its next op as soon as the
// previous one returns, and latency is measured from op start. rate > 0
// runs open loop: op i arrives at start + i/rate regardless of how
// earlier ops fared, and its latency is measured from that scheduled
// arrival, so time spent queued behind a stalled worker counts against
// it. A closed loop silently stops issuing requests while the system
// stalls, under-reporting exactly the tail the stall caused (coordinated
// omission). Workers pull the next op index from a shared counter, so a
// slow op on one worker never delays another worker's schedule.
func RunMix(db DB, ds *Dataset, mix Mix, rate float64, clk clock.Clock) (*stats.Run, error) {
	if rate < 0 {
		return nil, fmt.Errorf("core: arrival rate must be >= 0, got %g", rate)
	}
	if len(mix.Queries) == 0 || len(mix.Queries) != len(mix.Weights) {
		return nil, fmt.Errorf("core: mix needs equal, non-empty queries/weights")
	}
	if clk == nil {
		clk = clock.NewReal()
	}
	cfg := ds.Cfg
	run := stats.NewRun()
	var newKeySeq atomic.Int64
	var deletedMu sync.Mutex
	deletedSample := make([]string, 0, 256)
	var next atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup

	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(time.Second) / rate)
	}
	start := time.Now()
	run.Start(start)
	for t := 0; t < cfg.Threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(cfg.Seed + 1000 + int64(t)))
			oc := &opContext{
				ds:            ds,
				r:             r,
				keys:          newGenerator(r, mix.Dist, int64(cfg.Records)),
				secondary:     newGenerator(r, mix.SecondaryDist, int64(maxOf(cfg.Purposes, cfg.Shares, cfg.Decisions, cfg.Sources))),
				clk:           clk,
				newKeySeq:     &newKeySeq,
				deletedMu:     &deletedMu,
				deletedSample: &deletedSample,
			}
			chooser := dist.NewWeighted(r, mix.Queries, mix.Weights)
			for {
				i := next.Add(1) - 1
				if i >= int64(cfg.Operations) {
					return
				}
				q := chooser.Next()
				op := run.Op(string(q))
				t0 := time.Now()
				if rate > 0 {
					t0 = start.Add(time.Duration(i) * interval)
					time.Sleep(time.Until(t0))
				}
				if err := execute(db, q, oc); err != nil {
					op.RecordErr(time.Since(t0))
					firstErr.CompareAndSwap(nil, err)
					return
				}
				op.RecordOK(time.Since(t0))
			}
		}(t)
	}
	wg.Wait()
	run.Finish(time.Now())
	if err, _ := firstErr.Load().(error); err != nil {
		return run, err
	}
	return run, nil
}

// newGenerator builds the index generator for a Table 2a distribution.
// Both the record-selection distribution (Mix.Dist) and the minority
// query class's attribute-value distribution (Mix.SecondaryDist) route
// through it, so a mix's declared distributions are what actually runs.
func newGenerator(r *rand.Rand, d Dist, n int64) dist.Generator {
	if d == DistZipf {
		return dist.NewScrambledZipfian(r, n)
	}
	return dist.NewUniform(r, n)
}

func maxOf(vs ...int) int {
	m := 1
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}

// WorkloadResult is one workload's §4.2.3 measurements.
type WorkloadResult struct {
	Workload       WorkloadName
	Operations     int64
	Errors         int64
	CompletionTime time.Duration
	Throughput     float64
	Correctness    float64 // 0..100; negative when not validated
}

// Report aggregates a full GDPRbench run.
type Report struct {
	Engine  string
	Records int
	Results []WorkloadResult
	Space   SpaceUsage
}

// String renders the report as text.
func (r Report) String() string {
	out := fmt.Sprintf("GDPRbench: engine=%s records=%d\n", r.Engine, r.Records)
	for _, res := range r.Results {
		out += fmt.Sprintf("  %-10s ops=%-7d errs=%-3d completion=%-12v tput=%8.1f ops/s",
			res.Workload, res.Operations, res.Errors, res.CompletionTime, res.Throughput)
		if res.Correctness >= 0 {
			out += fmt.Sprintf(" correctness=%.1f%%", res.Correctness)
		}
		out += "\n"
	}
	out += fmt.Sprintf("  space: personal=%dB total=%dB factor=%.2fx\n",
		r.Space.PersonalBytes, r.Space.TotalBytes, r.Space.Factor())
	return out
}
