package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/gdpr"
)

// exec issues one scripted operation and returns the count the store
// reported for it. It formats nothing and allocates nothing of its own.
func exec(db core.DB, o *op, t *tables) (int, error) {
	a := t.actors[o.actor]
	switch o.kind {
	case opCreate:
		if err := db.CreateRecord(a, t.creates[o.arg]); err != nil {
			return 0, err
		}
		return 1, nil
	case opReadDataByKey, opReadDataByUsr, opReadDataByPur, opReadDataByObj, opReadDataByDec:
		recs, err := db.ReadData(a, o.selector())
		return len(recs), err
	case opReadMetaByKey, opReadMetaByUsr:
		recs, err := db.ReadMetadata(a, o.selector())
		return len(recs), err
	case opUpdateDataByKey:
		return db.UpdateData(a, o.value, o.data)
	case opUpdateMetaByKey, opUpdateMetaByPur, opUpdateMetaByUsr, opUpdateMetaByShr:
		return db.UpdateMetadata(a, o.selector(), t.deltas[o.arg])
	case opDeleteByKey, opDeleteByPur, opDeleteByUsr:
		return db.DeleteRecord(a, o.selector())
	case opDeleteByTTL:
		return db.DeleteRecord(a, gdpr.ByExpiredAt(time.Now()))
	case opGetLogs:
		w := &t.windows[o.arg]
		entries, err := db.GetSystemLogs(a, w.from, w.to)
		return len(entries), err
	case opVerifyDeletion:
		return db.VerifyDeletion(a, t.keysets[o.arg])
	}
	panic("bench: exec has no rule for op kind")
}

// clientRun is one client's progress through its script.
type clientRun struct {
	ops  []op
	next int     // first op not yet executed
	lat  []int64 // lat[i]: latency of ops[i] in ns (from its due time in open loop)
	// Failures: engine errors and refusals (ACL denials are correct
	// answers), and counts that differ from the model's.
	errs, mismatches int
	firstErr         error
}

func newClientRun(ops []op) *clientRun {
	return &clientRun{ops: ops, lat: make([]int64, len(ops))}
}

// check settles one op's outcome against the script's expectation.
func (c *clientRun) check(o *op, t *tables, n int, err error) {
	if err != nil {
		if isDenial(err) {
			return
		}
		c.errs++
		if c.firstErr == nil {
			c.firstErr = fmt.Errorf("%s %q: %w", opKindNames[o.kind], o.value, err)
		}
		return
	}
	want := o.want
	if o.kind == opGetLogs {
		want = t.windows[o.arg].want
	}
	if want >= 0 && int32(n) != want {
		c.mismatches++
		if c.firstErr == nil {
			c.firstErr = fmt.Errorf("%s %q: store reported %d, model expects %d", opKindNames[o.kind], o.value, n, want)
		}
	}
}

// closedLoop executes the next n ops back to back — each only after the
// previous one returned — stopping early if limit (ns since base) passes
// or the script ends. It returns when the last op finished.
func (c *clientRun) closedLoop(db core.DB, t *tables, base time.Time, n int, limit int64) int64 {
	upTo := min(c.next+n, len(c.ops))
	now := int64(time.Since(base))
	for c.next < upTo && now < limit {
		o := &c.ops[c.next]
		n, err := exec(db, o, t)
		done := int64(time.Since(base))
		c.lat[c.next] = done - now
		c.check(o, t, n, err)
		c.next++
		now = done
	}
	return now
}

// phaseWindows is how many equal windows a timed phase is cut into for
// throughput: ops_per_s is the median window's rate, so a passing
// disturbance (a noisy neighbour, a page-cache flush) moves it only if it
// lasts for half the phase. Latency quantiles are taken over every sample
// of the phase: a stall that hits one window in ten is what a tail is for.
const phaseWindows = 10

// phase is the merged outcome of one timed phase over all clients.
type phase struct {
	from, to  [clients]int // script ranges executed
	wall      time.Duration
	ops       int
	span      time.Duration       // length of one window
	windowOps [phaseWindows]int   // ops completed in each window
	lat       [numClasses][]int64 // every op's latency, sorted
}

// opsPerSec is the median window's completion rate.
func (p *phase) opsPerSec() float64 {
	rates := make([]float64, len(p.windowOps))
	for i, n := range p.windowOps {
		rates[i] = float64(n) / p.span.Seconds()
	}
	return medianOf(rates)
}

// latency is class cl's q-quantile over the whole phase, in ns, and how
// many samples the class had.
func (p *phase) latency(cl opClass, q float64) (float64, int) {
	return float64(percentile(p.lat[cl], q)), len(p.lat[cl])
}

// runClosed has every client execute its next perClient ops in a closed
// loop (giving up at limit) and merges their samples.
func runClosed(db core.DB, t *tables, runs []*clientRun, perClient int, limit time.Duration) phase {
	var p phase
	base := time.Now()
	ends := make([]int64, len(runs))
	var wg sync.WaitGroup
	for i, c := range runs {
		p.from[i] = c.next
		wg.Add(1)
		go func(i int, c *clientRun) {
			defer wg.Done()
			ends[i] = c.closedLoop(db, t, base, perClient, int64(limit))
		}(i, c)
	}
	wg.Wait()
	// Windows cover the time every client was running; the stretch where
	// the slowest one finishes alone is left out.
	busy := ends[0]
	for i, c := range runs {
		p.to[i] = c.next
		p.wall = max(p.wall, time.Duration(ends[i]))
		p.ops += p.to[i] - p.from[i]
		busy = min(busy, ends[i])
	}
	p.span = max(1, time.Duration(busy)/phaseWindows)
	for i, c := range runs {
		// Clients run back to back from the phase's start, so an op
		// completes at the sum of the latencies up to it.
		var at int64
		for j := p.from[i]; j < p.to[i]; j++ {
			at += c.lat[j]
			if w := int(at / int64(p.span)); w < phaseWindows {
				p.windowOps[w]++
			}
			cl := c.ops[j].kind.class()
			p.lat[cl] = append(p.lat[cl], c.lat[j])
		}
	}
	for _, lat := range p.lat {
		slices.Sort(lat)
	}
	return p
}

// ---------------------------------------------------------------------------
// Open loop

// Latency limit of the open-loop phases: p99 from due time, with at least
// openMinDone of the scheduled ops completed inside the window. The seed's
// garbage collector stalls arrivals for about 10 ms once a second, which
// alone puts close to 1% of them past 2 ms at any rate, so the limit is
// the stall length: a rate fails when queueing adds to the stalls.
const (
	openLimit   = 10 * time.Millisecond
	openMinDone = 0.99
)

// openResult is one fixed-rate window.
type openResult struct {
	rate      float64
	scheduled int
	done      int   // completed inside the window
	p99       int64 // ns from due time over every scheduled op; unfinished ones count as over any limit
	lagP99    int64 // ns past due the generator woke up, over the ops it had to wait for
	ok        bool
}

// runOpen offers ops at rate ops/s for window: client c owns every
// clients-th slot of the schedule and issues its script's next op when the
// slot comes due, or at once if it is already late. Latency runs from the
// due time. Issuing stops half a window past the end; whatever was
// scheduled and never ran counts as not completed.
func runOpen(db core.DB, t *tables, runs []*clientRun, rate float64, window time.Duration) openResult {
	res := openResult{rate: rate}
	base := time.Now()
	var lat, lag []int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, c := range runs {
		wg.Add(1)
		go func(i int, c *clientRun) {
			defer wg.Done()
			scheduled, done := 0, 0
			from := c.next
			woke := make([]int64, 0, int(rate*window.Seconds())/len(runs)+1)
			for j := 0; c.next < len(c.ops); j++ {
				due := dueTime(j, i, len(runs), rate)
				if due >= int64(window) {
					break
				}
				scheduled++
				now := int64(time.Since(base))
				if now >= int64(window)*3/2 {
					continue // out of time: scheduled, never run
				}
				if now < due {
					woke = append(woke, sleepUntil(base, due)-due)
				}
				o := &c.ops[c.next]
				n, err := exec(db, o, t)
				end := int64(time.Since(base))
				c.lat[c.next] = dueLatency(due, end)
				c.check(o, t, n, err)
				c.next++
				if end <= int64(window) {
					done++
				}
			}
			mu.Lock()
			res.scheduled += scheduled
			res.done += done
			lat = append(lat, c.lat[from:c.next]...)
			lag = append(lag, woke...)
			mu.Unlock()
		}(i, c)
	}
	wg.Wait()
	slices.Sort(lat)
	slices.Sort(lag)
	// Percentile over every scheduled op: the ones that never ran sit
	// beyond the last measured sample.
	res.p99 = int64(window) * 2
	if rank := int(math.Ceil(0.99*float64(res.scheduled))) - 1; rank >= 0 && rank < len(lat) {
		res.p99 = lat[rank]
	}
	res.lagP99 = percentile(lag, 0.99)
	res.ok = res.p99 <= int64(openLimit) && float64(res.done) >= openMinDone*float64(res.scheduled)
	return res
}

// sleepUntil returns once due (ns since base) has come, and the time then.
// Go's own timers wake an idle process a millisecond late, so it sleeps
// in the kernel to just short of due and spins the rest.
func sleepUntil(base time.Time, due int64) int64 {
	const spin = 20_000 // ns
	now := int64(time.Since(base))
	if due-now > spin {
		ts := syscall.NsecToTimespec(due - now - spin)
		syscall.Nanosleep(&ts, nil) // an early wake-up falls through to the spin
	}
	for now < due {
		now = int64(time.Since(base))
	}
	return now
}

// ---------------------------------------------------------------------------
// Output oracle

// oracle holds the expected final state of a sample of keys.
type oracle struct {
	keys []string
	want map[string]*mrec // nil entry or !live: the key must be absent
}

// mutates reports whether the workload's mix changes the store.
func (w *workload) mutates() bool {
	for _, e := range w.mix {
		switch e.kind {
		case opReadDataByKey, opReadDataByUsr, opReadDataByPur, opReadDataByObj, opReadDataByDec,
			opReadMetaByKey, opReadMetaByUsr, opGetLogs, opVerifyDeletion:
		default:
			return true
		}
	}
	return false
}

// finalModels replays each client's executed script prefix on a fresh
// model: the state the store must be in now. With no runs it is the state
// right after the load.
func finalModels(w *workload, s *script, runs []*clientRun) [clients]*model {
	var ms [clients]*model
	for c := range ms {
		ms[c] = newModel(s.ds, c, w.compliance().AccessControl)
		if w.mutates() && runs != nil {
			for i := 0; i < runs[c].next; i++ {
				ms[c].apply(&runs[c].ops[i], s.tab)
			}
		}
	}
	return ms
}

// liveKey returns a record the executed scripts left in place.
func liveKey(s *script, ms [clients]*model) string {
	for c, m := range ms {
		for _, i := range s.ds.owned[c] {
			if k := s.ds.recs[i].Key; m.recs[k].live {
				return k
			}
		}
	}
	return ""
}

// newOracle samples at least sample keys to check against the final
// models: the touched ones first (they are where a lost write or a
// resurrected record would show), then untouched ones, then volatile
// records, which must all have expired.
func newOracle(s *script, ms [clients]*model, seed int64, sample int) *oracle {
	or := &oracle{want: map[string]*mrec{}}
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	per := sample / clients
	for c, m := range ms {
		touched := map[string]bool{}
		var order []string
		for _, k := range m.dirty {
			if !touched[k] {
				touched[k] = true
				order = append(order, k)
			}
		}
		r.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		picked := order[:min(len(order), per*3/4)]
		owned := s.ds.owned[c]
		for _, j := range r.Perm(len(owned)) {
			if len(picked) >= per {
				break
			}
			if k := s.ds.recs[owned[j]].Key; !touched[k] {
				picked = append(picked, k)
			}
		}
		for _, k := range picked {
			or.keys = append(or.keys, k)
			or.want[k] = m.recs[k]
		}
	}
	vol := s.ds.volatile()
	for i := 0; i < min(len(vol), sample/5); i++ {
		k := vol[r.Intn(len(vol))].Key
		if _, dup := or.want[k]; !dup {
			or.keys = append(or.keys, k)
			or.want[k] = nil
		}
	}
	return or
}

// verify reads every sampled key back and compares payload, metadata and
// deletedness with the model. It returns how many keys disagreed and the
// first disagreement.
func (or *oracle) verify(db core.DB) (int, error) {
	bad := 0
	var first error
	fail := func(format string, args ...any) {
		bad++
		if first == nil {
			first = fmt.Errorf(format, args...)
		}
	}
	for _, k := range or.keys {
		recs, err := db.ReadData(core.ControllerActor(), gdpr.ByKey(k))
		if err != nil {
			fail("oracle read %q: %w", k, err)
			continue
		}
		want := or.want[k]
		if want == nil || !want.live {
			if len(recs) != 0 {
				fail("erased or expired key %q is readable", k)
			}
			continue
		}
		if len(recs) != 1 {
			fail("key %q: %d records, want 1", k, len(recs))
			continue
		}
		if d := diffRecord(recs[0], want.rec); d != "" {
			fail("key %q: %s", k, d)
		}
	}
	return bad, first
}

// diffRecord names the first field got and want differ in ("" if none).
func diffRecord(got, want gdpr.Record) string {
	g, w := got.Meta, want.Meta
	switch {
	case got.Data != want.Data:
		return fmt.Sprintf("data %q, want %q", got.Data, want.Data)
	case g.User != w.User:
		return fmt.Sprintf("user %q, want %q", g.User, w.User)
	case g.Source != w.Source:
		return fmt.Sprintf("source %q, want %q", g.Source, w.Source)
	case g.Expiry.Unix() != w.Expiry.Unix():
		return fmt.Sprintf("expiry %v, want %v", g.Expiry, w.Expiry)
	case !gdpr.EqualSets(g.Purposes, w.Purposes):
		return fmt.Sprintf("purposes %v, want %v", g.Purposes, w.Purposes)
	case !gdpr.EqualSets(g.Objections, w.Objections):
		return fmt.Sprintf("objections %v, want %v", g.Objections, w.Objections)
	case !gdpr.EqualSets(g.Decisions, w.Decisions):
		return fmt.Sprintf("decisions %v, want %v", g.Decisions, w.Decisions)
	case !gdpr.EqualSets(g.SharedWith, w.SharedWith):
		return fmt.Sprintf("shares %v, want %v", g.SharedWith, w.SharedWith)
	}
	return ""
}
