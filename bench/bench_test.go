package main

import (
	"io"
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/acl"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/gdpr"
	"repro/internal/obs"
)

// quickSeconds is the deadline quick-scale runs get: their scripts are
// short, so on any healthy build the script ends first.
const quickSeconds = 1

func readRepoContract(t *testing.T) *contract {
	t.Helper()
	c, err := readContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestNameContract runs all four workloads at quick scale, both ways, with
// the oracle on, and holds what they print against BENCHMARK.json: every
// workload and metric named there is printed with that unit, and nothing
// else is.
func TestNameContract(t *testing.T) {
	c := readRepoContract(t)
	t.Chdir(t.TempDir())
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(c.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	checkName := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is outside the contract's alphabet", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	wantE2E, wantLayer := map[string]string{}, map[string]string{}
	hasSetup := false
	for _, m := range c.EndToEnd {
		checkName("end-to-end metric", m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is outside the contract's alphabet", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		wantE2E[m.Name] = m.Unit
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range c.PerLayer {
		checkName("per-layer metric", m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is outside the contract's alphabet", m.Name, m.Unit)
		}
		wantLayer[m.Name] = m.Unit
	}
	if len(endToEnd) != len(wantE2E) || len(perLayer) != len(wantLayer) {
		t.Errorf("the command reports %d+%d metrics, BENCHMARK.json names %d+%d", len(endToEnd), len(perLayer), len(wantE2E), len(wantLayer))
	}
	if len(c.Workloads) != len(workloads()) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command has %d", len(c.Workloads), len(workloads()))
	}
	for i, cw := range c.Workloads {
		checkName("workload", cw.Name)
		w := workloads()[i]
		if cw.Name != w.name {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q in the command", i, cw.Name, w.name)
		}
		if cw.Why != w.why || len(cw.Why) > 200 || strings.Contains(cw.Why, "\n") {
			t.Errorf("workload %s: BENCHMARK.json and the command must carry the same one-line why of at most 200 characters", w.name)
		}
		check := func(mode string, res result, info runInfo, want map[string]string) {
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s %s: attempted %d failed %d: %s", w.name, mode, res.Attempted, res.Failed, info.FirstFailure)
			}
			for n, u := range want {
				got, ok := res.Metrics[n]
				if !ok {
					t.Errorf("%s %s: metric %s is not printed", w.name, mode, n)
				} else if got.Unit != u {
					t.Errorf("%s %s: metric %s printed in %q, BENCHMARK.json says %q", w.name, mode, n, got.Unit, u)
				}
				if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s %s: metric %s is %v", w.name, mode, n, got.Value)
				}
			}
			for n := range res.Metrics {
				if _, ok := want[n]; !ok {
					t.Errorf("%s %s: metric %s is printed but not in BENCHMARK.json", w.name, mode, n)
				}
			}
		}
		res, info, err := runE2E(w, quickScale, 1, quickSeconds)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		check("end-to-end", res, info, wantE2E)
		for n, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; the list may hold only metrics that are never 0", w.name, n, m.Value)
			}
		}
		res, info, err = runTrace(w, quickScale, 1, 2*quickSeconds)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		check("traced", res, info, wantLayer)
		var shares float64
		for _, l := range layerNames {
			shares += res.Metrics[l+".self_share"].Value
		}
		if math.Abs(shares-1) > 0.02 {
			t.Errorf("%s: layer self shares add up to %.4f, want 1 ± 0.02", w.name, shares)
		}
	}
}

// TestScriptDeterminism: the same seed gives byte-identical inputs, another
// seed different ones.
func TestScriptDeterminism(t *testing.T) {
	for _, w := range workloads() {
		a := newScript(w, 7, 2000, 500)
		b := newScript(w, 7, 2000, 500)
		c := newScript(w, 8, 2000, 500)
		if a.sha256 != b.sha256 {
			t.Errorf("%s: seed 7 hashed to %s and to %s", w.name, a.sha256, b.sha256)
		}
		if a.sha256 == c.sha256 {
			t.Errorf("%s: seeds 7 and 8 hash alike", w.name)
		}
	}
}

// noopDB answers every query with nothing, instantly.
type noopDB struct{}

func (noopDB) CreateRecord(acl.Actor, gdpr.Record) error                            { return nil }
func (noopDB) ReadData(acl.Actor, gdpr.Selector) ([]gdpr.Record, error)             { return nil, nil }
func (noopDB) ReadMetadata(acl.Actor, gdpr.Selector) ([]gdpr.Record, error)         { return nil, nil }
func (noopDB) UpdateData(acl.Actor, string, string) (int, error)                    { return 0, nil }
func (noopDB) UpdateMetadata(acl.Actor, gdpr.Selector, gdpr.Delta) (int, error)     { return 0, nil }
func (noopDB) DeleteRecord(acl.Actor, gdpr.Selector) (int, error)                   { return 0, nil }
func (noopDB) GetSystemLogs(acl.Actor, time.Time, time.Time) ([]audit.Entry, error) { return nil, nil }
func (noopDB) GetSystemFeatures(acl.Actor) (map[string]string, error)               { return nil, nil }
func (noopDB) VerifyDeletion(acl.Actor, []string) (int, error)                      { return 0, nil }
func (noopDB) SpaceUsage() (core.SpaceUsage, error)                                 { return core.SpaceUsage{}, nil }
func (noopDB) Close() error                                                         { return nil }

// allKinds is a mix holding every op kind once.
func allKinds() *workload {
	w := &workload{name: "all-kinds", stack: stackKV, full: true}
	for k := opKind(0); k < numOpKinds; k++ {
		w.mix = append(w.mix, mixEntry{k, 1})
	}
	return w
}

// TestDriverLoopAllocatesNothing: with the store taken out, the timed loop
// does no work of its own that could be mistaken for the store's — no RNG,
// no formatting, no record generation, hence no allocation.
func TestDriverLoopAllocatesNothing(t *testing.T) {
	s := newScript(allKinds(), 1, 2000, 2000)
	ops := s.ops[0]
	for i := range ops {
		ops[i].want = -1 // the no-op store reports zeros; that is not what is under test
	}
	c := newClientRun(ops)
	base := time.Now()
	allocs := testing.AllocsPerRun(10, func() {
		c.next = 0
		c.closedLoop(noopDB{}, s.tab, base, len(ops), math.MaxInt64)
	})
	if c.next != len(ops) {
		t.Fatalf("loop ran %d of %d ops", c.next, len(ops))
	}
	if allocs != 0 {
		t.Errorf("driver loop allocates %.1f times per %d ops, want 0", allocs, len(ops))
	}
}

// Optional-interface mixins for the transparency test.
type (
	withBatch  struct{}
	withStream struct{}
	withStats  struct{}
)

func (withBatch) CreateRecords(acl.Actor, []gdpr.Record) error { return nil }
func (withStream) ReadDataStream(acl.Actor, gdpr.Selector, int) (core.RecordCursor, error) {
	return core.SliceCursor(nil, 0), nil
}
func (withStream) ReadMetadataStream(acl.Actor, gdpr.Selector, int) (core.RecordCursor, error) {
	return core.SliceCursor(nil, 0), nil
}
func (withStats) AuditStats() (audit.Stats, bool) { return audit.Stats{}, true }

type noopEngine struct{}

func (noopEngine) Put(gdpr.Record) error                       { return nil }
func (noopEngine) Get(string) (gdpr.Record, bool, error)       { return gdpr.Record{}, false, nil }
func (noopEngine) Select(gdpr.Selector) ([]gdpr.Record, error) { return nil, nil }
func (noopEngine) SelectKeys(gdpr.Selector) ([]string, error)  { return nil, nil }
func (noopEngine) Delete([]string) (int, error)                { return 0, nil }
func (noopEngine) Exists(string) (bool, error)                 { return false, nil }
func (noopEngine) Features() map[string]string                 { return map[string]string{} }
func (noopEngine) SpaceUsage() (core.SpaceUsage, error)        { return core.SpaceUsage{}, nil }
func (noopEngine) Close() error                                { return nil }
func (noopEngine) Update(string, func(gdpr.Record) (gdpr.Record, error)) (bool, error) {
	return false, nil
}

type (
	engBatchMix  struct{}
	engStreamMix struct{}
)

func (engBatchMix) PutBatch([]gdpr.Record) error { return nil }
func (engStreamMix) SelectStream(gdpr.Selector, int) (core.RecordCursor, error) {
	return core.SliceCursor(nil, 0), nil
}

// TestDecoratorsForwardOptionalInterfaces: core.Wrap, shard.Router,
// server.New and core.Load choose their path by asserting for optional
// interfaces, so a decorator that hides or invents one changes what is
// measured.
func TestDecoratorsForwardOptionalInterfaces(t *testing.T) {
	tr := newTracer(16)
	dbs := map[string]core.DB{
		"plain": noopDB{},
		"batch": struct {
			noopDB
			withBatch
		}{},
		"stream": struct {
			noopDB
			withStream
		}{},
		"stats": struct {
			noopDB
			withStats
		}{},
		"batch+stream": struct {
			noopDB
			withBatch
			withStream
		}{},
		"batch+stats": struct {
			noopDB
			withBatch
			withStats
		}{},
		"stream+stats": struct {
			noopDB
			withStream
			withStats
		}{},
		"batch+stream+stats": struct {
			noopDB
			withBatch
			withStream
			withStats
		}{},
	}
	for name, db := range dbs {
		got := traceDB(db, tr, layerCore)
		_, b0 := db.(core.BatchCreator)
		_, b1 := got.(core.BatchCreator)
		_, s0 := db.(core.StreamReader)
		_, s1 := got.(core.StreamReader)
		_, a0 := db.(auditStatser)
		_, a1 := got.(auditStatser)
		if b0 != b1 || s0 != s1 || a0 != a1 {
			t.Errorf("DB %s: batch %v→%v stream %v→%v stats %v→%v", name, b0, b1, s0, s1, a0, a1)
		}
	}
	engines := map[string]core.Engine{
		"plain": noopEngine{},
		"batch": struct {
			noopEngine
			engBatchMix
		}{},
		"stream": struct {
			noopEngine
			engStreamMix
		}{},
		"batch+stream": struct {
			noopEngine
			engBatchMix
			engStreamMix
		}{},
	}
	for name, e := range engines {
		got := traceEngine(e, tr, layerKvstore)
		_, b0 := e.(core.BatchEngine)
		_, b1 := got.(core.BatchEngine)
		_, s0 := e.(core.StreamEngine)
		_, s1 := got.(core.StreamEngine)
		if b0 != b1 || s0 != s1 {
			t.Errorf("engine %s: batch %v→%v stream %v→%v", name, b0, b1, s0, s1)
		}
	}
}

// TestDecoratorsAreTransparent runs one client's quick script through a
// traced and an untraced stack and expects the same work to have been
// done: the middleware's op counters, the final space usage, and every
// sampled record.
func TestDecoratorsAreTransparent(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, name := range []string{"kv-rights", "net-point"} {
		w := workloadByName(name)
		type outcome struct {
			ops   map[string]int64
			space core.SpaceUsage
		}
		run := func(tr *tracer) outcome {
			before := obs.Default().Snapshot(false)
			p, err := prepare(w, quickScale, 3, quickSeconds, 0, tr)
			if err != nil {
				t.Fatal(err)
			}
			defer p.cleanup()
			if tr != nil {
				tr.on.Store(true)
			}
			c := p.runs[0]
			c.closedLoop(p.st.db, p.s.tab, time.Now(), len(c.ops), math.MaxInt64)
			if failed, first := p.failures(); failed != 0 {
				t.Fatalf("%s: %d ops failed: %v", name, failed, first)
			}
			if len(p.s.ds.volatile()) > 0 {
				time.Sleep(time.Until(p.ttlOver))
			}
			models := finalModels(w, p.s, p.runs)
			if bad, first := newOracle(p.s, models, 3, 400).verify(p.st.db); bad != 0 {
				t.Fatalf("%s: oracle: %d keys differ: %v", name, bad, first)
			}
			space, err := p.st.db.SpaceUsage()
			if err != nil {
				t.Fatal(err)
			}
			after := obs.Default().Snapshot(false)
			out := outcome{ops: map[string]int64{}, space: space}
			for series, v := range after.Counters {
				if strings.HasPrefix(series, "gdpr_ops_total") || strings.HasPrefix(series, "gdpr_op_errors_total") {
					out.ops[series] = v - before.Counters[series]
				}
			}
			return out
		}
		plain := run(nil)
		tr := newTracer(1 << 16)
		traced := run(tr)
		if spans, dropped := tr.spans(); len(spans) == 0 || dropped != 0 {
			t.Errorf("%s: traced run recorded %d spans, dropped %d", name, len(spans), dropped)
		}
		if plain.space != traced.space {
			t.Errorf("%s: space usage %+v untraced, %+v traced", name, plain.space, traced.space)
		}
		for series, v := range plain.ops {
			if traced.ops[series] != v {
				t.Errorf("%s: %s grew by %d untraced, %d traced", name, series, v, traced.ops[series])
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.99, 100}, {1, 100}, {0.05, 10}, {0.11, 20}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(values, n=4) returns.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 12, 11, 13, 40}, 10.5, 12, 26.5},
		{[]float64{2, 4}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestDueTimeLatency(t *testing.T) {
	// Two clients at 1000 ops/s overall: slots are 1 ms apart, client 1
	// owns the odd ones.
	if got := dueTime(0, 0, 2, 1000); got != 0 {
		t.Errorf("first slot due at %d", got)
	}
	if got := dueTime(0, 1, 2, 1000); got != 1_000_000 {
		t.Errorf("client 1's first slot due at %d, want 1ms", got)
	}
	if got := dueTime(3, 1, 2, 1000); got != 7_000_000 {
		t.Errorf("client 1's fourth slot due at %d, want 7ms", got)
	}
	// An op due at 5 ms that a stall let start at 9 ms and finish at 9.2 ms
	// took 4.2 ms as its user saw it.
	if got := dueLatency(5_000_000, 9_200_000); got != 4_200_000 {
		t.Errorf("latency from due time = %d", got)
	}
}

func TestVerdict(t *testing.T) {
	mk := func(vs ...float64) *series {
		s := &series{Values: vs}
		s.Q1, s.Median, s.Q3 = quartiles(vs)
		return s
	}
	steady := mk(100, 101, 99, 100, 100)
	for _, c := range []struct {
		name   string
		b      *series
		better string
		want   string
	}{
		{"same", mk(100, 100, 101, 99, 100), "lower", "unchanged"},
		{"slower latency", mk(120, 121, 119, 120, 120), "lower", "regressed"},
		{"faster latency", mk(80, 81, 79, 80, 80), "lower", "improved"},
		{"more throughput", mk(120, 121, 119, 120, 120), "higher", "improved"},
		{"less throughput", mk(80, 81, 79, 80, 80), "higher", "regressed"},
		{"too noisy to tell", mk(60, 140, 100, 70, 130), "lower", "unresolved"},
	} {
		if got, _ := verdict(steady, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	a := &resultFile{Workloads: map[string]*workloadResult{"w": {EndToEnd: map[string]*series{"ops_per_s": steady}}}}
	b := &resultFile{Workloads: map[string]*workloadResult{"w": {EndToEnd: map[string]*series{"ops_per_s": mk(80, 81, 79, 80, 80)}}}}
	c := &contract{}
	c.EndToEnd = append(c.EndToEnd, struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}{"ops_per_s", "ops/s", "higher", 0.05})
	if v := compareResults(io.Discard, c, a, b); v["regressed"] != 1 {
		t.Errorf("compareResults verdicts = %v, want one regressed row", v)
	}
}
