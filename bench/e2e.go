package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// metric is one reported number. Names and units are the contract with
// BENCHMARK.json; the tier-1 test holds the two lists together.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics in report order with their units.
// Every workload reports every one of them and none is ever zero, as the
// acceptance driver requires; the ones that only exist on one workload, are
// zero when all is well or cannot hold a bound (fail_share, the open-loop
// three, point_p99_us) are reported on the per-layer list under the bench.
// prefix instead.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"point_p50_us", "us"},
	{"point_p95_us", "us"},
	{"selector_p50_us", "us"},
	{"selector_p99_us", "us"},
	{"space_factor", "x"},
	{"rss_peak_mb", "MB"},
	{"recovery_s", "s"},
}

// runInfo is what a run knows beyond its metrics.
type runInfo struct {
	ScriptSHA256 string  `json:"script_sha256"`
	Ops          int     `json:"ops"`
	WallS        float64 `json:"wall_s"`
	FirstFailure string  `json:"first_failure,omitempty"`
}

// warmup is how long the untimed segment before the clock is meant to
// last: caches fill, connections dial, lazy set-up finishes.
func (s scale) warmup(seconds float64) float64 {
	if !s.warm {
		return 0
	}
	return min(2, max(0.5, seconds/10))
}

// giveUp bounds a phase meant to last the given number of seconds: a
// build several times slower than the seed stops there, not at the end of
// its script.
func giveUp(seconds float64) time.Duration {
	return time.Duration((3*seconds + 5) * float64(time.Second))
}

// ttlSlack is how long after its deadline a volatile record may still be
// readable before the oracle calls it late: one period of the slowest
// expiry mechanism (the postgres model's TTL daemon sweeps once a second).
const ttlSlack = 1500 * time.Millisecond

// runDir returns a fresh data directory under the build scratch area of
// the checkout — the only place a run writes.
func runDir(tag string) (string, error) {
	root := filepath.Join(".bench_build", "data")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, tag+"-")
}

// rssPeakBytes reads the kernel's high-water mark of this process's
// resident set.
func rssPeakBytes() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

func medianDuration(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s[len(s)/2]
}

// prepared is a loaded stack ready for its timed phase.
type prepared struct {
	st      *stack
	s       *script
	runs    []*clientRun
	setups  []time.Duration
	ttlOver time.Time // when the last volatile record is due to be gone
	root    string
}

// prepare generates the script, sets the stack up sc.setups times (keeping
// the last) and runs the warm-up segment. The script covers the warm-up,
// seconds of closed loop and extraOps further operations.
func prepare(w *workload, sc scale, seed int64, seconds float64, extraOps int, t *tracer) (*prepared, error) {
	warm := sc.warmup(seconds)
	s := newScript(w, seed, sc.records(w), sc.timedOps(w, warm)+sc.timedOps(w, seconds)+extraOps/clients)
	root, err := runDir(w.name)
	if err != nil {
		return nil, err
	}
	p := &prepared{s: s, root: root}
	ttlStart := time.Duration(warm * float64(time.Second))
	ttlWindow := time.Duration(0.8 * seconds * float64(time.Second))
	for k := 0; k < sc.setups; k++ {
		dir := filepath.Join(root, fmt.Sprintf("setup-%d", k))
		st, took, err := setUp(w, s, dir, t, ttlStart, ttlWindow)
		if err != nil {
			os.RemoveAll(root)
			return nil, fmt.Errorf("set-up %d: %w", k, err)
		}
		p.setups = append(p.setups, took)
		if k < sc.setups-1 {
			err := st.Close()
			os.RemoveAll(dir)
			if err != nil {
				os.RemoveAll(root)
				return nil, fmt.Errorf("closing set-up %d: %w", k, err)
			}
			continue
		}
		p.st = st
		p.ttlOver = time.Now().Add(ttlStart + ttlWindow + ttlSlack)
	}
	for c := 0; c < clients; c++ {
		p.runs = append(p.runs, newClientRun(s.ops[c]))
	}
	if warm > 0 {
		runClosed(p.st.db, s.tab, p.runs, sc.timedOps(w, warm), giveUp(warm))
	}
	return p, nil
}

func (p *prepared) cleanup() {
	if p.st != nil {
		p.st.Close()
	}
	os.RemoveAll(p.root)
}

// settleChunk is how many settle ops each client runs between two looks at
// the compaction counter.
const settleChunk = 128

// compactions reads the registry counter that steps each time w's store
// finishes compacting its log (an AOF rewrite, a WAL checkpoint).
func compactions(w *workload) int64 {
	return obs.Default().Snapshot(false).Counter(w.compacted)
}

// settle has each client rewrite one record's data over and over, untimed,
// until the store next finishes compacting its log. Where in that cycle a
// run stops decides how much log a restart replays — recovery_s swung by a
// factor of three between seeds — so every run stops at the same point of
// it: just after a compaction. since is the counter before the timed phase:
// a store that did not compact during it is not cycling, and a run that gave
// up before the end of its script has no settle segment to run.
func (p *prepared) settle(w *workload, since int64) {
	if w.compacted == "" {
		return
	}
	for _, c := range p.runs {
		if c.next != p.s.settleFrom {
			return
		}
	}
	start := compactions(w)
	if start == since {
		return
	}
	for p.runs[0].next < len(p.runs[0].ops) && compactions(w) == start {
		runClosed(p.st.db, p.s.tab, p.runs, settleChunk, giveUp(1))
	}
}

// failures sums what went wrong on the clients so far.
func (p *prepared) failures() (failed int, first error) {
	for _, c := range p.runs {
		failed += c.errs + c.mismatches
		if first == nil {
			first = c.firstErr
		}
	}
	return failed, first
}

func (p *prepared) executed() int {
	n := 0
	for _, c := range p.runs {
		n += c.next
	}
	return n
}

// runE2E is one untraced run of w: set-up, warm-up, the closed-loop timed
// phase, then space, memory, the output oracle and recovery.
func runE2E(w *workload, sc scale, seed int64, seconds float64) (result, runInfo, error) {
	p, err := prepare(w, sc, seed, seconds, 0, nil)
	if err != nil {
		return result{}, runInfo{}, err
	}
	defer p.cleanup()
	compacted := compactions(w)
	timed := runClosed(p.st.db, p.s.tab, p.runs, sc.timedOps(w, seconds), giveUp(seconds))
	pointP50, points := timed.latency(classPoint, 0.50)
	pointP95, _ := timed.latency(classPoint, 0.95)
	selectorP50, selectors := timed.latency(classSelector, 0.50)
	selectorP99, _ := timed.latency(classSelector, 0.99)
	if points == 0 || selectors == 0 {
		return result{}, runInfo{}, fmt.Errorf("timed phase ran %d point and %d selector ops: nothing to report", points, selectors)
	}
	space, err := p.st.db.SpaceUsage()
	if err != nil {
		return result{}, runInfo{}, fmt.Errorf("space usage: %w", err)
	}
	rss, err := rssPeakBytes()
	if err != nil {
		return result{}, runInfo{}, err
	}

	p.settle(w, compacted)

	// Output oracle, before and after a restart.
	if d := time.Until(p.ttlOver); d > 0 && len(p.s.ds.volatile()) > 0 {
		time.Sleep(d)
	}
	models := finalModels(w, p.s, p.runs)
	or := newOracle(p.s, models, seed, 1000)
	bad, firstBad := or.verify(p.st.db)
	probe := liveKey(p.s, models)
	if probe == "" {
		return result{}, runInfo{}, fmt.Errorf("the scripts erased every record: nothing to probe recovery with")
	}
	var reopens []time.Duration
	var spent time.Duration
	for r := 0; r < sc.reopens || (spent < sc.restartFor && r < 3*sc.reopens); r++ {
		d, err := p.st.reopen(probe, p.s.ds.recs)
		if err != nil {
			return result{}, runInfo{}, fmt.Errorf("recovery %d: %w", r, err)
		}
		reopens = append(reopens, d)
		spent += d
	}
	after := or
	if !w.persists() {
		// Nothing was ever on disk: what must be back is what was loaded
		// again, not what the run wrote.
		after = newOracle(p.s, finalModels(w, p.s, nil), seed, 1000)
	}
	bad2, firstBad2 := after.verify(p.st.db)
	if firstBad == nil && firstBad2 != nil {
		firstBad = fmt.Errorf("after restart: %w", firstBad2)
	}

	failed, first := p.failures()
	if first == nil {
		first = firstBad
	}
	failed += bad + bad2
	res := result{
		Correct:   failed == 0,
		Attempted: p.executed() + len(or.keys) + len(after.keys),
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":         {medianDuration(p.setups).Seconds(), "s"},
			"ops_per_s":       {timed.opsPerSec(), "ops/s"},
			"point_p50_us":    {pointP50 / 1e3, "us"},
			"point_p95_us":    {pointP95 / 1e3, "us"},
			"selector_p50_us": {selectorP50 / 1e3, "us"},
			"selector_p99_us": {selectorP99 / 1e3, "us"},
			"space_factor":    {space.Factor(), "x"},
			"rss_peak_mb":     {float64(rss) / (1 << 20), "MB"},
			"recovery_s":      {medianDuration(reopens).Seconds(), "s"},
		},
	}
	info := runInfo{ScriptSHA256: p.s.sha256, Ops: timed.ops, WallS: timed.wall.Seconds()}
	if first != nil {
		info.FirstFailure = first.Error()
	}
	return res, info, nil
}
