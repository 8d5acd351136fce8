package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wire"
)

// spansDir is where the traced run leaves its spans, one file per
// workload. It sits in the build scratch area so the benchmark's own
// directory holds sources only.
var spansDir = filepath.Join(".bench_build", "out")

// The traced run rotates through three configurations, a block of ops
// each, so that all see the same mix of ops and the same stage of the
// store's evolving state:
//
//	blockPlain   the end-to-end configuration — the baseline of the overhead
//	blockSpans   the span decorators on — their cost is the tracing overhead
//	blockBoth    the decorators on and the middleware's own phase sampler
//	             armed at every op: two instruments on the same ops, whose
//	             disagreement at the core boundary is the residual
type blockMode int

const (
	blockPlain blockMode = iota
	blockSpans
	blockBoth
	numBlockModes
)

// traceBlock is how many consecutive ops run in one configuration: short
// enough for the run to hold some ten blocks of each.
func traceBlock(ops int) int { return max(50, min(1000, ops/(10*int(numBlockModes)))) }

var phaseNames = [...]string{"validate", "acl", "transit", "engine", "audit"}

// counts is what the untraced two-client run of the traced invocation
// measures from outside: registry, file-size, rusage and MemStats deltas,
// taken where group-commit batching is real.
type counts struct {
	ops         int
	reg         regDelta
	grown       func(prefix string) float64
	personal    float64 // personal-data bytes the executed ops wrote
	cpu         time.Duration
	mem         [2]runtime.MemStats
	pointP99    int64 // ns, over every by-key op of the run
	indexBytes  float64
	liveRecords float64
	// After the restart that follows the run.
	replayUs, replayOps         float64
	recoveryUs, recoveryRecords float64
}

func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// personalBytes is the personal data ops[from:to] wrote, per the model's
// counts: one payload per created or rectified record.
func personalBytes(c *clientRun, t *tables, from, to int) float64 {
	n := 0
	for i := from; i < to; i++ {
		o := &c.ops[i]
		switch o.kind {
		case opCreate:
			n += len(t.creates[o.arg].Data)
		case opUpdateDataByKey:
			n += len(o.data) * int(max(o.want, 0))
		}
	}
	return float64(n)
}

// runCounts measures the untraced run and, on network stacks, the
// open-loop windows that follow it.
func runCounts(w *workload, sc scale, seed int64, seconds float64) (*counts, []openResult, *prepared, error) {
	// One set-up: setup_s belongs to the end-to-end run.
	one := sc
	one.setups = 1
	openOps := 0
	for _, rate := range w.openRates {
		openOps += int(rate*seconds) + clients
	}
	p, err := prepare(w, one, seed, seconds, openOps, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	c := &counts{}
	reg := obs.Default()
	meter := startGrowthMeter(p.st.dir)
	cpu0, err := cpuTime()
	if err != nil {
		p.cleanup()
		return nil, nil, nil, err
	}
	runtime.ReadMemStats(&c.mem[0])
	c.reg.before = reg.Snapshot(false)
	timed := runClosed(p.st.db, p.s.tab, p.runs, sc.timedOps(w, seconds), giveUp(seconds))
	c.reg.after = reg.Snapshot(false)
	runtime.ReadMemStats(&c.mem[1])
	cpu1, err := cpuTime()
	if err != nil {
		p.cleanup()
		return nil, nil, nil, err
	}
	c.grown, err = meter.finish()
	if err != nil {
		p.cleanup()
		return nil, nil, nil, err
	}
	c.ops, c.cpu = timed.ops, cpu1-cpu0
	c.pointP99 = percentile(timed.lat[classPoint], 0.99)
	for i, r := range p.runs {
		c.personal += personalBytes(r, p.s.tab, timed.from[i], timed.to[i])
	}
	c.indexBytes = float64(c.reg.after.Gauge("kvstore_index_bytes"))
	models := finalModels(w, p.s, p.runs)
	for _, m := range models {
		for _, mr := range m.recs {
			if mr.live {
				c.liveRecords++
			}
		}
	}

	var open []openResult
	for _, rate := range w.openRates {
		if rate > 0 {
			open = append(open, runOpen(p.st.db, p.s.tab, p.runs, rate, time.Duration(seconds*float64(time.Second))))
		}
	}

	// Restart once and read what replay cost (stores that have a log).
	if w.persists() {
		if _, err := p.st.reopen(liveKey(p.s, models), nil); err != nil {
			p.cleanup()
			return nil, nil, nil, fmt.Errorf("restart after counts run: %w", err)
		}
		snap := reg.Snapshot(false)
		c.replayUs, c.replayOps = float64(snap.Counter("kvstore_replay_us_total")), float64(snap.Counter("kvstore_replay_ops_total"))
		c.recoveryUs, c.recoveryRecords = float64(snap.Gauge("relstore_recovery_us")), float64(snap.Gauge("relstore_recovered_records"))
	}
	return c, open, p, nil
}

// traced is what the single-client traced run measures.
type traced struct {
	ops      int
	spanOps  int // of which with the decorators on
	summary  traceSummary
	dropped  int64
	overhead float64 // median op latency with the decorators on ÷ off − 1, per op kind, weighted by how often the kind ran
	// Over the blockBoth ops: what the phase sampler says an op spent in
	// each phase, and what the decorator at the core boundary says it took.
	phaseUs [len(phaseNames)]float64
	coreUs  float64
}

// runTraced executes client 0's script alone — one op in flight, so spans
// link to ops by time containment — switching configuration every block ops.
func runTraced(w *workload, sc scale, seed int64, seconds float64) (*traced, *prepared, error) {
	one := sc
	one.setups = 1
	ops := sc.timedOps(w, seconds)
	block := traceBlock(ops)
	tr := newTracer(ops*6 + 100_000)
	p, err := prepare(w, one, seed, seconds, 0, tr)
	if err != nil {
		return nil, nil, err
	}
	reg := obs.Default()
	defer reg.SetSampling(obs.DefaultSampling)
	c := p.runs[0]
	from := c.next
	modeOf := func(i int) blockMode { return blockMode((i - from) / block % int(numBlockModes)) }
	res := &traced{}
	var sampled regDelta // the registry's growth over the current blockBoth
	var sampledOps int64
	var phaseNs [len(phaseNames)]int64
	base := time.Now()
	upTo, limit := min(c.next+ops, len(c.ops)), int64(giveUp(seconds))
	mode := blockPlain
	setMode := func(m blockMode) {
		if mode == blockBoth {
			reg.SetSampling(obs.DefaultSampling)
			sampled.after = reg.Snapshot(false)
			sampledOps += sampled.histsWithPrefix("gdpr_op_latency_ns").count
			for i, ph := range phaseNames {
				phaseNs[i] += sampled.hist(`gdpr_phase_latency_ns{phase="` + ph + `"}`).sum
			}
		}
		mode = m
		tr.on.Store(m != blockPlain)
		if m == blockBoth {
			sampled.before = reg.Snapshot(false)
			reg.SetSampling(1)
		}
	}
	var samples [numBlockModes][numOpKinds][]int64 // latencies by configuration and kind
	now := int64(time.Since(base))
	for c.next < upTo && now < limit {
		if want := modeOf(c.next); want != mode {
			setMode(want)
			now = int64(time.Since(base)) // the switch is not part of the next op
		}
		o := &c.ops[c.next]
		tr.curOp.Store(uint32(c.next))
		tr.class.Store(uint32(o.kind.class()))
		got, err := exec(p.st.db, o, p.s.tab)
		done := int64(time.Since(base))
		c.lat[c.next] = done - now
		c.check(o, p.s.tab, got, err)
		samples[mode][o.kind] = append(samples[mode][o.kind], done-now)
		c.next++
		now = done
	}
	setMode(blockPlain)
	res.ops = c.next - from

	// Overhead: per op kind, median latency in the blockSpans ops against
	// the blockPlain ops, averaged over kinds by how often each ran. Blocks
	// hold different ops and kinds cost very different amounts, so a mean
	// over everything would mostly measure which side drew the large
	// selector results.
	var weighted, weight float64
	for k := range samples[blockPlain] {
		off, on := samples[blockPlain][k], samples[blockSpans][k]
		if len(off) == 0 || len(on) == 0 {
			continue
		}
		slices.Sort(off)
		slices.Sort(on)
		n := float64(len(off) + len(on))
		weighted += n * (ratio(float64(percentile(on, 0.5)), float64(percentile(off, 0.5))) - 1)
		weight += n
	}
	res.overhead = ratio(weighted, weight)

	spans, dropped := tr.spans()
	res.dropped = dropped
	var coreNs, coreCalls int64
	for i := range spans {
		if s := &spans[i]; s.layer == layerCore && modeOf(int(s.op)) == blockBoth {
			coreNs += s.end - s.start
			coreCalls++
		}
	}
	res.coreUs = ratio(float64(coreNs), float64(coreCalls)) / 1e3
	for i := range phaseNames {
		res.phaseUs[i] = ratio(float64(phaseNs[i]), float64(sampledOps)) / 1e3
	}
	for m := blockSpans; m < numBlockModes; m++ {
		for _, lat := range samples[m] {
			res.spanOps += len(lat)
		}
	}
	res.summary = summarize(spans, stackLayers(w.stack))
	if err := writeSpans(filepath.Join(spansDir, w.name+".spans.jsonl"), spans); err != nil {
		p.cleanup()
		return nil, nil, err
	}
	return res, p, nil
}

// wireCost encodes and decodes the frames a sample of the script's ops
// put on the wire — request and reply — by calling the codec directly,
// outside any timed run.
type wireCost struct {
	bytesPerOp, encodeNs, decodeNs float64
}

func measureWire(db core.DB, s *script, sample int) (wireCost, error) {
	var frames []wire.Message
	ops := s.ops[1] // client 1's script: the traced run used client 0's
	for i := 0; i < min(sample, len(ops)); i++ {
		o := &ops[i]
		a := s.tab.actors[o.actor]
		switch o.kind {
		case opReadDataByKey, opReadDataByUsr:
			recs, err := db.ReadData(a, o.selector())
			if err != nil {
				return wireCost{}, err
			}
			frames = append(frames, &wire.ReadData{Actor: a, Sel: o.selector()}, &wire.Records{Recs: wire.EncodeRecords(recs)})
		case opReadMetaByKey:
			recs, err := db.ReadMetadata(a, o.selector())
			if err != nil {
				return wireCost{}, err
			}
			frames = append(frames, &wire.ReadMetadata{Actor: a, Sel: o.selector()}, &wire.Records{Recs: wire.EncodeRecords(recs)})
		case opUpdateDataByKey:
			n, err := db.UpdateData(a, o.value, o.data)
			if err != nil {
				return wireCost{}, err
			}
			frames = append(frames, &wire.UpdateData{Actor: a, Key: o.value, Data: o.data}, &wire.Count{N: int64(n)})
		}
	}
	if len(frames) == 0 {
		return wireCost{}, nil
	}
	const rounds = 20
	var buf []byte
	encoded := make([][]byte, len(frames))
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for i, m := range frames {
			buf = wire.AppendEncode(buf[:0], m)
			if r == 0 {
				encoded[i] = append([]byte(nil), buf...)
			}
		}
	}
	enc := time.Since(t0)
	total := 0
	for _, b := range encoded {
		total += len(b)
	}
	var dec wire.Decoder
	var rd bytes.Reader
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for _, b := range encoded {
			rd.Reset(b)
			if _, err := dec.ReadMessage(&rd); err != nil {
				return wireCost{}, fmt.Errorf("decoding a frame the codec just encoded: %w", err)
			}
		}
	}
	decd := time.Since(t0)
	nf := float64(rounds * len(frames))
	return wireCost{
		bytesPerOp: float64(total) / float64(len(frames)/2),
		encodeNs:   float64(enc) / nf,
		decodeNs:   float64(decd) / nf,
	}, nil
}

// runTrace is the traced invocation of w: the untraced counts run, the
// open-loop windows (network stacks), the traced single-client run and the
// codec measurement, folded into the per-layer metric list.
func runTrace(w *workload, sc scale, seed int64, seconds float64) (result, runInfo, error) {
	// Both halves fit in the time one end-to-end run measures for.
	half := seconds / 2
	c, open, pc, err := runCounts(w, sc, seed, half)
	if err != nil {
		return result{}, runInfo{}, err
	}
	failedC, firstC := pc.failures()
	attempted := pc.executed()
	sha := pc.s.sha256
	pc.cleanup()

	tr, pt, err := runTraced(w, sc, seed, half)
	if err != nil {
		return result{}, runInfo{}, err
	}
	defer pt.cleanup()
	var wc wireCost
	if w.stack == stackNet {
		if wc, err = measureWire(pt.st.db, pt.s, 2000); err != nil {
			return result{}, runInfo{}, fmt.Errorf("wire codec measurement: %w", err)
		}
	}
	failedT, firstT := pt.failures()
	attempted += pt.executed()
	failed := failedC + failedT
	first := firstC
	if first == nil {
		first = firstT
	}
	if tr.dropped > 0 && first == nil {
		first = fmt.Errorf("span buffer overflowed: %d spans dropped", tr.dropped)
		failed++
	}

	m := map[string]float64{}
	ops, kops := float64(c.ops), float64(c.ops)/1000
	sum := tr.summary
	for l := layer(0); l < numLayers; l++ {
		st := sum.layers[l]
		name := layerNames[l]
		m[name+".calls"] = float64(st.calls)
		m[name+".us_mean"] = ratio(float64(st.sumNs), float64(st.calls)) / 1e3
		m[name+".self_us_mean"] = ratio(float64(st.selfNs), float64(st.calls)) / 1e3
		m[name+".self_share"] = ratio(float64(sum.blocking[l]), float64(sum.topNs))
		m[name+".errors"] = float64(st.errors)
	}
	var phaseSum float64
	for i, ph := range phaseNames {
		m["core.phase_"+ph+"_us_mean"] = tr.phaseUs[i]
		phaseSum += tr.phaseUs[i]
	}
	m["bench.residual_share"] = ratio(math.Abs(tr.coreUs-phaseSum), tr.coreUs)
	m["bench.trace_overhead_share"] = tr.overhead

	d := c.reg
	m["audit.entries_per_op"] = ratio(d.counter("audit_appended_total"), ops)
	m["audit.entries_per_batch"] = ratio(d.counter("audit_appended_total"), d.counter("audit_batches_total"))
	m["audit.flushes_per_kop"] = ratio(d.counter("audit_flushes_total"), kops)
	m["audit.bytes_per_op"] = ratio(d.counter("audit_bytes_total"), ops)
	m["audit.queue_depth_max"] = float64(d.after.Gauge("audit_max_queue_depth"))
	m["audit.query_us_mean"] = ratio(float64(sum.auditQueryNs), float64(sum.auditQueries)) / 1e3

	m["kvstore.aof_ops_per_batch"] = d.hist("kvstore_aof_batch_ops").mean()
	m["kvstore.aof_fsyncs_per_kop"] = ratio(float64(d.hist("kvstore_aof_fsync_ns").count), kops)
	m["kvstore.aof_fsync_us_mean"] = d.hist("kvstore_aof_fsync_ns").mean() / 1e3
	m["kvstore.aof_bytes_per_op"] = ratio(c.grown("redis.aof"), ops)
	m["kvstore.aof_rewrites"] = d.counter("kvstore_aof_rewrites_total")
	m["kvstore.aof_rewrite_ms_mean"] = d.hist("kvstore_aof_rewrite_duration_ns").mean() / 1e6
	m["kvstore.lock_contention_per_kop"] = ratio(d.counter("kvstore_lock_contention_total"), kops)
	m["kvstore.full_scans"] = d.counter("kvstore_full_scans_total")
	m["kvstore.replay_us_per_record"] = ratio(c.replayUs, c.replayOps)
	m["index.bytes_per_record"] = ratio(c.indexBytes, c.liveRecords)

	m["relstore.scans_per_kop"] = ratio(float64(sum.relstoreSelectors), float64(tr.spanOps)/1000)
	m["relstore.wal_checkpoints"] = d.counter("relstore_wal_checkpoints_total")
	m["relstore.wal_checkpoint_ms_mean"] = d.hist("relstore_wal_checkpoint_duration_ns").mean() / 1e6
	m["relstore.recovery_us_per_record"] = ratio(c.recoveryUs, c.recoveryRecords)
	m["wal.fsyncs_per_kop"] = ratio(float64(d.hist("wal_fsync_ns").count), kops)
	m["wal.fsync_us_mean"] = d.hist("wal_fsync_ns").mean() / 1e3
	m["wal.lsns_per_commit"] = d.hist("wal_group_commit_lsns").mean()
	m["wal.bytes_per_op"] = ratio(c.grown("postgres.wal"), ops)
	m["securefs.write_amp_x"] = ratio(c.grown(""), c.personal)

	m["server.frames_per_op"] = ratio(d.counter("server_frames_total"), ops)
	m["server.pipeline_depth_mean"] = d.hist("server_pipeline_depth").mean()
	m["server.cursors_open_end"] = float64(d.after.Gauge("server_cursors_open"))
	m["wire.bytes_per_op"] = wc.bytesPerOp
	m["wire.encode_ns_per_frame"] = wc.encodeNs
	m["wire.decode_ns_per_frame"] = wc.decodeNs

	m["shard.fanout_mean"] = ratio(float64(sum.routerChildren), float64(sum.routerSpans))
	m["shard.selector_overhead_x"] = ratio(ratio(float64(sum.routerSelNs), float64(sum.routerSels)), ratio(float64(sum.childSelNs), float64(sum.childSels)))

	m["bench.cpu_us_per_op"] = ratio(float64(c.cpu.Microseconds()), ops)
	m["bench.allocs_per_op"] = ratio(float64(c.mem[1].Mallocs-c.mem[0].Mallocs), ops)
	m["bench.alloc_bytes_per_op"] = ratio(float64(c.mem[1].TotalAlloc-c.mem[0].TotalAlloc), ops)
	m["bench.gc_pause_ms"] = float64(c.mem[1].PauseTotalNs-c.mem[0].PauseTotalNs) / 1e6
	m["bench.fail_share"] = ratio(float64(failed), float64(attempted))
	m["bench.point_p99_us"] = float64(c.pointP99) / 1e3
	m["bench.sched_lag_p99_us"], m["bench.open_p99_us_r1"], m["bench.open_p99_us_r2"], m["bench.max_rate_ok"] = 0, 0, 0, 0
	for i, o := range open {
		if i < 2 {
			m["bench.sched_lag_p99_us"] = max(m["bench.sched_lag_p99_us"], float64(o.lagP99)/1e3)
			m[fmt.Sprintf("bench.open_p99_us_r%d", i+1)] = float64(o.p99) / 1e3
		}
		// The highest rate that meets the limit with every lower rate
		// meeting it too: a pass above a fail is luck, not capacity.
		if o.ok && (i == 0 || m["bench.max_rate_ok"] == open[i-1].rate) {
			m["bench.max_rate_ok"] = o.rate
		}
	}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, pl := range perLayer {
		v, ok := m[pl.name]
		if !ok {
			return result{}, runInfo{}, fmt.Errorf("per-layer metric %s was never computed", pl.name)
		}
		res.Metrics[pl.name] = metric{v, pl.unit}
	}
	info := runInfo{ScriptSHA256: sha, Ops: c.ops + tr.ops}
	if first != nil {
		info.FirstFailure = first.Error()
	}
	return res, info, nil
}
