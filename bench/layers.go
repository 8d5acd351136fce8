package main

import (
	"bufio"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// perLayer lists the per-layer metrics in report order with their units:
// the 70 the traced run derives layer by layer, then the five end-to-end
// figures that cannot sit on the end-to-end list (see endToEnd).
var perLayer = buildPerLayer()

func buildPerLayer() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(name, unit string) { out = append(out, struct{ name, unit string }{name, unit}) }
	for _, l := range layerNames {
		add(l+".calls", "count")
		add(l+".us_mean", "us")
		add(l+".self_us_mean", "us")
		add(l+".self_share", "ratio")
		add(l+".errors", "count")
	}
	for _, p := range phaseNames {
		add("core.phase_"+p+"_us_mean", "us")
	}
	add("audit.entries_per_op", "1/op")
	add("audit.entries_per_batch", "count")
	add("audit.flushes_per_kop", "1/kop")
	add("audit.bytes_per_op", "B/op")
	add("audit.queue_depth_max", "count")
	add("audit.query_us_mean", "us")
	add("kvstore.aof_ops_per_batch", "count")
	add("kvstore.aof_fsyncs_per_kop", "1/kop")
	add("kvstore.aof_fsync_us_mean", "us")
	add("kvstore.aof_bytes_per_op", "B/op")
	add("kvstore.aof_rewrites", "count")
	add("kvstore.aof_rewrite_ms_mean", "ms")
	add("kvstore.lock_contention_per_kop", "1/kop")
	add("kvstore.full_scans", "count")
	add("kvstore.replay_us_per_record", "us")
	add("index.bytes_per_record", "B")
	add("relstore.scans_per_kop", "1/kop")
	add("relstore.wal_checkpoints", "count")
	add("relstore.wal_checkpoint_ms_mean", "ms")
	add("relstore.recovery_us_per_record", "us")
	add("wal.fsyncs_per_kop", "1/kop")
	add("wal.fsync_us_mean", "us")
	add("wal.lsns_per_commit", "count")
	add("wal.bytes_per_op", "B/op")
	add("securefs.write_amp_x", "x")
	add("server.frames_per_op", "1/op")
	add("server.pipeline_depth_mean", "count")
	add("server.cursors_open_end", "count")
	add("wire.bytes_per_op", "B/op")
	add("wire.encode_ns_per_frame", "ns")
	add("wire.decode_ns_per_frame", "ns")
	add("shard.fanout_mean", "count")
	add("shard.selector_overhead_x", "x")
	add("bench.trace_overhead_share", "ratio")
	add("bench.residual_share", "ratio")
	add("bench.sched_lag_p99_us", "us")
	add("bench.cpu_us_per_op", "us")
	add("bench.allocs_per_op", "1/op")
	add("bench.alloc_bytes_per_op", "B/op")
	add("bench.gc_pause_ms", "ms")
	add("bench.fail_share", "ratio")
	add("bench.point_p99_us", "us")
	add("bench.open_p99_us_r1", "us")
	add("bench.open_p99_us_r2", "us")
	add("bench.max_rate_ok", "ops/s")
	return out
}

// ---------------------------------------------------------------------------
// Span analysis

// stackLayers lists the layers a stack's ops cross, outermost first.
func stackLayers(k stackKind) []layer {
	switch k {
	case stackKV:
		return []layer{layerCore, layerKvstore}
	case stackPG:
		return []layer{layerCore, layerRelstore}
	case stackShard:
		return []layer{layerCore, layerShard, layerKvstore}
	}
	return []layer{layerRemote, layerCore, layerKvstore}
}

// layerStat sums one layer's spans.
type layerStat struct {
	calls  int
	errors int
	sumNs  int64
	selfNs int64
}

// linkSpans orders spans by op and start and sets each one's parent: the
// span one layer out, of the same op, whose interval contains it. One op
// is in flight at a time, so containment is unambiguous.
func linkSpans(spans []span, layers []layer) {
	sort.Slice(spans, func(a, b int) bool {
		if spans[a].op != spans[b].op {
			return spans[a].op < spans[b].op
		}
		if spans[a].start != spans[b].start {
			return spans[a].start < spans[b].start
		}
		return spans[a].layer < spans[b].layer
	})
	outer := map[layer]layer{}
	for i := 1; i < len(layers); i++ {
		outer[layers[i]] = layers[i-1]
	}
	for lo := 0; lo < len(spans); {
		hi := lo
		for hi < len(spans) && spans[hi].op == spans[lo].op {
			hi++
		}
		for i := lo; i < hi; i++ {
			want, ok := outer[spans[i].layer]
			if !ok {
				continue
			}
			for j := lo; j < hi; j++ {
				if spans[j].layer == want && spans[j].start <= spans[i].start && spans[i].end <= spans[j].end {
					spans[i].parent = int32(j)
					break
				}
			}
		}
		lo = hi
	}
}

// selfTimes returns each span's duration minus the part of it its child
// spans cover (children may overlap one another: router fan-out).
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i := range spans {
		if p := spans[i].parent; p >= 0 {
			children[p] = append(children[p], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] = spans[i].end - spans[i].start
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		var covered, until int64
		until = spans[i].start
		for _, k := range kids {
			s, e := max(spans[k].start, until), spans[k].end
			if e > s {
				covered += e - s
				until = e
			}
		}
		self[i] -= covered
	}
	return self
}

// blockingTime splits the wall-clock time of every op among the layers:
// each instant goes to the innermost layer with a span open. Unlike
// summed self times it counts parallel siblings (router fan-out) once, so
// the layers' shares add up to the outermost spans' total. spans must be
// sorted by op (linkSpans does it).
func blockingTime(spans []span, layers []layer) [numLayers]int64 {
	var out [numLayers]int64
	depth := map[layer]int{}
	for i, l := range layers {
		depth[l] = i
	}
	type edge struct {
		at    int64
		depth int
		open  bool
	}
	var edges []edge
	for lo := 0; lo < len(spans); {
		hi := lo
		edges = edges[:0]
		for ; hi < len(spans) && spans[hi].op == spans[lo].op; hi++ {
			d := depth[spans[hi].layer]
			edges = append(edges, edge{spans[hi].start, d, true}, edge{spans[hi].end, d, false})
		}
		sort.Slice(edges, func(a, b int) bool { return edges[a].at < edges[b].at })
		open := make([]int, len(layers))
		for i, e := range edges {
			if i > 0 {
				for d := len(layers) - 1; d >= 0; d-- {
					if open[d] > 0 {
						out[layers[d]] += e.at - edges[i-1].at
						break
					}
				}
			}
			if e.open {
				open[e.depth]++
			} else {
				open[e.depth]--
			}
		}
		lo = hi
	}
	return out
}

// traceSummary is what the traced run's spans say.
type traceSummary struct {
	layers   [numLayers]layerStat
	blocking [numLayers]int64 // see blockingTime
	topNs    int64            // sum of outermost-layer span durations
	// GetSystemLogs spans at the core boundary: the audit query path.
	auditQueryNs, auditQueries int64
	// Engine selector resolutions at the relstore boundary.
	relstoreSelectors int
	// Router fan-out: child spans per router span, and selector spans of
	// the router and of its children.
	routerSpans, routerChildren                    int
	routerSelNs, routerSels, childSelNs, childSels int64
}

func summarize(spans []span, layers []layer) traceSummary {
	var ts traceSummary
	linkSpans(spans, layers)
	self := selfTimes(spans)
	ts.blocking = blockingTime(spans, layers)
	for i := range spans {
		s := &spans[i]
		d := s.end - s.start
		st := &ts.layers[s.layer]
		st.calls++
		st.sumNs += d
		st.selfNs += self[i]
		if s.failed {
			st.errors++
		}
		if s.layer == layers[0] {
			ts.topNs += d
		}
		switch {
		case s.layer == layerCore && s.method == mGetSystemLogs:
			ts.auditQueryNs += d
			ts.auditQueries++
		case s.layer == layerRelstore && s.selector:
			ts.relstoreSelectors++
		case s.layer == layerShard:
			ts.routerSpans++
			if s.selector {
				ts.routerSelNs += d
				ts.routerSels++
			}
		case s.layer == layerKvstore && s.parent >= 0 && spans[s.parent].layer == layerShard:
			ts.routerChildren++
			if s.selector {
				ts.childSelNs += d
				ts.childSels++
			}
		}
	}
	return ts
}

// writeSpans dumps spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var b []byte
	for i := range spans {
		s := &spans[i]
		b = append(b[:0], `{"op_id":`...)
		b = strconv.AppendUint(b, uint64(s.op), 10)
		b = append(b, `,"span":`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `,"layer":"`...)
		b = append(b, layerNames[s.layer]...)
		b = append(b, `","method":"`...)
		b = append(b, methodNames[s.method]...)
		b = append(b, `","class":"`...)
		b = append(b, classNames[s.class]...)
		b = append(b, `","start_ns":`...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, int64(s.parent), 10)
		b = append(b, "}\n"...)
		if _, err := w.Write(b); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---------------------------------------------------------------------------
// Counters read from outside

// histDelta is a registry histogram's growth between two snapshots.
type histDelta struct{ count, sum int64 }

func (h histDelta) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// regDelta is the growth of the process-wide obs registry over a phase.
type regDelta struct{ before, after obs.Snapshot }

func (d regDelta) counter(name string) float64 {
	return float64(d.after.Counter(name) - d.before.Counter(name))
}

func (d regDelta) hist(name string) histDelta {
	a, b := d.after.Hists[name], d.before.Hists[name]
	return histDelta{count: a.Count - b.Count, sum: a.Sum - b.Sum}
}

// histsWithPrefix sums every histogram whose series name starts with
// prefix (the per-op latency family).
func (d regDelta) histsWithPrefix(prefix string) histDelta {
	var out histDelta
	for name := range d.after.Hists {
		if strings.HasPrefix(name, prefix) {
			h := d.hist(name)
			out.count += h.count
			out.sum += h.sum
		}
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// growthMeter watches a data directory and adds up how many bytes were
// appended to its files. Logs shrink when they are rewritten or
// checkpointed, so a before/after size difference would undercount; the
// meter samples sizes every growthPeriod and sums the positive steps per
// file, missing at most one period's appends at each truncation.
type growthMeter struct {
	root   string
	sizes  map[string]int64
	grown  map[string]int64 // by file base name
	stop   chan struct{}
	done   sync.WaitGroup
	mu     sync.Mutex
	failed error
}

const growthPeriod = 25 * time.Millisecond

func startGrowthMeter(root string) *growthMeter {
	g := &growthMeter{root: root, sizes: map[string]int64{}, grown: map[string]int64{}, stop: make(chan struct{})}
	g.sample(true)
	g.done.Add(1)
	go func() {
		defer g.done.Done()
		tick := time.NewTicker(growthPeriod)
		defer tick.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-tick.C:
				g.sample(false)
			}
		}
	}()
	return g
}

func (g *growthMeter) sample(first bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	seen := map[string]bool{}
	err := filepath.WalkDir(g.root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // files vanish mid-walk when a rewrite renames them
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		seen[path] = true
		size := info.Size()
		if prev, ok := g.sizes[path]; !first && (!ok || size > prev) {
			g.grown[filepath.Base(path)] += size - prev
		}
		g.sizes[path] = size
		return nil
	})
	if err != nil && g.failed == nil {
		g.failed = err
	}
	for path := range g.sizes {
		if !seen[path] {
			delete(g.sizes, path)
		}
	}
}

// finish stops sampling and returns bytes appended to files whose base
// name starts with prefix ("" = every file).
func (g *growthMeter) finish() (func(prefix string) float64, error) {
	close(g.stop)
	g.done.Wait()
	g.sample(false)
	return func(prefix string) float64 {
		var n int64
		for name, b := range g.grown {
			if strings.HasPrefix(name, prefix) {
				n += b
			}
		}
		return float64(n)
	}, g.failed
}
