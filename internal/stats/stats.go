// Package stats provides the measurement layer of the benchmark runtime:
// log-bucketed latency histograms, per-operation accumulators, and run
// summaries (throughput, completion time, percentiles). It mirrors the role
// of YCSB's Status/Measurements engine.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// bucketCount covers latencies from 1ns to ~18h in ~4% geometric steps.
const (
	bucketsPerDecade = 58 // ≈ 4.05% per step
	bucketCount      = 14 * bucketsPerDecade
)

// Histogram is a fixed-size log-bucketed histogram, safe for concurrent
// use without a lock: every field is an atomic, so Record costs a handful
// of uncontended atomic adds. It is the one bucket implementation of the
// repo — the benchmark reports read it directly and internal/obs builds
// its windowed metric histograms out of several. A reader racing writers
// sees each field at some recent value, not one consistent cut; reports
// read after the run has finished.
type Histogram struct {
	buckets [bucketCount]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // MaxInt64 when empty
	max     atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

func bucketFor(d time.Duration) int {
	if d < 1 {
		d = 1
	}
	b := int(math.Log10(float64(d)) * bucketsPerDecade)
	if b < 0 {
		b = 0
	}
	if b >= bucketCount {
		b = bucketCount - 1
	}
	return b
}

func bucketValue(b int) time.Duration {
	return time.Duration(math.Pow(10, float64(b)/bucketsPerDecade))
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketFor(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	h.widen(int64(d), int64(d))
}

// widen stretches the observed range to include [lo, hi].
func (h *Histogram) widen(lo, hi int64) {
	for {
		cur := h.min.Load()
		if lo >= cur || h.min.CompareAndSwap(cur, lo) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if hi <= cur || h.max.CompareAndSwap(cur, hi) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Mean returns the average observation, or 0 if empty.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Min returns the smallest observation, or 0 if empty.
func (h *Histogram) Min() time.Duration {
	if h.count.Load() == 0 {
		return 0
	}
	return time.Duration(h.min.Load())
}

// Max returns the largest observation, or 0 if empty.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Percentile returns the approximate p-th percentile (p in [0,100]).
func (h *Histogram) Percentile(p float64) time.Duration {
	count := h.count.Load()
	if count == 0 {
		return 0
	}
	lo, hi := time.Duration(h.min.Load()), time.Duration(h.max.Load())
	if p <= 0 {
		return lo
	}
	if p >= 100 {
		return hi
	}
	rank := int64(math.Ceil(p / 100 * float64(count)))
	var seen int64
	for b := range h.buckets {
		seen += h.buckets[b].Load()
		if seen >= rank {
			return min(max(bucketValue(b), lo), hi)
		}
	}
	return hi
}

// Merge adds all observations of other into h.
func (h *Histogram) Merge(other *Histogram) {
	n := other.count.Load()
	if n == 0 {
		return
	}
	for b := range other.buckets {
		if c := other.buckets[b].Load(); c != 0 {
			h.buckets[b].Add(c)
		}
	}
	h.count.Add(n)
	h.sum.Add(other.sum.Load())
	h.widen(other.min.Load(), other.max.Load())
}

// OpStats accumulates results for a single operation type.
type OpStats struct {
	Latency *Histogram
	okCount int64
	errs    int64
	mu      sync.Mutex
}

// NewOpStats returns empty per-operation stats.
func NewOpStats() *OpStats { return &OpStats{Latency: NewHistogram()} }

// RecordOK records a successful operation with its latency.
func (o *OpStats) RecordOK(d time.Duration) {
	o.Latency.Record(d)
	o.mu.Lock()
	o.okCount++
	o.mu.Unlock()
}

// RecordErr records a failed operation with its latency.
func (o *OpStats) RecordErr(d time.Duration) {
	o.Latency.Record(d)
	o.mu.Lock()
	o.errs++
	o.mu.Unlock()
}

// OK returns the number of successful operations.
func (o *OpStats) OK() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.okCount
}

// Errors returns the number of failed operations.
func (o *OpStats) Errors() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.errs
}

// Run collects measurements for one benchmark run: per-op histograms plus
// overall wall-clock completion time. It is safe for concurrent use.
type Run struct {
	mu    sync.Mutex
	ops   map[string]*OpStats
	start time.Time
	wall  time.Duration
}

// NewRun returns an empty run accumulator.
func NewRun() *Run { return &Run{ops: make(map[string]*OpStats)} }

// Start marks the beginning of the measured interval.
func (r *Run) Start(now time.Time) {
	r.mu.Lock()
	r.start = now
	r.mu.Unlock()
}

// Finish marks the end of the measured interval.
func (r *Run) Finish(now time.Time) {
	r.mu.Lock()
	r.wall = now.Sub(r.start)
	r.mu.Unlock()
}

// Op returns (creating if necessary) the accumulator for op name.
func (r *Run) Op(name string) *OpStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	o, ok := r.ops[name]
	if !ok {
		o = NewOpStats()
		r.ops[name] = o
	}
	return o
}

// WallTime returns the measured completion time of the run.
func (r *Run) WallTime() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wall
}

// SetWallTime overrides the measured interval; used when an external clock
// (e.g. clock.Sim) owns time.
func (r *Run) SetWallTime(d time.Duration) {
	r.mu.Lock()
	r.wall = d
	r.mu.Unlock()
}

// TotalOps returns the number of operations recorded, successes + errors.
func (r *Run) TotalOps() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, o := range r.ops {
		n += o.OK() + o.Errors()
	}
	return n
}

// TotalErrors returns the number of failed operations recorded.
func (r *Run) TotalErrors() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, o := range r.ops {
		n += o.Errors()
	}
	return n
}

// Throughput returns operations per second over the measured wall time.
func (r *Run) Throughput() float64 {
	w := r.WallTime()
	if w <= 0 {
		return 0
	}
	return float64(r.TotalOps()) / w.Seconds()
}

// OpNames returns the recorded operation names, sorted.
func (r *Run) OpNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.ops))
	for k := range r.ops {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Summary renders a YCSB-style text report.
func (r *Run) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[OVERALL] RunTime %v\n", r.WallTime())
	fmt.Fprintf(&b, "[OVERALL] Throughput %.1f ops/sec\n", r.Throughput())
	for _, name := range r.OpNames() {
		o := r.Op(name)
		fmt.Fprintf(&b, "[%s] ok=%d err=%d avg=%v p50=%v p95=%v p99=%v max=%v\n",
			name, o.OK(), o.Errors(), o.Latency.Mean(),
			o.Latency.Percentile(50), o.Latency.Percentile(95),
			o.Latency.Percentile(99), o.Latency.Max())
	}
	return b.String()
}
