package obs

import (
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/stats"
)

// windowDur is the rotation period of a histogram's recency window. Each
// histogram keeps, besides its cumulative buckets, the current and the last
// completed window; WindowCount in a snapshot is the completed window's
// observation count, so a scraper can tell "hot right now" from "was hot
// once". Rotation is lazy — driven by the registry clock on observe and
// snapshot, never by a background goroutine — which keeps the histogram
// usable (and testable) under a frozen simulated clock.
const windowDur = 10 * time.Second

// Histogram is a concurrency-safe log-bucketed value histogram with a
// cumulative view plus lazily rotated recency windows. Values are unitless
// int64s — latency callers record nanoseconds, size callers record ops or
// bytes; the series name carries the unit suffix. The buckets are a
// stats.Histogram (so percentiles agree with the benchmark reports); a
// window is only ever asked for its observation count, so it is a counter.
type Histogram struct {
	clk clock.Clock
	cum *stats.Histogram

	winMu     sync.Mutex
	winEpoch  int64
	cur, prev int64 // observations in the current / last completed window
}

func newHistogram(clk clock.Clock) *Histogram {
	return &Histogram{clk: clk, cum: stats.NewHistogram()}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.cum.Record(time.Duration(v))
	epoch := h.epochNow()
	h.winMu.Lock()
	h.rotateLocked(epoch)
	h.cur++
	h.winMu.Unlock()
}

// ObserveDuration records a latency in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

func (h *Histogram) epochNow() int64 {
	return h.clk.Now().UnixNano() / int64(windowDur)
}

// rotateLocked advances the windows to epoch: the current window becomes
// the completed one when exactly one period elapsed, or is discarded along
// with the previous window after an idle gap.
func (h *Histogram) rotateLocked(epoch int64) {
	if epoch == h.winEpoch {
		return
	}
	h.prev = 0
	if epoch == h.winEpoch+1 {
		h.prev = h.cur
	}
	h.cur = 0
	h.winEpoch = epoch
}

// Count returns the cumulative observation count.
func (h *Histogram) Count() int64 { return h.cum.Count() }

// stat summarizes the histogram for a snapshot, rotating windows first so
// WindowCount always describes a completed period.
func (h *Histogram) stat() HistStat {
	epoch := h.epochNow()
	h.winMu.Lock()
	h.rotateLocked(epoch)
	window := h.prev
	h.winMu.Unlock()

	return HistStat{
		Count:       h.cum.Count(),
		Sum:         int64(h.cum.Sum()),
		Min:         int64(h.cum.Min()),
		Max:         int64(h.cum.Max()),
		P50:         int64(h.cum.Percentile(50)),
		P95:         int64(h.cum.Percentile(95)),
		P99:         int64(h.cum.Percentile(99)),
		WindowCount: window,
	}
}
