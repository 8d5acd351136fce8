package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending-sorted sample: the smallest value with at least p of the
// sample at or below it. An empty sample yields 0.
func percentile(sorted []int64, p float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// quartiles returns (q1, median, q3) exactly as Python's
// statistics.quantiles(values, n=4) computes them (the default
// "exclusive" method), so spreads printed by -compare match the ones the
// acceptance driver derives from the same values. It needs two values;
// with fewer it returns the single value three times.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	n := len(data)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return data[0], data[0], data[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadShare is the interquartile distance as a share of the median —
// the run-to-run spread the bounds in BENCHMARK.json are compared with.
func spreadShare(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

func medianOf(values []float64) float64 {
	_, q2, _ := quartiles(values)
	return q2
}

// dueLatency is the open-loop latency of one operation: time from when it
// was due, not from when the generator got to it, so a stall's queueing
// delay is charged to every operation it held up.
func dueLatency(dueNs, doneNs int64) int64 { return doneNs - dueNs }

// dueTime is operation j's scheduled arrival on a client that owns every
// clients-th slot of a schedule running at rate ops/s overall.
func dueTime(j, client, clients int, rate float64) int64 {
	slot := float64(j*clients + client)
	return int64(slot / rate * 1e9)
}
