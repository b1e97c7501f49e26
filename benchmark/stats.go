package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// Metric is one reported number. Timings report their median as Value and
// the highest percentile that still has at least ten samples beyond it as
// Tail/TailValue; counts report the exact value with N = 1.
type Metric struct {
	Name      string  `json:"name"`
	Unit      string  `json:"unit"`
	Value     float64 `json:"value"`
	Tail      string  `json:"tail,omitempty"`
	TailValue float64 `json:"tail_value,omitempty"`
	N         int     `json:"n"`
}

// findMetric looks a metric up by name in the lists, in order.
func findMetric(name string, lists ...[]Metric) (Metric, bool) {
	for _, l := range lists {
		for _, m := range l {
			if m.Name == name {
				return m, true
			}
		}
	}
	return Metric{}, false
}

// samples collects one timing series in a caller-chosen unit.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

// addDur records d as microseconds.
func (s *samples) addDur(d time.Duration) { s.add(us(d)) }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func sorted(s samples) samples {
	out := append(samples(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile reads the q-quantile of an ascending series by linear
// interpolation; it is 0 for an empty series.
func quantile(asc samples, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	pos := q * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

func median(s samples) float64 { return quantile(sorted(s), 0.5) }

// tails are the percentiles a timing may report beside its median, highest
// first.
var tails = []struct {
	label string
	q     float64
}{{"p99.9", 0.999}, {"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}, {"p75", 0.75}}

// timing summarizes a series as a Metric.
func timing(name, unit string, s samples) Metric {
	asc := sorted(s)
	m := Metric{Name: name, Unit: unit, Value: quantile(asc, 0.5), N: len(asc)}
	for _, t := range tails {
		if float64(len(asc))*(1-t.q) >= 10 {
			m.Tail, m.TailValue = t.label, quantile(asc, t.q)
			break
		}
	}
	return m
}

// count reports an exact or single-sample value.
func count(name, unit string, v float64) Metric {
	return Metric{Name: name, Unit: unit, Value: v, N: 1}
}

// spread is the interquartile range of a series as a share of its median,
// with the same quartile definition as Python's statistics.quantiles
// (exclusive method), which the driver's acceptance check uses.
func spread(s samples) float64 {
	asc := sorted(s)
	n := len(asc)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return asc[j-1] + (asc[j]-asc[j-1])*d
	}
	med := quantile(asc, 0.5)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// memMark is a runtime.MemStats reading taken at a phase boundary.
type memMark struct{ m runtime.MemStats }

func markMem() memMark {
	var mm memMark
	runtime.ReadMemStats(&mm.m)
	return mm
}

// runtimeMetrics reports allocation and GC cost between two marks per
// operation, and the live heap after a forced collection.
func runtimeMetrics(before, after memMark, ops int64) []Metric {
	if ops < 1 {
		ops = 1
	}
	return []Metric{
		count("runtime.allocs_per_op", "count", float64(after.m.Mallocs-before.m.Mallocs)/float64(ops)),
		count("runtime.bytes_per_op", "B", float64(after.m.TotalAlloc-before.m.TotalAlloc)/float64(ops)),
		count("runtime.gc_pause_ms", "ms", float64(after.m.PauseTotalNs-before.m.PauseTotalNs)/1e6),
	}
}

// liveHeapMB forces a collection and reads what survived it.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
