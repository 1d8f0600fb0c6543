package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 < q ≤ 1) of xs by nearest rank:
// the smallest sample with at least q of the samples at or below it.
// xs is sorted in place; an empty xs gives 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	return xs[rank]
}

// median is the 0.5 percentile.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// goodput counts correct responses that arrived within limit of their
// due time, per second of the phase's measured window: from the first
// due time to the last response.
func goodput(rs []result, limit time.Duration) float64 {
	var window time.Duration
	good := 0
	for _, r := range rs {
		if end := r.due + r.lat; end > window {
			window = end
		}
		if r.out == outOK && r.lat <= limit {
			good++
		}
	}
	if window <= 0 {
		return 0
	}
	return float64(good) / window.Seconds()
}

// interval is a half-open time range [lo, hi) in nanoseconds.
type interval struct{ lo, hi int64 }

// covered returns how much of [lo, hi) the union of ivs covers. ivs is
// sorted in place.
func covered(lo, hi int64, ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	cur := lo // everything before cur is already counted or outside
	for _, iv := range ivs {
		a, b := max(iv.lo, cur), min(iv.hi, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it that its children
// cover: the time the layer spent on its own work.
func selfTime(parent interval, children []interval) int64 {
	return parent.hi - parent.lo - covered(parent.lo, parent.hi, children)
}

// ms, us and mb convert to the units the metrics are printed in.
func ms(ns float64) float64    { return ns / 1e6 }
func us(ns float64) float64    { return ns / 1e3 }
func mb(bytes float64) float64 { return bytes / (1 << 20) }
