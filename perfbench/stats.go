package main

import (
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailPercentile returns the highest whole percentile, at most 99, that
// leaves at least minBeyond of n samples above it; 50 when even the
// median does not.
func tailPercentile(n int) int {
	for p := 99; p > 50; p-- {
		if n-rank(p, n) >= minBeyond {
			return p
		}
	}
	return 50
}

// rank is the one-based nearest-rank position of percentile p among n
// sorted samples.
func rank(p, n int) int {
	r := (p*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank percentile p of sorted, or 0 for
// no samples.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// summary is a sample's median and tail, with the percentile the tail
// was taken at.
type summary struct {
	n       int
	p50     float64
	tail    float64
	tailPct int
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pct := tailPercentile(len(s))
	return summary{n: len(s), p50: percentile(s, 50), tail: percentile(s, pct), tailPct: pct}
}

func median(xs []float64) float64 { return summarize(xs).p50 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is n/d, or 0 when the base is empty.
func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}
