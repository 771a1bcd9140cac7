package main

import (
	"fmt"
	"math"
	"sort"
)

// tailMinBeyond is how many samples must lie above a reported tail
// percentile: a tail estimate resting on fewer is noise, not a tail.
const tailMinBeyond = 10

// tailPct is the percentile of operation latency every workload reports
// as its end-to-end tail: the highest that has ten operations beyond it in
// the 40 runs a sim-attack-trace run affords, and that stays within its
// bound on the live chain, whose p90 and p99 move with host contention.
const tailPct = 75

// median returns the middle of xs (the mean of the two middle values for
// an even count); xs is not modified. It returns 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the
// "exclusive" method — the default of Python's statistics.quantiles(xs,
// n=4), which is how run-to-run spread is judged. It needs two samples.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, fmt.Errorf("quartiles need at least 2 samples, got %d", len(xs))
	}
	s := sortedCopy(xs)
	at := func(k int) float64 {
		// Position k*(n+1)/4 on a 1-based axis; the bracketing pair is
		// clamped to the ends and the weight extrapolates past them,
		// exactly as the Python implementation does.
		m := len(s) + 1
		j := min(max(k*m/4, 1), len(s)-1)
		delta := k*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3), nil
}

// tailPercentile returns the p-th percentile of xs by nearest rank,
// refusing when fewer than tailMinBeyond samples lie beyond it: with n
// samples the p-th percentile has n*(1-p/100) samples above it, so p99
// needs at least 1000.
func tailPercentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	beyond := float64(n) * (1 - p/100)
	if beyond+1e-9 < tailMinBeyond {
		return 0, fmt.Errorf("p%g over %d samples has %.1f beyond it, need %d", p, n, beyond, tailMinBeyond)
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], nil
}

// minSamplesFor is the smallest sample count at which tailPercentile
// accepts percentile p.
func minSamplesFor(p float64) int {
	return int(math.Ceil(tailMinBeyond/(1-p/100) - 1e-9))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
