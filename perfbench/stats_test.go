package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 82.5},
		{[]float64{5, 5, 5}, 5, 5},
	} {
		q1, q3, err := quartiles(tc.xs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample: want an error")
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	if got := minSamplesFor(99); got != 1000 {
		t.Errorf("minSamplesFor(99) = %d, want 1000", got)
	}
	if got := minSamplesFor(75); got != 40 {
		t.Errorf("minSamplesFor(75) = %d, want 40", got)
	}
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	if _, err := tailPercentile(ramp(999), 99); err == nil {
		t.Error("p99 of 999 samples: want an error, fewer than 10 lie beyond")
	}
	got, err := tailPercentile(ramp(1000), 99)
	if err != nil {
		t.Fatal(err)
	}
	if got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (nearest rank)", got)
	}
	if got, err := tailPercentile(ramp(40), 75); err != nil || got != 30 {
		t.Errorf("p75 of 1..40 = %v, %v; want 30", got, err)
	}
	if _, err := tailPercentile(ramp(39), 75); err == nil {
		t.Error("p75 of 39 samples: want an error")
	}
}
