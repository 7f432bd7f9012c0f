package main

import (
	"math"
	"testing"
)

func TestMaxPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.50}, {39, 0.50}, {40, 0.75}, {100, 0.90}, {199, 0.90},
		{200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := maxPercentile(tc.n); got != tc.want {
			t.Errorf("maxPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestSupportedFallsBackToTheHighestSupportedPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got, want := supported(xs, 0.95), quantile(xs, 0.90); got != want {
		t.Errorf("p95 of 100 samples = %v, want the p90 %v", got, want)
	}
	if got, want := supported(xs, 0.50), quantile(xs, 0.50); got != want {
		t.Errorf("p50 of 100 samples = %v, want %v", got, want)
	}
	if got := supported(xs[:10], 0.95); got != 0 {
		t.Errorf("p95 of 10 samples = %v, want 0 (no percentile is supported)", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
	if got := quantile([]float64{10}, 0.99); got != 10 {
		t.Errorf("quantile of one value = %v", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v", got)
	}
}

// The reference values are statistics.quantiles(xs, n=4) from Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 23, 38},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestTypicalAndGeoMean(t *testing.T) {
	if got := typical([]float64{3, 1, 2}); got != 2 {
		t.Errorf("typical of three = %v, want their mean 2", got)
	}
	ten := []float64{1, 1, 1, 100, 1, 1, 1, 1, 1, 1}
	if got := typical(ten); got != 1 {
		t.Errorf("typical of ten = %v, want 1: the slowest tenth is dropped", got)
	}
	if ten[3] != 100 {
		t.Error("typical sorted its input in place")
	}
	if got := typical(nil); got != 0 {
		t.Errorf("typical of nothing = %v", got)
	}
	if got := geoMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geoMean(2, 8) = %v, want 4", got)
	}
	if got := geoMean(nil); got != 0 {
		t.Errorf("geoMean of nothing = %v", got)
	}
	// A tenth off the small value moves it as much as a tenth off the large one.
	if a, b := geoMean([]float64{2 * 1.1, 8}), geoMean([]float64{2, 8 * 1.1}); math.Abs(a-b) > 1e-12 {
		t.Errorf("geoMean weighs relative changes unequally: %v, %v", a, b)
	}
}
