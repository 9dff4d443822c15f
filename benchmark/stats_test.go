package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	// The classic nearest-rank example.
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	// Unsorted input, even count: nearest rank takes the lower middle.
	if got := percentile([]float64{4, 1, 3, 2}, 50); got != 2 {
		t.Errorf("p50 of 4 samples = %g, want 2", got)
	}
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := percentile(ten, 90); got != 9 {
		t.Errorf("p90 of 1..10 = %g, want 9", got)
	}
	if ten[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g, want 2.5", got)
	}
}

func TestSupportedPercentile(t *testing.T) {
	// The highest percentile that leaves at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10, 50}, {80, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestRoundPercentile(t *testing.T) {
	// One round is hit by a stall; the median over rounds ignores it.
	rounds := [][]float64{
		{1, 2, 3, 4, 5},
		{1, 2, 3, 4, 5},
		{100, 200, 300, 400, 500},
		{2, 3, 4, 5, 6},
		{0, 1, 2, 3, 4},
	}
	if got := roundPercentile(rounds, 50); got != 3 {
		t.Errorf("round median of p50 = %g, want 3", got)
	}
	if got := roundPercentile(rounds, 100); got != 5 {
		t.Errorf("round median of max = %g, want 5", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %g %g %g, want 1.5 4 12", q1, q2, q3)
	}
}
