package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9*math.Max(1, math.Abs(b)) }

// The reference values come from Python's statistics.quantiles(xs, n=4),
// the computation the benchmark's spreads must agree with.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{82.383, 65.085, 115.093, 57.244, 103.588, 86.569, 55.8, 100.744, 53.75, 93.365}, [3]float64{56.883, 84.476, 101.455}},
		{[]float64{3.5, 1.25, 9.0, 4.75, 2.0, 8.5, 6.25}, [3]float64{2.0, 4.75, 8.5}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	}
	for _, c := range cases {
		q1, q2, q3, ok := quartiles(c.xs)
		if !ok || !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value succeeded")
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 5.5}, {90, 9.1}, {100, 10}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
}

func TestSpread(t *testing.T) {
	// Quartiles 1.25 and 3.75 around a median of 2.5.
	if got := spread([]float64{1, 2, 3, 4}); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{7, 7, 7, 7, 7}); got != 0 {
		t.Errorf("spread of constant values = %v, want 0", got)
	}
}
