package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 50, 7},
		{[]float64{7}, 95, 7},
		{ten, 50, 5},   // rank ceil(5.0) = 5
		{ten, 51, 6},   // rank ceil(5.1) = 6
		{ten, 95, 10},  // rank ceil(9.5) = 10
		{ten, 90, 9},   // rank 9
		{ten, 100, 10}, // the maximum
		{ten, 0, 1},    // rank clamps to 1
		{[]float64{1, 2, 3, 4}, 50, 2},
		{[]float64{1, 2, 3, 4, 5}, 50, 3},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
}

// The choosing-metrics rule: a reported percentile has at least ten
// samples beyond it. For p95 that takes 200 samples.
func TestSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want int
	}{
		{0, 95, 0},
		{199, 95, 9},
		{200, 95, 10},
		{240, 95, 12},
		{20, 50, 10},
		{19, 50, 9},
	}
	for _, c := range cases {
		if got := samplesBeyond(c.n, c.p); got != c.want {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	// samplesBeyond agrees with percentile on distinct values.
	xs := make([]float64, 240)
	for i := range xs {
		xs[i] = float64(i)
	}
	p95 := percentile(xs, 95)
	beyond := 0
	for _, x := range xs {
		if x > p95 {
			beyond++
		}
	}
	if beyond != samplesBeyond(len(xs), 95) {
		t.Errorf("%d values lie beyond p95, samplesBeyond says %d", beyond, samplesBeyond(len(xs), 95))
	}
}

func TestGeomeanAndRelDiff(t *testing.T) {
	if g := geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v, want 4", g)
	}
	if g := geomean(nil); g != 0 {
		t.Errorf("geomean(nil) = %v, want 0", g)
	}
	if d := relDiff(100, 110); math.Abs(d-0.10) > 1e-12 {
		t.Errorf("relDiff(100, 110) = %v, want 0.10", d)
	}
	if d := relDiff(0, 0); d != 0 {
		t.Errorf("relDiff(0, 0) = %v, want 0", d)
	}
}
