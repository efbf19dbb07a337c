package main

import (
	"math"
	"testing"
)

func TestNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want float64
	}{
		{0.5, 5}, {0.1, 1}, {0.11, 2}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.0001, 1},
	} {
		if got := nearestRank(xs, c.q); got != c.want {
			t.Errorf("nearestRank(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := nearestRank([]float64{42}, 0.99); got != 42 {
		t.Errorf("single sample: got %v", got)
	}
	if !math.IsNaN(nearestRank(nil, 0.5)) {
		t.Error("empty sample should give NaN")
	}
	if got := median([]float64{3, 1, 2, 5, 4}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
}

func TestHighestSupported(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n     int
		wantQ float64
		wantV float64
	}{
		{2000, 0.99, 1980}, // rank 1980, 20 beyond
		{1000, 0.99, 990},  // exactly 10 beyond
		{999, 0.95, 950},   // p99 leaves 9 beyond
		{200, 0.95, 190},
		{100, 0.9, 90},
		{40, 0.75, 30},
		{20, 0.5, 10},
		{5, 0.5, 3}, // too few for any tail: the median
	} {
		q, v := highestSupported(seq(c.n), 0.99)
		if q != c.wantQ || v != c.wantV {
			t.Errorf("n=%d: got p%v=%v, want p%v=%v", c.n, 100*q, v, 100*c.wantQ, c.wantV)
		}
		if rank := int(math.Ceil(q * float64(c.n))); c.n > 20 && c.n-rank < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond", c.n, 100*q, c.n-rank)
		}
	}
	if q, v := highestSupported(seq(2000), 0.9); q != 0.9 || v != 1800 {
		t.Errorf("capped at p90: got p%v=%v, want p90=1800", 100*q, v)
	}
}
