package main

import (
	"math"
	"testing"
)

// ascending is 1, 2, …, n.
func ascending(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// descending is n, n-1, …, 1: summarize must sort it first.
func descending(n int) []float64 {
	xs := ascending(n)
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
	return xs
}

func TestSummarizeConstant(t *testing.T) {
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = 3.25
	}
	s := summarize(xs, 0.99)
	if s.Median.Value != 3.25 || s.Upper.Value != 3.25 {
		t.Fatalf("constant 3.25 summarized as %v / %v", s.Median, s.Upper)
	}
	if s.Upper.Q != 0.99 || s.Upper.N != 5000 {
		t.Fatalf("upper level %v, want p99 of n=5000", s.Upper)
	}
}

func TestNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
	}{
		{10, 0.5, 5},
		{11, 0.5, 6},
		{100, 0.5, 50},
		{100, 0.99, 99},
		{1000, 0.99, 990},
		{1000, 0.999, 999},
		{4, 0.25, 1},
		{4, 1, 4},
		{1, 0.5, 1},
	} {
		if got := rank(ascending(tc.n), tc.q); got != tc.want {
			t.Errorf("rank(1..%d, %v) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(rank(nil, 0.5)) {
		t.Error("rank of no samples should be NaN")
	}
	if got := median(descending(9)); got != 5 {
		t.Errorf("median(9..1) = %v, want 5", got)
	}
}

func TestSummarizeKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantQ float64
	}{
		{5000, 0.99}, // p99 has 50 beyond
		{1000, 0.99}, // exactly 10 beyond
		{999, 0.98},  // p99 would leave 9
		{100, 0.9},   // p95 would leave 5
		{40, 0.75},   // p90 would leave 4
		{15, 0.5},    // nothing above the median has 10 beyond
	} {
		s := summarize(descending(tc.n), 0.99)
		if s.Upper.Q != tc.wantQ {
			t.Errorf("n=%d: upper level %v, want %v", tc.n, s.Upper.Q, tc.wantQ)
		}
		if want := rank(ascending(tc.n), tc.wantQ); s.Upper.Value != want {
			t.Errorf("n=%d: upper value %v, want %v", tc.n, s.Upper.Value, want)
		}
		if s.Upper.Q > 0.5 && beyond(tc.n, s.Upper.Q) < minBeyond {
			t.Errorf("n=%d: %d samples beyond p%v", tc.n, beyond(tc.n, s.Upper.Q), 100*s.Upper.Q)
		}
		if s.Median.N != tc.n || s.Upper.N != tc.n {
			t.Errorf("n=%d: counts %d/%d", tc.n, s.Median.N, s.Upper.N)
		}
	}
}

func TestSliceRateIgnoresOneStalledSlice(t *testing.T) {
	// 100 spans per second for 10 s, except none in the fourth second.
	var spans []span
	for i := range 1000 {
		at := int64(i) * 1e7
		if at >= 3e9 && at < 4e9 {
			continue
		}
		spans = append(spans, span{start: at, end: at + 1})
	}
	if got := sliceRate(spans, 0, 1e10, 10); got != 100 {
		t.Fatalf("sliceRate = %v, want 100", got)
	}
	if got := sliceRate(spans, 0, 1e10, 1); got != 90 {
		t.Fatalf("one slice: sliceRate = %v, want the mean 90", got)
	}
}
