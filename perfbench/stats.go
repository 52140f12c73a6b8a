package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile, so
// that no tail figure rests on a handful of observations.
const minBeyond = 10

// rankOf is the 1-based nearest rank of the q percentile among n samples:
// ⌈q·n⌉, with a guard so that 0.99·1000 is 990 despite rounding.
func rankOf(n int, q float64) int {
	return max(1, int(math.Ceil(q*float64(n)-1e-9)))
}

// rank is the nearest-rank percentile of sorted xs: the smallest sample
// with at least a q share of the samples at or below it.
func rank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[min(rankOf(len(sorted), q), len(sorted))-1]
}

// beyond is how many of n samples lie above the nearest-rank q percentile.
func beyond(n int, q float64) int {
	return n - rankOf(n, q)
}

// quant is one reported percentile: its level, value and base.
type quant struct {
	Q     float64
	Value float64
	N     int
}

func (p quant) String() string {
	return fmt.Sprintf("%.6g (p%g of n=%d)", p.Value, 100*p.Q, p.N)
}

// summary holds a sample's median and its upper percentile.
type summary struct {
	Median quant
	Upper  quant
}

// summarize sorts xs in place and returns the nearest-rank median and the
// highest percentile at or below qmax that still has minBeyond samples
// beyond it, each with its sample count. With too few samples for any
// percentile above the median, Upper falls back to the median level.
func summarize(xs []float64, qmax float64) summary {
	sort.Float64s(xs)
	n := len(xs)
	q := 0.5
	for _, cand := range []float64{qmax, 0.999, 0.99, 0.98, 0.95, 0.9, 0.75} {
		if cand <= qmax && beyond(n, cand) >= minBeyond {
			q = cand
			break
		}
	}
	return summary{
		Median: quant{0.5, rank(xs, 0.5), n},
		Upper:  quant{q, rank(xs, q), n},
	}
}

// median is the nearest-rank median of xs (sorted in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return rank(xs, 0.5)
}

// sliceRate splits [from, to) (nanoseconds) into equal slices, counts the
// spans by the slice they started in, and returns the median count per
// second, so that a stall of the host for part of the window moves it
// little. Spans starting outside the window count in its nearest slice.
func sliceRate(spans []span, from, to int64, slices int) float64 {
	width := float64(to-from) / float64(slices)
	rates := make([]float64, slices)
	for _, s := range spans {
		i := int(math.Floor(float64(s.start-from) / width))
		rates[min(max(i, 0), slices-1)]++
	}
	for i := range rates {
		rates[i] /= width / 1e9
	}
	return median(rates)
}
