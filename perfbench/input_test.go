package main

import (
	"math/rand"
	"testing"
)

func draws(next sourceFn, k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = next()
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSourcesDeterministic(t *testing.T) {
	const n, k = 4096, 2000
	for _, w := range workloads {
		a := draws(clientSources(w, 7, popularity(7, n), 1), k)
		b := draws(clientSources(w, 7, popularity(7, n), 1), k)
		if !equalInts(a, b) {
			t.Fatalf("%s: same seed and client gave different sequences", w.name)
		}
		for _, v := range a {
			if v < 0 || v >= n {
				t.Fatalf("%s: source %d out of [0,%d)", w.name, v, n)
			}
		}
		if c := draws(clientSources(w, 8, popularity(8, n), 1), k); equalInts(a, c) {
			t.Fatalf("%s: seeds 7 and 8 gave the same sequence", w.name)
		}
		if c := draws(clientSources(w, 7, popularity(7, n), 2), k); equalInts(a, c) {
			t.Fatalf("%s: clients 1 and 2 gave the same sequence", w.name)
		}
	}
}

func TestZipfFollowsPermutation(t *testing.T) {
	const n, k = 4096, 200000
	perm := popularity(3, n)
	next := zipfSources(rand.New(rand.NewSource(1)), perm)
	freq := make([]int, n)
	for range k {
		freq[next()]++
	}
	// Rank r has weight (1+r)^-1.1, so the top ranks dominate in order.
	for r := 0; r < 3; r++ {
		if freq[perm[r]] <= freq[perm[r+1]] {
			t.Fatalf("rank %d (vertex %d, %d draws) not above rank %d (%d draws)",
				r, perm[r], freq[perm[r]], r+1, freq[perm[r+1]])
		}
	}
	// Expected share of rank 0 is 1/H(4096, 1.1) ≈ 0.16.
	if got := float64(freq[perm[0]]) / k; got < 0.14 || got > 0.18 {
		t.Fatalf("rank-0 share %.3f, want about 0.16", got)
	}
	if !equalInts(perm, popularity(3, n)) {
		t.Fatal("popularity permutation not deterministic")
	}
}

func TestVersionsDeterministicSameSkeleton(t *testing.T) {
	in := newInput(5)
	if in.n != gridSide*gridSide {
		t.Fatalf("n = %d, want %d", in.n, gridSide*gridSide)
	}
	a, b := newVersions(in, 5), newVersions(in, 5)
	prev := in.baseWeights()
	for k := 1; k <= 3; k++ {
		wa, wb := a.next(), b.next()
		changed := 0
		for i := range wa {
			if wa[i] != wb[i] {
				t.Fatalf("version %d differs between equal seeds at edge %d", k, i)
			}
			if wa[i] != prev[i] {
				changed++
				if r := wa[i] / prev[i]; r < 0.5 || r > 2 {
					t.Fatalf("version %d rescaled edge %d by %v, outside [0.5, 2]", k, i, r)
				}
			}
		}
		if changed == 0 || changed > editsPerSwap {
			t.Fatalf("version %d changed %d edges, want 1..%d", k, changed, editsPerSwap)
		}
		if g := a.graph(k); g.M() != len(in.edges) {
			t.Fatalf("version %d has %d edges, want %d", k, g.M(), len(in.edges))
		}
		prev = wa
	}
}
