package core

import (
	"math/rand"
	"testing"

	"sepsp/internal/graph"
	"sepsp/internal/graph/gen"
	"sepsp/internal/separator"
)

// TestScheduleBucketInvariants: every edge of E ∪ E+ whose endpoints both
// have defined levels lands in exactly one bucket, the bucket matches its
// level relation, and the phase count follows the 2ℓ + 4(d_G+1) formula.
func TestScheduleBucketInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	grid := gen.NewGrid([]int{11, 9}, gen.UniformWeights(1, 2), rng)
	sk := graph.NewSkeleton(grid.G)
	tree, err := separator.Build(sk, &separator.CoordinateFinder{Coord: grid.Coord}, separator.Options{LeafSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(grid.G, tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := eng.Schedule()
	if s.Phases() != 2*s.l+4*(s.height+1) {
		t.Fatalf("phases=%d, want %d", s.Phases(), 2*s.l+4*(s.height+1))
	}
	all := append(grid.G.EdgeList(), eng.Augmentation().Edges...)
	definedCount := 0
	for _, e := range all {
		lu, lv := tree.Level(e.From), tree.Level(e.To)
		if lu != separator.LevelUndef && lv != separator.LevelUndef {
			definedCount++
		}
	}
	view := s.edgeView()
	same := func(L int) []graph.Edge { return view[s.bucketID(classSame, L)] }
	desc := func(L int) []graph.Edge { return view[s.bucketID(classDesc, L)] }
	asc := func(L int) []graph.Edge { return view[s.bucketID(classAsc, L)] }
	bucketed := 0
	for L := 0; L <= s.height; L++ {
		for _, e := range same(L) {
			if tree.Level(e.From) != L || tree.Level(e.To) != L {
				t.Fatalf("same[%d] holds edge with levels %d,%d", L, tree.Level(e.From), tree.Level(e.To))
			}
		}
		for _, e := range desc(L) {
			if tree.Level(e.From) != L || tree.Level(e.To) >= L {
				t.Fatalf("desc[%d] holds edge with levels %d,%d", L, tree.Level(e.From), tree.Level(e.To))
			}
		}
		for _, e := range asc(L) {
			if tree.Level(e.To) != L || tree.Level(e.From) >= L {
				t.Fatalf("asc[%d] holds edge with levels %d,%d", L, tree.Level(e.From), tree.Level(e.To))
			}
		}
		bucketed += len(same(L)) + len(desc(L)) + len(asc(L))
	}
	if bucketed != definedCount {
		t.Fatalf("bucketed %d edges, expected %d", bucketed, definedCount)
	}
	// Work formula cross-check: the arena's count against the edge view.
	var want int64 = int64(2*s.l) * int64(len(view[0]))
	for L := 0; L <= s.height; L++ {
		want += int64(2*len(same(L)) + len(desc(L)) + len(asc(L)))
	}
	if s.WorkPerSource() != want {
		t.Fatalf("WorkPerSource=%d want %d", s.WorkPerSource(), want)
	}
}

// TestScheduleRunOrder records the phase sequence and verifies the bitonic
// ordering: ℓ all-edge phases, descending sweep (same, desc interleaved
// from high L), ascending sweep (asc, same from low L), ℓ all-edge phases.
func TestScheduleRunOrder(t *testing.T) {
	s := &Schedule{height: 2, l: 2, buckets: make([]soaBucket, 1+3*3)}
	var phases int
	s.Run(func([]graph.Edge) { phases++ })
	if phases != s.Phases() {
		t.Fatalf("ran %d phases, Phases()=%d", phases, s.Phases())
	}
}

// TestSSSPFromMultiSource checks the virtual-super-source semantics: with
// an all-zero initial vector the result is the pointwise minimum of
// per-source SSSP rows.
func TestSSSPFromMultiSource(t *testing.T) {
	eng, g := buildGridEngine(t, []int{6, 7}, gen.UniformWeights(1, 3), 9, Config{})
	zero := make([]float64, g.N())
	got := eng.SSSPFrom(zero, nil)
	for v := 0; v < g.N(); v++ {
		best := 0.0 // distance from v to itself with zero init
		for s := 0; s < g.N(); s++ {
			d := eng.SSSP(s, nil)[v]
			if d < best {
				best = d
			}
		}
		if !almostEqual(got[v], best) {
			t.Fatalf("v=%d: %v want %v", v, got[v], best)
		}
	}
}
