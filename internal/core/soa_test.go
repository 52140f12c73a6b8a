package core

import (
	"math/rand"
	"testing"

	"sepsp/internal/graph"
	"sepsp/internal/graph/gen"
	"sepsp/internal/pram"
	"sepsp/internal/separator"
)

// TestSoAArenaMatchesAoSViews checks the two forms of every phase bucket
// describe the same edge sequence: the SoA arena expanded run-by-run must
// equal the materialized []graph.Edge view element for element, and the
// run-length encoding must be well-formed (distinct heads, dense offsets).
func TestSoAArenaMatchesAoSViews(t *testing.T) {
	eng, _ := buildGridEngine(t, []int{11, 9}, gen.UniformWeights(0.2, 3), 4, Config{})
	s := eng.Schedule()
	for i := 0; i < s.Phases(); i++ {
		phA, edges := s.PhaseAt(i)
		phB, b := s.phaseBucketAt(i)
		if phA != phB {
			t.Fatalf("phase %d: PhaseAt info %+v != phaseBucketAt info %+v", i, phA, phB)
		}
		if b.edges() != len(edges) {
			t.Fatalf("phase %d: arena holds %d edges, view %d", i, b.edges(), len(edges))
		}
		if len(b.off) != len(b.heads)+1 || b.off[0] != 0 || int(b.off[len(b.heads)]) != len(b.to) {
			t.Fatalf("phase %d: malformed run offsets %v for %d heads", i, b.off, len(b.heads))
		}
		seen := map[int32]bool{}
		pos := 0
		for r := range b.heads {
			if seen[b.heads[r]] {
				t.Fatalf("phase %d: head %d appears in two runs", i, b.heads[r])
			}
			seen[b.heads[r]] = true
			for j := b.off[r]; j < b.off[r+1]; j++ {
				want := edges[pos]
				if int(b.heads[r]) != want.From || int(b.to[j]) != want.To || b.w[j] != want.W {
					t.Fatalf("phase %d edge %d: arena (%d,%d,%v) != view %+v",
						i, pos, b.heads[r], b.to[j], b.w[j], want)
				}
				pos++
			}
		}
	}
}

// TestSourcesBitIdenticalAcrossExecutors: sources are independent, so the
// multi-source fan-out must produce the same bit pattern and the same
// counted work for every worker count, and equal the naive reference
// relaxer.
func TestSourcesBitIdenticalAcrossExecutors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	grid := gen.NewGrid([]int{13, 12}, gen.UniformWeights(0.1, 4), rng)
	g, _ := gen.PotentialShift(grid.G, 6, rng) // negative weights too
	sk := graph.NewSkeleton(g)
	tree, err := separator.Build(sk, &separator.CoordinateFinder{Coord: grid.Coord}, separator.Options{LeafSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]int, 32)
	for j := range srcs {
		srcs[j] = rng.Intn(g.N())
	}
	var base [][]float64
	var baseWork int64
	for _, p := range []int{1, 2, 4} {
		eng, err := NewEngine(g, tree, Config{Ex: pram.NewExecutor(p)})
		if err != nil {
			t.Fatal(err)
		}
		st := &pram.Stats{}
		rows := eng.Sources(srcs, st)
		if base == nil {
			base = rows
			baseWork = st.Work()
			for j, src := range srcs {
				ref := eng.SSSPReference(src, nil)
				for v := range ref {
					if rows[j][v] != ref[v] {
						t.Fatalf("P=1 src=%d v=%d: %v != reference %v", src, v, rows[j][v], ref[v])
					}
				}
			}
			continue
		}
		if st.Work() != baseWork {
			t.Fatalf("P=%d counted work %d, P=1 counted %d", p, st.Work(), baseWork)
		}
		for j := range rows {
			for v := range rows[j] {
				if rows[j][v] != base[j][v] {
					t.Fatalf("P=%d src=%d v=%d: %v != P=1 %v", p, srcs[j], v, rows[j][v], base[j][v])
				}
			}
		}
	}
}

// TestSourcesPruningMatchesSolo: the fan-out's executed and avoided work
// must reconcile with the solo queries exactly, and k sources account for
// exactly k·WorkPerSource in total.
func TestSourcesPruningMatchesSolo(t *testing.T) {
	eng, g := buildGridEngine(t, []int{10, 10}, gen.UniformWeights(0.5, 2), 7, Config{})
	srcs := []int{0, g.N() / 2, g.N() - 1, 17}
	k := int64(len(srcs))

	solo := &pram.Stats{}
	for _, src := range srcs {
		eng.SSSP(src, solo)
	}
	multi := &pram.Stats{}
	eng.Sources(srcs, multi)

	if multi.Work() != solo.Work() {
		t.Fatalf("Sources executed %d relaxations, solo queries %d", multi.Work(), solo.Work())
	}
	if multi.SkippedWork() != solo.SkippedWork() {
		t.Fatalf("Sources avoided %d relaxations, solo queries %d", multi.SkippedWork(), solo.SkippedWork())
	}
	if total := multi.Work() + multi.SkippedWork(); total != k*eng.Schedule().WorkPerSource() {
		t.Fatalf("total %d != k·WorkPerSource %d", total, k*eng.Schedule().WorkPerSource())
	}
}

// TestArenaRunArraysSizedToRuns: the arena's run arrays (heads, rle, and
// off with one sentinel per bucket) hold exactly one slot per head run, not
// one per edge. Bucket 0 starts the shared arrays, so its capacity is the
// whole arena's.
func TestArenaRunArraysSizedToRuns(t *testing.T) {
	eng, _ := buildGridEngine(t, []int{11, 9}, gen.UniformWeights(0.2, 3), 4, Config{})
	s := eng.Schedule()
	runs, edges := 0, 0
	for k := range s.buckets {
		runs += len(s.buckets[k].heads)
		edges += s.buckets[k].edges()
	}
	if runs != s.runs || runs >= edges {
		t.Fatalf("counted %d runs over %d edges, schedule says %d runs", runs, edges, s.runs)
	}
	b := &s.buckets[0]
	if cap(b.heads) != runs || cap(b.rle) != runs || cap(b.off) != runs+len(s.buckets) {
		t.Fatalf("run arrays cap heads=%d rle=%d off=%d, want %d, %d, %d",
			cap(b.heads), cap(b.rle), cap(b.off), runs, runs, runs+len(s.buckets))
	}
	if cap(b.to) != edges || cap(b.w) != edges {
		t.Fatalf("edge arrays cap to=%d w=%d, want %d", cap(b.to), cap(b.w), edges)
	}
}
