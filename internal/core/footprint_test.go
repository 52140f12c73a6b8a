package core_test

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"sepsp/internal/core"
	"sepsp/internal/graph"
	"sepsp/internal/graph/gen"
	"sepsp/internal/obs"
	"sepsp/internal/obs/live"
	"sepsp/internal/reach"
	"sepsp/internal/separator"
)

// TestEdgeViewBuiltOnlyOnDemand pins the schedule's resident footprint: the
// SoA arena is its only form until a reader of the []graph.Edge view asks
// for it. Building an engine, reading its static cost model and answering
// queries on the serving kernel (observed or not) leave the view unbuilt;
// the reference relaxer and the reach engine build their schedule's view on
// their first call, which may race with itself. The reference answers stay
// bit-identical to the serving kernel's.
func TestEdgeViewBuiltOnlyOnDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	grid := gen.NewGrid([]int{12, 11}, gen.UniformWeights(0.1, 4), rng)
	g, _ := gen.PotentialShift(grid.G, 6, rng) // negative weights too
	tree, err := separator.Build(graph.NewSkeleton(g), &separator.CoordinateFinder{Coord: grid.Coord}, separator.Options{LeafSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(g, tree, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	observed, err := core.NewEngine(g, tree, core.Config{Obs: &obs.Sink{Trace: obs.NewTracer(), Metrics: live.NewRegistry()}})
	if err != nil {
		t.Fatal(err)
	}
	re, err := reach.NewEngine(g, tree, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := eng.Schedule()

	var work int64
	for _, pw := range s.Breakdown() {
		work += pw.Work
	}
	if work != s.WorkPerSource() {
		t.Fatalf("Breakdown work %d != WorkPerSource %d", work, s.WorkPerSource())
	}
	srcs := []int{0, 7, g.N() / 2, g.N() - 1}
	want := make([][]float64, len(srcs))
	for i, src := range srcs {
		want[i] = eng.SSSP(src, nil)
		observed.SSSP(src, nil)
	}
	if _, err := eng.SourcesContext(context.Background(), srcs, nil); err != nil {
		t.Fatal(err)
	}
	for name, sc := range map[string]*core.Schedule{"engine": s, "observed engine": observed.Schedule(), "reach": re.Schedule()} {
		if sc.EdgeViewBuilt() {
			t.Fatalf("%s: edge view built without a reader of it", name)
		}
	}

	// Concurrent first calls of both view readers.
	ref := make([][]float64, len(srcs))
	reached := make([][]bool, len(srcs))
	var wg sync.WaitGroup
	for i, src := range srcs {
		wg.Add(2)
		go func() {
			defer wg.Done()
			ref[i] = eng.SSSPReference(src, nil)
		}()
		go func() {
			defer wg.Done()
			reached[i] = re.From(src, nil)
		}()
	}
	wg.Wait()
	if !s.EdgeViewBuilt() || !re.Schedule().EdgeViewBuilt() {
		t.Fatal("the view readers did not build their schedule's edge view")
	}
	for i, src := range srcs {
		for v := range want[i] {
			if math.Float64bits(ref[i][v]) != math.Float64bits(want[i][v]) {
				t.Fatalf("src=%d v=%d: reference %v != SSSP %v", src, v, ref[i][v], want[i][v])
			}
			if reached[i][v] != !math.IsInf(want[i][v], 1) {
				t.Fatalf("src=%d v=%d: reach %v, distance %v", src, v, reached[i][v], want[i][v])
			}
		}
	}
}
