package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sepsp/internal/graph"
	"sepsp/internal/graph/gen"
	"sepsp/internal/separator"
)

// sameEngine reports whether two engines hold bit-identical per-node
// matrices, E+ lists, schedules and SSSP answers from every source.
func sameEngine(t *testing.T, a, b *Engine) {
	t.Helper()
	for id := range a.tree.Nodes {
		adb, ahs := a.state.Node(id)
		bdb, bhs := b.state.Node(id)
		if !adb.Equal(bdb) || (ahs == nil) != (bhs == nil) || (ahs != nil && !ahs.Equal(bhs)) {
			t.Fatalf("node %d: matrices differ", id)
		}
	}
	ra, rb := a.Augmentation(), b.Augmentation()
	if ra.RawCount != rb.RawCount || !slices.Equal(ra.Edges, rb.Edges) || a.Shortcuts() != b.Shortcuts() {
		t.Fatal("E+ lists differ")
	}
	if !a.Schedule().Equal(b.Schedule()) {
		t.Fatal("schedules differ")
	}
	for src := 0; src < a.g.N(); src++ {
		if da, db := a.SSSP(src, nil), b.SSSP(src, nil); !slices.Equal(da, db) {
			t.Fatalf("SSSP from %d differs", src)
		}
	}
}

// reweightFixture builds a grid, its tree and an Alg41 engine.
func reweightFixture(t *testing.T, dims []int, seed int64) (*Engine, *separator.Tree, []graph.Edge) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	grid := gen.NewGrid(dims, gen.UniformWeights(0.5, 2), rng)
	tree, err := separator.Build(graph.NewSkeleton(grid.G), &separator.CoordinateFinder{Coord: grid.Coord}, separator.Options{LeafSize: 6})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(grid.G, tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return eng, tree, grid.G.EdgeList()
}

// TestReweightMatchesRebuild: a chain of reweights, each rescaling a few
// random edges, must equal a from-scratch engine on the same graph bit for bit, and must
// leave the previous engine's answers untouched.
func TestReweightMatchesRebuild(t *testing.T) {
	eng, tree, edges := reweightFixture(t, []int{12, 10}, 3)
	rng := rand.New(rand.NewSource(4))
	n := eng.g.N()
	for version, k := range []int{1, 4, 16, 1, 40} {
		for _, i := range rng.Perm(len(edges))[:k] {
			edges[i].W *= 0.5 + 1.5*rng.Float64()
		}
		g := graph.FromEdges(n, edges)
		before := eng.SSSP(0, nil)
		next, dirty, err := eng.Reweight(g, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if dirty <= 0 || dirty >= len(tree.Nodes) {
			t.Fatalf("version %d: %d of %d nodes dirty for %d edits", version, dirty, len(tree.Nodes), k)
		}
		if after := eng.SSSP(0, nil); !slices.Equal(before, after) {
			t.Fatalf("version %d: reweight changed the old engine's answers", version)
		}
		fresh, err := NewEngine(g, tree, Config{})
		if err != nil {
			t.Fatal(err)
		}
		sameEngine(t, next, fresh)
		eng = next
	}
}

// TestReweightFallsBackToFullBuild: a change of the directed edge set, a
// weight turning +Inf, or an engine without retained matrices rebuild
// every node — and still answer like a fresh engine.
func TestReweightFallsBackToFullBuild(t *testing.T) {
	eng, tree, edges := reweightFixture(t, []int{8, 8}, 5)
	n := eng.g.N()
	inf := slices.Clone(edges)
	inf[3].W = math.Inf(1)
	flipped := slices.Clone(edges[1:])
	flipped = append(flipped, graph.Edge{From: edges[0].To, To: edges[0].From, W: edges[0].W})
	for name, es := range map[string][]graph.Edge{"inf": inf, "direction": flipped} {
		g := graph.FromEdges(n, es)
		next, dirty, err := eng.Reweight(g, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if dirty != len(tree.Nodes) {
			t.Fatalf("%s: %d nodes recomputed, want all %d", name, dirty, len(tree.Nodes))
		}
		fresh, err := NewEngine(g, tree, Config{})
		if err != nil {
			t.Fatal(err)
		}
		sameEngine(t, next, fresh)
	}
	// Unchanged weights share everything.
	same, dirty, err := eng.Reweight(graph.FromEdges(n, edges), Config{})
	if err != nil || dirty != 0 || same.Schedule() != eng.Schedule() || same.State() != eng.State() {
		t.Fatalf("identical weights: dirty=%d err=%v, want a shared engine", dirty, err)
	}
	// Alg43 engines rebuild through Alg43.
	e43, err := NewEngine(eng.g, tree, Config{Algorithm: Alg43})
	if err != nil {
		t.Fatal(err)
	}
	edges[7].W += 1
	g := graph.FromEdges(n, edges)
	next, dirty, err := e43.Reweight(g, Config{Algorithm: Alg43})
	if err != nil || dirty != len(tree.Nodes) || next.State() != nil {
		t.Fatalf("Alg43 reweight: dirty=%d err=%v", dirty, err)
	}
	checkAgainstBF(t, next, g, []int{0, n / 2, n - 1})
}
