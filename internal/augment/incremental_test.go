package augment

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sepsp/internal/faultinject"
	"sepsp/internal/graph"
	"sepsp/internal/graph/gen"
	"sepsp/internal/matrix"
	"sepsp/internal/pram"
	"sepsp/internal/separator"
)

// sameState reports whether two states hold bit-identical matrices at
// every node.
func sameState(a, b *State) bool {
	for id := range a.t.Nodes {
		adb, ahs := a.Node(id)
		bdb, bhs := b.Node(id)
		if !adb.Equal(bdb) || (ahs == nil) != (bhs == nil) || (ahs != nil && !ahs.Equal(bhs)) {
			return false
		}
	}
	return true
}

// sameResult reports whether two materialised E+ lists are bit-identical,
// order included.
func sameResult(a, b *Result) bool {
	return a.RawCount == b.RawCount && slices.Equal(a.Edges, b.Edges)
}

func TestIncrementalMatchesFullRebuild(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, h := 4+rng.Intn(6), 4+rng.Intn(6)
		grid := gen.NewGrid([]int{w, h}, gen.UniformWeights(1, 5), rng)
		sk := graph.NewSkeleton(grid.G)
		tree, err := separator.Build(sk, &separator.CoordinateFinder{Coord: grid.Coord}, separator.Options{LeafSize: 4})
		if err != nil {
			t.Errorf("Build: %v", err)
			return false
		}
		st, err := Build41(grid.G, tree, Config{})
		if err != nil {
			t.Errorf("Build41: %v", err)
			return false
		}
		// Initial state must match a plain Alg41 run.
		full, err := Alg41(grid.G, tree, Config{})
		if err != nil {
			t.Errorf("Alg41: %v", err)
			return false
		}
		if !sameResult(st.Result(), full) {
			t.Errorf("seed=%d: initial state differs", seed)
			return false
		}
		// A chain of versions, each changing a few random edges of the
		// previous one: every repair must equal a from-scratch build.
		edges := grid.G.EdgeList()
		for version := 0; version < 3; version++ {
			var changed [][2]int
			for k := 0; k < 3; k++ {
				i := rng.Intn(len(edges))
				edges[i].W = 1 + 5*rng.Float64()
				changed = append(changed, [2]int{edges[i].From, edges[i].To})
			}
			newG := graph.FromEdges(grid.G.N(), edges)
			before := st.Result()
			next, err := st.Repair(newG, Dirty(tree, changed), Config{})
			if err != nil {
				t.Errorf("Repair: %v", err)
				return false
			}
			if !sameResult(st.Result(), before) {
				t.Errorf("seed=%d: Repair wrote into its receiver", seed)
				return false
			}
			scratch, err := Build41(newG, tree, Config{})
			if err != nil {
				t.Errorf("Build41 rebuild: %v", err)
				return false
			}
			if !sameState(next, scratch) || !sameResult(next.Result(), scratch.Result()) {
				t.Errorf("seed=%d version %d: repaired state differs from a rebuild", seed, version)
				return false
			}
			st = next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalDirtySetIsSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	grid := gen.NewGrid([]int{32, 32}, gen.UniformWeights(1, 2), rng)
	sk := graph.NewSkeleton(grid.G)
	tree, err := separator.Build(sk, &separator.CoordinateFinder{Coord: grid.Coord}, separator.Options{LeafSize: 6})
	if err != nil {
		t.Fatal(err)
	}
	// One changed edge dirties at most the nodes on the duplicated
	// root-paths of its endpoints: O(d_G), far below the node count.
	u := grid.Index([]int{3, 3})
	v := grid.Index([]int{3, 4})
	dirty := Dirty(tree, [][2]int{{u, v}})
	n := dirty.Len()
	if n > 2*(tree.Height+1) {
		t.Fatalf("dirty=%d exceeds 2(d_G+1)=%d", n, 2*(tree.Height+1))
	}
	if n >= len(tree.Nodes)/4 {
		t.Fatalf("dirty=%d not small vs %d nodes", n, len(tree.Nodes))
	}
	// The set is closed under ancestors.
	for id := range tree.Nodes {
		if p := tree.Nodes[id].Parent; dirty.Has(id) && p >= 0 && !dirty.Has(p) {
			t.Fatalf("node %d dirty but its parent %d is not", id, p)
		}
	}
	// Repair work is proportional to the dirty set: the counted work of
	// the repair equals the work of exactly those nodes in a full build.
	st, err := Build41(grid.G, tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	full := &pram.Stats{}
	if _, err := Build41(grid.G, tree, Config{Stats: full}); err != nil {
		t.Fatal(err)
	}
	part := &pram.Stats{}
	if _, err := st.Repair(grid.G, dirty, Config{Stats: part}); err != nil {
		t.Fatal(err)
	}
	if part.Work() <= 0 || part.Work() >= full.Work()/4 {
		t.Fatalf("repair work %d not small vs full build %d", part.Work(), full.Work())
	}
}

func TestIncrementalDetectsNewNegativeCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	grid := gen.NewGrid([]int{6, 6}, gen.UniformWeights(1, 2), rng)
	sk := graph.NewSkeleton(grid.G)
	tree, err := separator.Build(sk, &separator.CoordinateFinder{Coord: grid.Coord}, separator.Options{LeafSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Build41(grid.G, tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	before := st.Result()
	// Make one antiparallel pair strongly negative.
	edges := grid.G.EdgeList()
	u, v := grid.Index([]int{2, 2}), grid.Index([]int{2, 3})
	for i := range edges {
		if edges[i].From == u && edges[i].To == v {
			edges[i].W = -10
		}
	}
	newG := graph.FromEdges(grid.G.N(), edges)
	if _, err := st.Repair(newG, Dirty(tree, [][2]int{{u, v}}), Config{}); !errors.Is(err, ErrNegativeCycle) {
		t.Fatalf("negative cycle introduced by repair: err = %v, want ErrNegativeCycle", err)
	}
	if !sameResult(st.Result(), before) {
		t.Fatal("failed repair modified its receiver")
	}
}

// TestRepairEveryNodeIsBuild: the driver with every node dirty is the full
// build — same matrices, same counted work and rounds.
func TestRepairEveryNodeIsBuild(t *testing.T) {
	g, tree := gridAndTree(t, []int{9, 7}, gen.UniformWeights(0.5, 3), 5, 4)
	a := &pram.Stats{}
	st, err := Build41(g, tree, Config{Stats: a})
	if err != nil {
		t.Fatal(err)
	}
	b := &pram.Stats{}
	all := newNodeSet(len(tree.Nodes))
	for id := range tree.Nodes {
		all.add(id)
	}
	re, err := st.Repair(g, all, Config{Stats: b})
	if err != nil {
		t.Fatal(err)
	}
	if !sameState(st, re) {
		t.Fatal("repair of every node differs from the build")
	}
	if a.Work() != b.Work() || a.Rounds() != b.Rounds() {
		t.Fatalf("repair of every node counted (%d,%d), build (%d,%d)", b.Work(), b.Rounds(), a.Work(), a.Rounds())
	}
}

// TestRepairCancelledBetweenLevels: the driver polls the context between
// levels, on the incremental path as on the full one.
func TestRepairCancelledBetweenLevels(t *testing.T) {
	g, tree := gridAndTree(t, []int{9, 9}, gen.UniformWeights(0.5, 3), 6, 4)
	st, err := Build41(g, tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel from inside the first dirty level's work: the next poll, at
	// the following level boundary, must stop the repair.
	ex := pram.NewExecutor(1)
	ex.SetInjector(injectFunc(func() { cancel() }))
	dirty := Dirty(tree, [][2]int{{0, 1}})
	if _, err := st.Repair(g, dirty, Config{Ctx: ctx, Ex: ex}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestNodeSetBits exercises the bitset across word boundaries.
func TestNodeSetBits(t *testing.T) {
	s := newNodeSet(130)
	for _, id := range []int{0, 63, 64, 129} {
		s.add(id)
	}
	if s.Len() != 4 || !s.Has(63) || !s.Has(64) || s.Has(65) || !s.Has(129) {
		t.Fatalf("bitset wrong: %b", s)
	}
	var all NodeSet
	if !all.Has(1000) {
		t.Fatal("nil set must hold every node")
	}
}

// TestResultMinOverContributions: materialising E+ keeps the minimum of a
// pair's contributions, matching the map-based collector.
func TestResultMinOverContributions(t *testing.T) {
	g, tree := gridAndTree(t, []int{8, 8}, gen.UniformWeights(0.5, 3), 9, 4)
	st, err := Build41(g, tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := newCollector()
	for id := range tree.Nodes {
		nd := &tree.Nodes[id]
		db, hs := st.Node(id)
		emit := func(m *matrix.Dense, set []int) {
			for i, u := range set {
				for j, v := range set {
					c.add(u, v, m.At(i, j))
				}
			}
		}
		if hs != nil {
			emit(hs, nd.S)
		}
		emit(db, nd.B)
	}
	want := c.result()
	got := st.Result()
	if got.RawCount != want.RawCount || !sameEdgeMap(t, got.Edges, want.Edges) {
		t.Fatalf("Result (%d edges, raw %d) differs from the collector (%d, %d)",
			len(got.Edges), got.RawCount, len(want.Edges), want.RawCount)
	}
}

// injectFunc is a fault injector that runs f at every firing and injects
// nothing.
type injectFunc func()

func (f injectFunc) Fire(string) faultinject.Fault {
	f()
	return faultinject.None
}
