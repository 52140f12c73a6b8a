package sepsp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sepsp/internal/baseline"
	"sepsp/internal/graph"
	"sepsp/internal/graph/gen"
)

// Module-level differential fuzzing: random workloads from every generator
// family through the full public pipeline, validated against Bellman-Ford.

func diffCheck(t *testing.T, seed int64, g *Graph, opt *Options, ref *graph.Digraph) bool {
	t.Helper()
	ix, err := Build(g, opt)
	if err != nil {
		t.Errorf("seed=%d: Build: %v", seed, err)
		return false
	}
	rng := rand.New(rand.NewSource(seed ^ 0x777))
	for trial := 0; trial < 3; trial++ {
		src := rng.Intn(ref.N())
		want, err := baseline.BellmanFord(ref, src, nil)
		if err != nil {
			t.Errorf("seed=%d: BF: %v", seed, err)
			return false
		}
		got := querySSSP(t, ix, src)
		for v := range want {
			if math.IsInf(want[v], 1) != math.IsInf(got[v], 1) ||
				(!math.IsInf(want[v], 1) && math.Abs(got[v]-want[v]) > 1e-8*(1+math.Abs(want[v]))) {
				t.Errorf("seed=%d src=%d v=%d: %v want %v", seed, src, v, got[v], want[v])
				return false
			}
		}
		// Independent certificate check (no reference implementation).
		if err := ix.Verify(src, got); err != nil {
			t.Errorf("seed=%d src=%d: certificate rejected: %v", seed, src, err)
			return false
		}
	}
	return true
}

func toPublic(dg *graph.Digraph) *Graph {
	g := NewGraph(dg.N())
	dg.Edges(func(from, to int, w float64) bool {
		g.AddEdge(from, to, w)
		return true
	})
	return g
}

func TestFuzzGridsAllAlgorithms(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []int{2 + rng.Intn(8), 2 + rng.Intn(8)}
		if rng.Intn(3) == 0 {
			dims = append(dims, 2+rng.Intn(3))
		}
		grid := gen.NewGrid(dims, gen.UniformWeights(0, 4), rng)
		ref := grid.G
		if rng.Intn(2) == 0 {
			ref, _ = gen.PotentialShift(ref, 6, rng)
		}
		opt := &Options{Decomposition: GridDecomposition(grid.Coord), LeafSize: 2 + rng.Intn(7)}
		if rng.Intn(2) == 0 {
			opt.Algorithm = Simultaneous
		}
		if rng.Intn(3) == 0 {
			opt.Workers = 1 + rng.Intn(4)
		}
		return diffCheck(t, seed, toPublic(ref), opt, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFuzzRandomDigraphsAutoDecomposition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(80)
		m := rng.Intn(4 * n)
		ref := gen.RandomDigraph(n, m, gen.UniformWeights(0, 5), rng)
		return diffCheck(t, seed, toPublic(ref), &Options{LeafSize: 2 + rng.Intn(8)}, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFuzzKTrees(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(4)
		n := k + 2 + rng.Intn(100)
		kt := gen.NewKTree(n, k, gen.UniformWeights(0.1, 3), rng)
		opt := &Options{Decomposition: TreeDecomposition(kt.Decomp.Bags, kt.Decomp.Parent)}
		return diffCheck(t, seed, toPublic(kt.G), opt, kt.G)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFuzzGeometric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(200)
		radius := 0.08 + 0.08*rng.Float64()
		geo := gen.NewGeometric(n, 2, radius, gen.UniformWeights(0.1, 1), rng)
		opt := &Options{Decomposition: GeometricDecomposition(geo.Points, radius)}
		return diffCheck(t, seed, toPublic(geo.G), opt, geo.G)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestFuzzDelaunayWithRotations(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(150)
		d := gen.NewDelaunay(n, gen.UnitWeights(), rng)
		// Randomly drop some directions (one-way streets); the embedding
		// stays a superset of the skeleton, which CycleFinder tolerates.
		g := NewGraph(n)
		d.G.Edges(func(from, to int, w float64) bool {
			if rng.Float64() < 0.9 {
				g.AddEdge(from, to, w)
			}
			return true
		})
		ref := refGraph(g)
		return diffCheck(t, seed, g, &Options{Decomposition: PlanarDecomposition(d.Rotation)}, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestFuzzOptimizedQueryBitIdentical cross-checks the optimized query
// executor (SoA sequential with convergence pruning, solo and fanned out
// over sources) against the retained naive reference relaxer: on the
// same schedule the distances must be bit-identical, not merely close —
// the arena rematerializes the exact relaxation order the reference
// walks. Inputs include negative weights (potential-shifted grids) and
// negative-cycle-adjacent 2-cycles whose total weight is barely positive,
// the regime where any reordering of float relaxations would show up as a
// bit difference. An independent Bellman-Ford run (with tolerance) keeps
// the pair of executors honest against agreeing on a wrong answer.
func TestFuzzOptimizedQueryBitIdentical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []int{3 + rng.Intn(7), 3 + rng.Intn(7)}
		grid := gen.NewGrid(dims, gen.UniformWeights(0.1, 4), rng)
		shifted, pot := gen.PotentialShift(grid.G, 6, rng)

		// Collect the shifted edges, then thread in near-cancelling
		// 2-cycles along existing grid edges: each direction gets reduced
		// weight ε>0 under the same potential, so one side is usually
		// negative but no cycle ever is, and the skeleton (hence the
		// coordinate separator tree) is unchanged.
		type edge struct {
			from, to int
			w        float64
		}
		var edges []edge
		shifted.Edges(func(from, to int, w float64) bool {
			edges = append(edges, edge{from, to, w})
			return true
		})
		g := toPublic(shifted)
		b := graph.NewBuilder(shifted.N())
		for _, e := range edges {
			b.AddEdge(e.from, e.to, e.w)
		}
		for c := 1 + rng.Intn(4); c > 0; c-- {
			e := edges[rng.Intn(len(edges))]
			for _, dir := range [][2]int{{e.from, e.to}, {e.to, e.from}} {
				eps := 1e-6 * (1 + rng.Float64())
				w := eps + pot[dir[0]] - pot[dir[1]]
				g.AddEdge(dir[0], dir[1], w)
				b.AddEdge(dir[0], dir[1], w)
			}
		}
		ref := b.Build()

		opt := &Options{Decomposition: GridDecomposition(grid.Coord), LeafSize: 2 + rng.Intn(6)}
		if rng.Intn(2) == 0 {
			opt.Workers = 2 + rng.Intn(3)
		}
		ix, err := Build(g, opt)
		if err != nil {
			t.Errorf("seed=%d: Build: %v", seed, err)
			return false
		}
		eng := ix.eng

		// Solo queries: optimized vs reference bit-identical, reference vs
		// Bellman-Ford within tolerance.
		for trial := 0; trial < 2; trial++ {
			src := rng.Intn(ref.N())
			want := eng.SSSPReference(src, nil)
			got := eng.SSSP(src, nil)
			for v := range want {
				if got[v] != want[v] {
					t.Errorf("seed=%d src=%d v=%d: optimized %v != reference %v (bitwise)", seed, src, v, got[v], want[v])
					return false
				}
			}
			bf, err := baseline.BellmanFord(ref, src, nil)
			if err != nil {
				t.Errorf("seed=%d: BF: %v", seed, err)
				return false
			}
			for v := range bf {
				if math.IsInf(bf[v], 1) != math.IsInf(want[v], 1) ||
					(!math.IsInf(bf[v], 1) && math.Abs(want[v]-bf[v]) > 1e-8*(1+math.Abs(bf[v]))) {
					t.Errorf("seed=%d src=%d v=%d: reference %v, Bellman-Ford %v", seed, src, v, want[v], bf[v])
					return false
				}
			}
		}

		// Multi-source fan-out: every row bit-identical to the reference,
		// whichever worker ran it.
		srcs := make([]int, 3+rng.Intn(14))
		for j := range srcs {
			srcs[j] = rng.Intn(ref.N())
		}
		rows := eng.Sources(srcs, nil)
		for j, src := range srcs {
			want := eng.SSSPReference(src, nil)
			for v := range want {
				if rows[j][v] != want[v] {
					t.Errorf("seed=%d sources k=%d src=%d v=%d: %v != reference %v (bitwise)", seed, len(srcs), src, v, rows[j][v], want[v])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 18}); err != nil {
		t.Fatal(err)
	}
}

func TestFuzzOracleAgainstEngine(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		grid := gen.NewGrid([]int{3 + rng.Intn(6), 3 + rng.Intn(6)}, gen.UniformWeights(0.5, 2), rng)
		ix, err := Build(toPublic(grid.G), &Options{Decomposition: GridDecomposition(grid.Coord), LeafSize: 3 + rng.Intn(4)})
		if err != nil {
			t.Errorf("seed=%d: %v", seed, err)
			return false
		}
		o, err := ix.BuildOracle()
		if err != nil {
			t.Errorf("seed=%d: oracle: %v", seed, err)
			return false
		}
		for trial := 0; trial < 10; trial++ {
			u, v := rng.Intn(grid.G.N()), rng.Intn(grid.G.N())
			want := querySSSP(t, ix, u)[v]
			got := o.Dist(u, v)
			if math.Abs(got-want) > 1e-8*(1+math.Abs(want)) {
				t.Errorf("seed=%d (%d,%d): oracle %v engine %v", seed, u, v, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestFuzzReweightChainBitIdentical drives Manager.Reweight through a chain
// of versions on random grids, with positive weights and with negative
// weights made by a potential shift (w + p(u) - p(v) keeps every cycle's
// weight, so no negative cycle appears): every version must answer
// bit-identically to a fresh Build. A final edit that closes a negative
// cycle must fail with ErrRebuildFailed wrapping ErrNegativeCycle and
// leave the old epoch serving the same answers.
func TestFuzzReweightChainBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w, h := 4+rng.Intn(7), 4+rng.Intn(7)
		grid := gen.NewGrid([]int{w, h}, gen.UniformWeights(0.5, 2), rng)
		es := grid.G.EdgeList()
		base := make([]float64, len(es))
		for i, e := range es {
			base[i] = e.W
		}
		pot := make([]float64, grid.G.N())
		if seed%2 == 0 {
			for v := range pot {
				pot[v] = 3 * rng.Float64()
			}
		}
		pub := func() *Graph {
			g := NewGraph(grid.G.N())
			for i, e := range es {
				g.AddEdge(e.From, e.To, base[i]+pot[e.From]-pot[e.To])
			}
			return g
		}
		opt := &Options{Decomposition: GridDecomposition(grid.Coord)}
		ix, err := Build(pub(), opt)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		m := NewManager(ix, nil)
		for version := 0; version < 5; version++ {
			for _, i := range rng.Perm(len(es))[:1+rng.Intn(6)] {
				base[i] *= 0.5 + 1.5*rng.Float64()
			}
			g := pub()
			if _, err := m.Reweight(context.Background(), g); err != nil {
				t.Fatalf("seed=%d version %d: %v", seed, version, err)
			}
			fresh, err := Build(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			sameAnswers(t, m.Index(), fresh)
		}
		// Close a negative cycle across one lattice edge.
		old, epoch := m.Index(), m.Epoch()
		before := querySSSP(t, old, 0)
		u, v := es[0].From, es[0].To
		for i, e := range es {
			if (e.From == u && e.To == v) || (e.From == v && e.To == u) {
				base[i] = -10 - pot[e.From] + pot[e.To]
			}
		}
		_, err = m.Reweight(context.Background(), pub())
		if !errors.Is(err, ErrRebuildFailed) || !errors.Is(err, ErrNegativeCycle) {
			t.Fatalf("seed=%d: negative-cycle edit: err = %v, want ErrRebuildFailed wrapping ErrNegativeCycle", seed, err)
		}
		if m.Epoch() != epoch || m.Index() != old {
			t.Fatalf("seed=%d: failed reweight moved the epoch", seed)
		}
		if after := querySSSP(t, m.Index(), 0); !slices.Equal(before, after) {
			t.Fatalf("seed=%d: old epoch's answers changed after a failed reweight", seed)
		}
	}
}
