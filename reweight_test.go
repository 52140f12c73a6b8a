package sepsp

import (
	"bytes"
	"context"
	"encoding/gob"
	"math/rand"
	"slices"
	"testing"

	"sepsp/internal/graph"
)

// editedGraph returns a copy of g's edges as a public Graph with the
// weights of the given edge-list positions scaled by factor.
func editedGraph(g *Graph, positions []int, factor float64) *Graph {
	es := g.b.Build().EdgeList()
	for _, i := range positions {
		es[i].W *= factor
	}
	out := NewGraph(g.N())
	for _, e := range es {
		out.AddEdge(e.From, e.To, e.W)
	}
	return out
}

// sameAnswers fails unless a and b return bit-identical SSSP vectors from
// every source.
func sameAnswers(t *testing.T, a, b *Index) {
	t.Helper()
	for src := 0; src < a.g.N(); src++ {
		if da, db := querySSSP(t, a, src), querySSSP(t, b, src); !slices.Equal(da, db) {
			t.Fatalf("SSSP from %d differs", src)
		}
	}
}

// TestReweightSmallEditIsIncremental: a one-edge edit recomputes only part
// of the tree, and the result answers like a fresh Build.
func TestReweightSmallEditIsIncremental(t *testing.T) {
	g, grid := gridGraph(t, 10, 10, 1)
	opt := &Options{Decomposition: GridDecomposition(grid.Coord)}
	ix, err := Build(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	g2 := editedGraph(g, []int{17}, 1.5)
	next, dirty, err := ix.reweighted(context.Background(), g2)
	if err != nil {
		t.Fatal(err)
	}
	if nodes := len(ix.eng.Tree().Nodes); dirty <= 0 || dirty >= nodes {
		t.Fatalf("one-edge edit recomputed %d of %d nodes", dirty, nodes)
	}
	fresh, err := Build(g2, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, next, fresh)
	if next.Stats().Shortcuts != fresh.Stats().Shortcuts || next.Stats().QueryWork != fresh.Stats().QueryWork {
		t.Fatalf("stats differ: %+v vs %+v", next.Stats(), fresh.Stats())
	}
}

// TestReweightFullPathLoadedAndAlg43: an index loaded from a snapshot (no
// retained matrices) and an Algorithm 4.3 index reweight through the full
// rebuild, and answer like a fresh Build of the new weights.
func TestReweightFullPathLoadedAndAlg43(t *testing.T) {
	g, grid := gridGraph(t, 8, 9, 3)
	g2 := editedGraph(g, []int{5, 40}, 0.7)
	for _, alg := range []Algorithm{LeavesUp, Simultaneous} {
		opt := &Options{Decomposition: GridDecomposition(grid.Coord), Algorithm: alg}
		ix, err := Build(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Build(g2, opt)
		if err != nil {
			t.Fatal(err)
		}
		nodes := len(ix.eng.Tree().Nodes)
		for name, src := range map[string]*Index{"built": ix, "loaded": loaded} {
			next, dirty, err := src.reweighted(context.Background(), g2)
			if err != nil {
				t.Fatalf("alg %d %s: %v", alg, name, err)
			}
			incremental := alg == LeavesUp && name == "built"
			if incremental != (dirty < nodes) {
				t.Fatalf("alg %d %s: %d of %d nodes recomputed", alg, name, dirty, nodes)
			}
			if alg == LeavesUp {
				sameAnswers(t, next, fresh)
				continue
			}
			// Alg43's E+ list order is not canonical, so bit-identity with
			// a fresh build is not promised: check each answer's
			// certificate against the graph instead.
			for _, s := range []int{0, 30, 71} {
				if err := next.Verify(s, querySSSP(t, next, s)); err != nil {
					t.Fatalf("alg 43 %s: %v", name, err)
				}
			}
		}
	}
}

// savedShortcuts decodes the shortcut list and raw count a Save wrote.
func savedShortcuts(t *testing.T, ix *Index) ([]graph.Edge, int64) {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var dto indexDTO
	if err := gob.NewDecoder(&buf).Decode(&dto); err != nil {
		t.Fatal(err)
	}
	return dto.Shortcuts, dto.RawCount
}

// TestSaveAfterIncrementalReweights: a snapshot of an index reached by a
// chain of incremental reweights holds the same shortcut set as a snapshot
// of a fresh Build of the final weights.
func TestSaveAfterIncrementalReweights(t *testing.T) {
	g, grid := gridGraph(t, 9, 9, 5)
	opt := &Options{Decomposition: GridDecomposition(grid.Coord)}
	ix, err := Build(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(ix, nil)
	rng := rand.New(rand.NewSource(6))
	for v := 0; v < 4; v++ {
		g = editedGraph(g, rng.Perm(g.b.Build().M())[:3], 0.5+rng.Float64())
		if _, err := m.Reweight(context.Background(), g); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := Build(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, gotRaw := savedShortcuts(t, m.Index())
	want, wantRaw := savedShortcuts(t, fresh)
	if gotRaw != wantRaw || !slices.Equal(got, want) {
		t.Fatalf("saved E+ after reweights (%d edges, raw %d) differs from a fresh build (%d, %d)",
			len(got), gotRaw, len(want), wantRaw)
	}
}
