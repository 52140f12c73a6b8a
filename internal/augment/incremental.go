package augment

import (
	"fmt"
	"slices"

	"sepsp/internal/graph"
	"sepsp/internal/separator"
)

// Incremental repair operationalizes the paper's comment (iv): the
// decomposition tree survives a change of edge weights, and — one step
// further — only the tree nodes whose subgraph contains a changed edge (an
// ancestor-closed set, O(d_G) nodes per changed edge) need their matrices
// recomputed. Dirty finds that set; State.Repair runs the Algorithm 4.1
// driver over it, sharing every clean node's matrices with the old state.

// Repair returns the State of g — a graph on s's tree whose edges differ
// from s's graph only inside the dirty nodes' subgraphs (see Dirty) —
// recomputing exactly the dirty nodes with the closure mode s was built
// with. The receiver is not modified; on error it stays valid.
func (s *State) Repair(g *graph.Digraph, dirty NodeSet, cfg Config) (*State, error) {
	if g.N() != s.t.N() {
		return nil, fmt.Errorf("augment: graph has %d vertices, tree %d", g.N(), s.t.N())
	}
	cfg.UseFloydWarshall = s.fw
	ns := &State{t: s.t, fw: s.fw, m: slices.Clone(s.m)}
	if err := ns.recompute(g, dirty, cfg); err != nil {
		return nil, err
	}
	return ns, nil
}

// Dirty returns the tree nodes whose subgraph G(t) contains one of the
// given directed pairs, i.e. whose vertex set holds both endpoints: the
// nodes whose matrices a change of those edges can alter. The set is
// closed under ancestors (O(d_G) nodes per pair). The walk descends only
// into children that still contain the pair.
func Dirty(t *separator.Tree, pairs [][2]int) NodeSet {
	d := newNodeSet(len(t.Nodes))
	var mark func(id, u, v int)
	mark = func(id, u, v int) {
		nd := &t.Nodes[id]
		if !containsSorted(nd.V, u) || !containsSorted(nd.V, v) {
			return
		}
		d.add(id)
		if nd.IsLeaf() {
			return
		}
		mark(nd.Children[0], u, v)
		mark(nd.Children[1], u, v)
	}
	for _, p := range pairs {
		mark(0, p[0], p[1])
	}
	return d
}

func containsSorted(s []int, v int) bool {
	_, ok := slices.BinarySearch(s, v)
	return ok
}
