package augment

import (
	"fmt"

	"sepsp/internal/bitmat"
	"sepsp/internal/graph"
	"sepsp/internal/separator"
)

// Reach41 is the reachability instantiation of Algorithm 4.1 (leaves-up).
// Per internal node, step (ii)'s all-pairs closure and step (iv)'s
// 3-limited computation both become boolean matrix products — the paper's
// "step ii in O(log² |S|) time using M(|S|) log |S| work, step iv using
// M(|S| + |B|) work" — realized with the word-parallel bitset kernel.
//
// It produces exactly the same boolean E+ as Reach43 (both compute
// reachability within every G(t) restricted to S(t)×S(t) ∪ B(t)×B(t)).
func Reach41(g *graph.Digraph, t *separator.Tree, cfg Config) (*Result, error) {
	if g.N() != t.N() {
		return nil, fmt.Errorf("augment: graph has %d vertices, tree %d", g.N(), t.N())
	}
	nn := len(t.Nodes)
	// rb[id] holds node id's reachability matrix: over B(t) for leaves,
	// over U(t) = S(t) ∪ B(t) for internal nodes (bIdx maps vertices to
	// positions). Matrices stay alive until final collection.
	rb := make([]*bitmat.Matrix, nn)
	bIdx := make([]map[int]int, nn)
	err := leavesUp(t, cfg, nil, func(c Config, nd *separator.Node) (int64, error) {
		if nd.IsLeaf() {
			return processLeafReach41(g, nd, rb, bIdx, c), nil
		}
		return processInternalReach41(nd, rb, bIdx, c)
	})
	if err != nil {
		return nil, err
	}
	// Collect E_t = S(t)×S(t) ∪ B(t)×B(t) from every node's stored matrix.
	out := newCollector()
	for id := range t.Nodes {
		nd := &t.Nodes[id]
		m := rb[id]
		if m == nil {
			continue
		}
		idx := bIdx[id]
		emit := func(set []int) {
			for _, a := range set {
				ia, ok := idx[a]
				if !ok {
					continue
				}
				for _, b := range set {
					ib, ok := idx[b]
					if !ok {
						continue
					}
					if a != b && m.Get(ia, ib) {
						out.add(a, b, 0)
					}
				}
			}
		}
		emit(nd.S)
		emit(nd.B)
	}
	return out.result(), nil
}

// processLeafReach41 computes the leaf's U×U reachability (U = B for
// leaves) from the full closure of the O(1)-size leaf subgraph.
func processLeafReach41(g *graph.Digraph, nd *separator.Node, rb []*bitmat.Matrix, bIdx []map[int]int, cfg Config) int64 {
	idx := indexOf(nd.V)
	adj := bitmat.New(len(nd.V))
	for i, v := range nd.V {
		g.Out(v, func(to int, _ float64) bool {
			if j, ok := idx[to]; ok {
				adj.Set(i, j, true)
			}
			return true
		})
	}
	cl := bitmat.Closure(adj, nil, cfg.Stats)
	m := bitmat.New(len(nd.B))
	for i, a := range nd.B {
		for j, b := range nd.B {
			m.Set(i, j, cl.Get(idx[a], idx[b]))
		}
	}
	rb[nd.ID] = m
	bIdx[nd.ID] = indexOf(nd.B)
	return int64(ceilLog2(len(nd.V)) + 1)
}

// processInternalReach41 mirrors Algorithm 4.1's steps over the boolean
// semiring. The whole node is handled as one U×U matrix over U = S ∪ B:
// child reachabilities are ORed in (step i + the child contributions of
// step v), the S-block is closed (step ii), and one bounded-power pass
// H^(2·) ∪ … captures the 3-limited B→S→S→B paths (steps iii-iv).
func processInternalReach41(nd *separator.Node, rb []*bitmat.Matrix, bIdx []map[int]int, cfg Config) (int64, error) {
	c1, c2 := nd.Children[0], nd.Children[1]
	rb1, rb2 := rb[c1], rb[c2]
	idx1, idx2 := bIdx[c1], bIdx[c2]
	if rb1 == nil || rb2 == nil {
		return 0, fmt.Errorf("augment: node %d processed before its children", nd.ID)
	}
	u := unionSorted(nd.S, nd.B)
	uIdx := indexOf(u)
	k := len(u)
	h := bitmat.Identity(k)
	// Child reachability between every pair of U vertices present in the
	// child's boundary — this covers the H edge sets B×S, S×B (and
	// contributes the direct child B×B paths of step v).
	pull := func(m *bitmat.Matrix, idx map[int]int) {
		var work int64
		for i, a := range u {
			pa, ok := idx[a]
			if !ok {
				continue
			}
			for j, b := range u {
				if pb, ok := idx[b]; ok && m.Get(pa, pb) {
					h.Set(i, j, true)
				}
			}
			work += int64(len(u))
		}
		cfg.Stats.AddWork(work)
	}
	pull(rb1, idx1)
	pull(rb2, idx2)
	// Close: paths alternate child-segments through S(t); |S| hops suffice,
	// so squaring ceil(log2 |S|)+2 times reaches the fixpoint. (This folds
	// steps (ii) and (iv) into one bounded closure on H, which computes the
	// same U×U reachability.)
	rounds := int64(0)
	next := bitmat.New(k) // ping-pong partner of h, reused across iterations
	for it := 0; it < ceilLog2(len(nd.S)+2)+2; it++ {
		bitmat.MulInto(next, h, h, cfg.ex(), cfg.Stats)
		next.OrInPlace(h)
		rounds += int64(ceilLog2(k) + 1)
		if next.Equal(h) {
			break
		}
		h, next = next, h
	}
	rb[nd.ID] = h
	bIdx[nd.ID] = uIdx
	return rounds, nil
}
