package augment

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"sepsp/internal/graph"
	"sepsp/internal/matrix"
	"sepsp/internal/obs"
	"sepsp/internal/separator"
)

// NodeSet is a set of tree-node ids, one bit per node: the dirty set of an
// incremental repair.
type NodeSet []uint64

// newNodeSet returns an empty set over node ids [0, n).
func newNodeSet(n int) NodeSet { return make(NodeSet, (n+63)/64) }

// add inserts id.
func (s NodeSet) add(id int) { s[id>>6] |= 1 << uint(id&63) }

// Has reports whether id is in the set. A nil set holds every node.
func (s NodeSet) Has(id int) bool { return s == nil || s[id>>6]&(1<<uint(id&63)) != 0 }

// Len returns the number of ids in the set.
func (s NodeSet) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// leavesUp is the one Algorithm 4.1 driver: it runs process on every node
// of dirty (nil: every node), level by level from the deepest up, so a node
// runs after both of its children. The dirty nodes of one level run in
// parallel on cfg.Ex and count as one round group: the level's rounds are
// the maximum over its nodes, matching the PRAM model where the nodes run
// concurrently. cfg.Ctx is polled between levels, and each level is one
// attributed stage (prep.level span and per-level work/round series).
func leavesUp(t *separator.Tree, cfg Config, dirty NodeSet, process func(c Config, nd *separator.Node) (int64, error)) error {
	byLevel := nodesByLevel(t)
	ex := cfg.ex()
	for level := t.Height; level >= 0; level-- {
		if err := cfg.cancelled(); err != nil {
			return err
		}
		var ids []int
		for _, id := range byLevel[level] {
			if dirty.Has(id) {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			continue
		}
		err := cfg.attributed("prep.level",
			obs.LevelKey(obs.MPrepWork, level), obs.LevelKey(obs.MPrepRounds, level),
			[]any{"alg", 41, "level", level, "nodes", len(ids)},
			func(c Config) error {
				rounds := make([]int64, len(ids))
				errs := make([]error, len(ids))
				ex.For(len(ids), func(i int) {
					rounds[i], errs[i] = process(c, &t.Nodes[ids[i]])
				})
				for _, err := range errs {
					if err != nil {
						return err
					}
				}
				c.Stats.AddRounds(slices.Max(rounds))
				return nil
			})
		if err != nil {
			return err
		}
	}
	return nil
}

// State is the retained Algorithm 4.1 result for one graph: for every tree
// node t, dist_{G(t)} over B(t)×B(t), and for internal nodes the closed
// separator graph H_S, dist_{G(t)} over S(t)×S(t). Both are row-major in
// the order of the node's sorted B or S, and share one exact-size
// allocation per node: the B×B block, then the S×S block.
//
// A State is immutable. Repair returns a new State that shares every clean
// node's matrices with its receiver and recomputes the dirty ones into
// fresh slices, so readers of an older State (an index epoch still serving
// pinned requests) never observe a write.
type State struct {
	t  *separator.Tree
	fw bool        // closures by Floyd-Warshall (Config.UseFloydWarshall)
	m  [][]float64 // per node: |B|² B×B distances, then |S|² S×S distances
}

// db returns node id's B(t)×B(t) block.
func (s *State) db(id int) []float64 {
	k := len(s.t.Nodes[id].B)
	return s.m[id][:k*k]
}

// hs returns node id's S(t)×S(t) block (empty for leaves).
func (s *State) hs(id int) []float64 {
	k := len(s.t.Nodes[id].B)
	return s.m[id][k*k:]
}

// Build41 runs Algorithm 4.1 over every node of t and retains the per-node
// matrices. At each internal node t with children t1, t2 (for which
// dist_{G(ti)} on B(ti)×B(ti) is already known):
//
//	(i)   build H_S on S(t) with w(v1,v2) = min_i dist_{G(ti)}(v1,v2);
//	(ii)  close H_S all-pairs  → dist_{G(t)} on S(t)×S(t);
//	(iii) build H on B(t) ∪ S(t) with edge sets B×S, S×B (child distances)
//	      and S×S (closed H_S distances);
//	(iv)  3-limited shortest paths between boundary vertices, realized as
//	      two rectangular min-plus products  (B×S)⊗(S×S)⊗(S×B);
//	(v)   dist_{G(t)} on B(t)×B(t) = min(child distance, 3-limited distance).
//
// Leaves close their O(1)-size subgraph directly.
func Build41(g *graph.Digraph, t *separator.Tree, cfg Config) (*State, error) {
	if g.N() != t.N() {
		return nil, fmt.Errorf("augment: graph has %d vertices, tree %d", g.N(), t.N())
	}
	s := &State{t: t, fw: cfg.UseFloydWarshall,
		m: make([][]float64, len(t.Nodes))}
	if err := s.recompute(g, nil, cfg); err != nil {
		return nil, err
	}
	if cfg.Obs.Enabled() {
		for id := range t.Nodes {
			c := s.nodePairs(id)
			cfg.Obs.Counter(obs.LevelKey(obs.MPrepShortcuts, t.Nodes[id].Level)).Add(int64(c))
			cfg.Obs.Histogram("prep.eplus.per_node").Observe(float64(c))
		}
	}
	return s, nil
}

// Alg41 computes E+ with Algorithm 4.1 (see Build41) and materialises it.
func Alg41(g *graph.Digraph, t *separator.Tree, cfg Config) (*Result, error) {
	s, err := Build41(g, t, cfg)
	if err != nil {
		return nil, err
	}
	return s.Result(), nil
}

// recompute runs the driver over dirty, writing fresh matrices into s.
func (s *State) recompute(g *graph.Digraph, dirty NodeSet, cfg Config) error {
	// Kernel temporaries (leaf closures, product factors, doubling scratch)
	// recycle through one workspace; the retained matrices never enter it.
	ws := matrix.NewWorkspace()
	return leavesUp(s.t, cfg, dirty, func(c Config, nd *separator.Node) (int64, error) {
		if nd.IsLeaf() {
			return s.processLeaf(g, nd, c, ws)
		}
		return s.processInternal(nd, c, ws)
	})
}

// Node returns node id's matrices as views (hs is nil for leaves). Callers
// must not modify them.
func (s *State) Node(id int) (db, hs *matrix.Dense) {
	nd := &s.t.Nodes[id]
	db = &matrix.Dense{R: len(nd.B), C: len(nd.B), A: s.db(id)}
	if !nd.IsLeaf() {
		hs = &matrix.Dense{R: len(nd.S), C: len(nd.S), A: s.hs(id)}
	}
	return db, hs
}

// locate returns, for each element of the sorted set sub, its index in the
// sorted set sup, or -1 when absent (one merge pass).
func locate(sub, sup []int) []int32 {
	pos := make([]int32, len(sub))
	j := 0
	for i, v := range sub {
		for j < len(sup) && sup[j] < v {
			j++
		}
		if j < len(sup) && sup[j] == v {
			pos[i] = int32(j)
		} else {
			pos[i] = -1
		}
	}
	return pos
}

// processLeaf computes the leaf's boundary-pair distances by a full
// Floyd-Warshall on the O(1)-size leaf subgraph.
func (s *State) processLeaf(g *graph.Digraph, nd *separator.Node, cfg Config, ws *matrix.Workspace) (int64, error) {
	full, err := leafClosure(g, nd, cfg, ws)
	if err != nil {
		return 0, err
	}
	nv, k := len(nd.V), len(nd.B)
	bp := locate(nd.B, nd.V)
	d := make([]float64, k*k)
	for i, p := range bp {
		row := full.A[int(p)*nv : (int(p)+1)*nv]
		for j, q := range bp {
			d[i*k+j] = row[q]
		}
	}
	ws.Put(full)
	s.m[nd.ID] = d
	return int64(nv), nil // FW phases on the leaf
}

// processInternal runs steps (i)-(v) of Algorithm 4.1 at one internal
// node, reading the children's matrices from s and storing the node's
// fresh allocation into s. Product factors and scratch come from ws and go
// straight back.
func (s *State) processInternal(nd *separator.Node, cfg Config, ws *matrix.Workspace) (int64, error) {
	c1, c2 := nd.Children[0], nd.Children[1]
	if s.m[c1] == nil || s.m[c2] == nil {
		return 0, fmt.Errorf("augment: node %d processed before its children", nd.ID)
	}
	db1, db2 := s.db(c1), s.db(c2)
	B1, B2 := s.t.Nodes[c1].B, s.t.Nodes[c2].B
	k1, k2 := len(B1), len(B2)
	S, B := nd.S, nd.B
	ns, nb := len(S), len(B)
	// Positions of S(t) and B(t) in the child boundaries (and of B(t) in
	// S(t)); -1 marks an absent vertex.
	s1, s2 := locate(S, B1), locate(S, B2)
	b1, b2, bs := locate(B, B1), locate(B, B2), locate(B, S)

	// The node's one allocation: the B×B block (step (v)'s output) then the
	// S×S block (H_S).
	m := make([]float64, nb*nb+ns*ns)
	dbt := &matrix.Dense{R: nb, C: nb, A: m[:nb*nb]}
	hs := &matrix.Dense{R: ns, C: ns, A: m[nb*nb:]}

	// Step (i): H_S with the min of the two child distances. Every s ∈ S(t)
	// lies in B(t1) ∩ B(t2) by construction.
	for i, u := range S {
		if s1[i] < 0 || s2[i] < 0 {
			return 0, fmt.Errorf("augment: separator vertex %d missing from child boundary at node %d", u, nd.ID)
		}
	}
	for i := range S {
		r1, r2 := db1[int(s1[i])*k1:], db2[int(s2[i])*k2:]
		row := hs.A[i*ns : (i+1)*ns]
		for j := range row {
			w := r1[s1[j]]
			if x := r2[s2[j]]; x < w {
				w = x
			}
			row[j] = w
		}
	}
	cfg.Stats.AddWork(int64(ns) * int64(ns))

	// Step (ii): close H_S.
	if err := closure(hs, cfg, ws); err != nil {
		return 0, fmt.Errorf("%w (separator graph of node %d)", ErrNegativeCycle, nd.ID)
	}
	rounds := closureRounds(ns, cfg)

	// Steps (iii)+(iv): 3-limited boundary-to-boundary distances through S,
	// as (B×S) ⊗ closed(S×S) ⊗ (S×B). Both factor matrices are fully
	// assigned below.
	wBS := ws.Get(nb, ns)
	wSB := ws.Get(ns, nb)
	for bi, b := range B {
		if si := bs[bi]; si >= 0 {
			// b is itself a separator vertex of this node: use the closed
			// H_S row/column directly.
			for sj := range S {
				wBS.Set(bi, sj, hs.At(int(si), sj))
				wSB.Set(sj, bi, hs.At(sj, int(si)))
			}
			continue
		}
		var d []float64
		var k int
		var p int32
		var sp []int32
		switch {
		case b1[bi] >= 0:
			d, k, p, sp = db1, k1, b1[bi], s1
		case b2[bi] >= 0:
			d, k, p, sp = db2, k2, b2[bi], s2
		default:
			return 0, fmt.Errorf("augment: boundary vertex %d of node %d in neither child boundary", b, nd.ID)
		}
		for sj, q := range sp {
			wBS.Set(bi, sj, d[int(p)*k+int(q)])
			wSB.Set(sj, bi, d[int(q)*k+int(p)])
		}
	}
	cfg.Stats.AddWork(2 * int64(nb) * int64(ns))
	if ns > 0 && nb > 0 {
		y := ws.Get(nb, ns)
		matrix.MulMinPlusInto(y, wBS, hs, cfg.ex(), cfg.Stats)
		matrix.MulMinPlusInto(dbt, y, wSB, cfg.ex(), cfg.Stats)
		ws.Put(y)
		rounds += 2 * matrix.MulRounds(ns)
	} else {
		inf := math.Inf(1)
		for i := range dbt.A {
			dbt.A[i] = inf
		}
	}
	ws.Put(wBS)
	ws.Put(wSB)

	// Step (v): combine with within-child boundary distances.
	childMin := func(row []float64, bp []int32, p int32, d []float64, k int) {
		r := d[int(p)*k:]
		for j, q := range bp {
			if q >= 0 {
				if x := r[q]; x < row[j] {
					row[j] = x
				}
			}
		}
	}
	for i := range B {
		row := dbt.A[i*nb : (i+1)*nb]
		if p := b1[i]; p >= 0 {
			childMin(row, b1, p, db1, k1)
		}
		if p := b2[i]; p >= 0 {
			childMin(row, b2, p, db2, k2)
		}
		if row[i] > 0 {
			row[i] = 0
		}
	}
	cfg.Stats.AddWork(int64(nb) * int64(nb))

	s.m[nd.ID] = m
	return rounds + 1, nil
}

// Pairs is a set of E+ contributions grouped by head vertex: head u's
// entries are the pairs (u, To[k]) with weight W[k] for k in
// [Off[u], Off[u+1]).
type Pairs struct {
	Off []int32 // n+1 offsets
	To  []int32
	W   []float64
}

// Contributions collects the E+ contributions of the given nodes (nil:
// every node): every finite off-diagonal entry of their S×S and B×B
// matrices, grouped by head vertex and, within a head, in node-id order
// and row-major within a node.
func (s *State) Contributions(nodes NodeSet) *Pairs {
	// each visits every contributing (row vertex, matrix row, column set).
	each := func(visit func(u int, row []float64, cols []int)) {
		for id := range s.t.Nodes {
			if !nodes.Has(id) {
				continue
			}
			nd := &s.t.Nodes[id]
			if h := s.hs(id); len(h) > 0 {
				for i, u := range nd.S {
					visit(u, h[i*len(nd.S):(i+1)*len(nd.S)], nd.S)
				}
			}
			for i, u := range nd.B {
				visit(u, s.db(id)[i*len(nd.B):(i+1)*len(nd.B)], nd.B)
			}
		}
	}
	n := s.t.N()
	p := &Pairs{Off: make([]int32, n+1)}
	each(func(u int, row []float64, cols []int) {
		for j, x := range row {
			if cols[j] != u && !math.IsInf(x, 1) {
				p.Off[u+1]++
			}
		}
	})
	for u := 0; u < n; u++ {
		p.Off[u+1] += p.Off[u]
	}
	p.To = make([]int32, p.Off[n])
	p.W = make([]float64, p.Off[n])
	cur := slices.Clone(p.Off[:n])
	each(func(u int, row []float64, cols []int) {
		c := cur[u]
		for j, x := range row {
			if cols[j] != u && !math.IsInf(x, 1) {
				p.To[c], p.W[c] = int32(cols[j]), x
				c++
			}
		}
		cur[u] = c
	})
	return p
}

// Result materialises E+ from the matrices: one edge per ordered pair with
// the minimum weight over its contributions (Section 3.1), self-loops and
// +Inf omitted. The order is deterministic — by head vertex, then by first
// contribution (see Contributions) — so equal states give equal lists.
func (s *State) Result() *Result {
	p := s.Contributions(nil)
	n := len(p.Off) - 1
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = -1
	}
	res := &Result{RawCount: int64(len(p.To))}
	for u := 0; u < n; u++ {
		first := len(res.Edges)
		for k := p.Off[u]; k < p.Off[u+1]; k++ {
			v, w := p.To[k], p.W[k]
			if q := pos[v]; q >= 0 {
				if w < res.Edges[q].W {
					res.Edges[q].W = w
				}
				continue
			}
			pos[v] = int32(len(res.Edges))
			res.Edges = append(res.Edges, graph.Edge{From: u, To: int(v), W: w})
		}
		for _, e := range res.Edges[first:] {
			pos[e.To] = -1
		}
	}
	return res
}

// nodePairs counts node id's distinct E+ pairs: finite off-diagonal
// entries of S×S ∪ B×B, a pair in both counted once.
func (s *State) nodePairs(id int) int {
	nd := &s.t.Nodes[id]
	finite := func(m []float64, k int, skip func(i, j int) bool) int {
		c := 0
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if i != j && !math.IsInf(m[i*k+j], 1) && !skip(i, j) {
					c++
				}
			}
		}
		return c
	}
	c := finite(s.db(id), len(nd.B), func(int, int) bool { return false })
	if h := s.hs(id); len(h) > 0 {
		// A pair of S(t) ∩ B(t) vertices is already counted by its B×B
		// entry, which is never larger than the S×S one.
		sb := locate(nd.S, nd.B)
		c += finite(h, len(nd.S), func(i, j int) bool { return sb[i] >= 0 && sb[j] >= 0 })
	}
	return c
}
