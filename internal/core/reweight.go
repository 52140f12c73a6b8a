package core

import (
	"math"
	"slices"

	"sepsp/internal/augment"
	"sepsp/internal/graph"
	"sepsp/internal/separator"
)

// Reweight returns the engine for g, a graph over e's decomposition tree
// (same vertex count and undirected skeleton), together with the number of
// tree nodes whose matrices were recomputed. e is not modified and stays
// fully usable.
//
// When e retains its Algorithm 4.1 matrices, cfg selects Alg41 and g has
// e's directed edge set with only finite weights changed, the repair is
// proportional to the change: the nodes whose subgraph contains a changed
// edge are recomputed (augment.Dirty, State.Repair), every other node's
// matrices are shared with e, and the new schedule shares e's arena
// structure and patches a copy of its weight array. Otherwise every node
// is rebuilt by NewEngine with cfg.
func (e *Engine) Reweight(g *graph.Digraph, cfg Config) (*Engine, int, error) {
	changed, same := e.g.WeightChanges(g)
	if e.state == nil || cfg.Algorithm != Alg41 || !same || !finiteChanges(e.g, g, changed) {
		eng, err := NewEngine(g, e.tree, cfg)
		return eng, len(e.tree.Nodes), err
	}
	ex := cfg.Ex
	if ex == nil {
		ex = e.ex
	}
	eng := &Engine{g: g, tree: e.tree, state: e.state, shortcuts: e.shortcuts, schedule: e.schedule,
		ex: ex, obs: cfg.Obs, inj: cfg.Inject}
	if len(changed) == 0 {
		return eng, 0, nil
	}
	pairs := make([][2]int, len(changed))
	for k, i := range changed {
		ed := g.EdgeAt(i)
		pairs[k] = [2]int{ed.From, ed.To}
	}
	dirty := augment.Dirty(e.tree, pairs)
	st, err := e.state.Repair(g, dirty, augment.Config{Ex: ex, Stats: cfg.PrepStats, Obs: cfg.Obs, Ctx: cfg.Ctx})
	if err != nil {
		return nil, 0, err
	}
	eng.state = st
	eng.schedule = e.schedule.reweighted(e.tree, g, changed, st.Contributions(dirty))
	return eng, dirty.Len(), nil
}

// finiteChanges reports whether every changed edge is finite before and
// after: then which pairs of every G(t) are connected — the E+ pair set,
// and with it the schedule's layout — cannot change.
func finiteChanges(old, g *graph.Digraph, changed []int) bool {
	for _, i := range changed {
		if math.IsInf(old.EdgeAt(i).W, 1) || math.IsInf(g.EdgeAt(i).W, 1) {
			return false
		}
	}
	return true
}

// reweighted returns the schedule of g, a graph with the structure of s's
// graph whose changed edges (EdgeList indices) are the only ones that
// differ and whose E+ differs only in pairs the contributions p cover: p
// holds every contribution of the recomputed tree nodes. The result shares
// every structural array with s (bucket layout, runs, ℓ-block map) and
// owns a patched copy of the weight array, so s stays valid for queries
// still running on it.
//
// A pair's E+ weight is the minimum of its contributions, and that minimum
// is attained at the shallowest node contributing the pair, an ancestor of
// every other contributor (a parent's distances never exceed a child's).
// Ancestors of a recomputed node are recomputed too, so the minimum over
// the recomputed contributions is the pair's new weight.
func (s *Schedule) reweighted(t *separator.Tree, g *graph.Digraph, changed []int, p *augment.Pairs) *Schedule {
	w := slices.Clone(s.w)
	ns := &Schedule{height: s.height, l: s.l, buckets: slices.Clone(s.buckets), runs: s.runs,
		prevRuns: s.prevRuns, eAllBlocks: s.eAllBlocks, eAllBlockOf: s.eAllBlockOf, to: s.to, w: w}
	for id := range ns.buckets {
		b := &ns.buckets[id]
		b.w = w[b.eBase : int(b.eBase)+len(b.to)]
	}

	// Index the level-bucket runs by head: head u's runs are
	// runs[head[u]:head[u+1]], each a bucket id and arena range.
	type span struct{ id, lo, hi int32 }
	n := t.N()
	head := make([]int32, n+1)
	for id := 1; id < len(s.buckets); id++ {
		for _, hr := range s.buckets[id].rle {
			head[hr.h+1]++
		}
	}
	for u := 0; u < n; u++ {
		head[u+1] += head[u]
	}
	runs := make([]span, head[n])
	cur := slices.Clone(head[:n])
	for id := 1; id < len(s.buckets); id++ {
		b := &s.buckets[id]
		lo := b.eBase
		for _, hr := range b.rle {
			hi := b.eBase + hr.hi
			runs[cur[hr.h]] = span{int32(id), lo, hi}
			cur[hr.h]++
			lo = hi
		}
	}

	// Original edges. The eAll bucket is the edge list itself at arena
	// offset 0. In a level bucket, a head's run starts with its original
	// edges of that bucket in edge-list order, so rewriting every original
	// edge of a head with a changed one walks its adjacency once.
	last := -1
	for _, i := range changed {
		ed := g.EdgeAt(i)
		w[i] = ed.W
		if ed.From == last {
			continue
		}
		u := ed.From
		last = u
		ur := runs[head[u]:head[u+1]]
		next := make([]int32, len(ur))
		g.Out(u, func(v int, wt float64) bool {
			id := int32(s.levelBucket(t, u, v))
			for r := range ur {
				if ur[r].id == id {
					w[ur[r].lo+next[r]] = wt
					next[r]++
				}
			}
			return true
		})
	}

	// Shortcut edges. A pair (u, v) and the original edges u→v share one
	// bucket (it depends only on the endpoints' levels), and u's run there
	// lists its shortcuts after its original edges, so the last slot of u
	// targeting v is the shortcut.
	pos := make([]int32, n)
	for v := range pos {
		pos[v] = -1
	}
	inf := math.Inf(1)
	for u := 0; u < n; u++ {
		lo, hi := p.Off[u], p.Off[u+1]
		if lo == hi {
			continue
		}
		ur := runs[head[u]:head[u+1]]
		for _, r := range ur {
			for j := r.lo; j < r.hi; j++ {
				pos[s.to[j]] = j
			}
		}
		to, pw := p.To[lo:hi], p.W[lo:hi]
		for _, v := range to {
			if pos[v] < 0 {
				panic("core: E+ pair without a schedule slot")
			}
			w[pos[v]] = inf
		}
		for k, v := range to {
			if x := pw[k]; x < w[pos[v]] {
				w[pos[v]] = x
			}
		}
		for _, r := range ur {
			for j := r.lo; j < r.hi; j++ {
				pos[s.to[j]] = -1
			}
		}
	}
	return ns
}
