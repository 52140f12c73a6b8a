// Package augment implements the paper's core contribution: constructing the
// shortcut edge set E+ (Section 3.1) from a separator decomposition tree,
// with the two computation strategies of Section 4:
//
//   - Alg41 — "computing E+ from the leaves up" (Algorithm 4.1): one
//     all-pairs closure on each separator graph H_S plus a 3-limited
//     computation on the boundary graph H, processed level by level.
//   - Alg43 — the faster simultaneous algorithm (Algorithm 4.3): every tree
//     node repeatedly applies one path-doubling step to its local complete
//     graph H(t) and pulls improved weights from its children, saving a
//     Θ(log n) factor in parallel time at the cost of a Θ(log n) factor in
//     work.
//
// Both produce identical E+ weights: for every tree node t, an edge (v1, v2)
// with weight dist_{G(t)}(v1, v2) for every pair in S(t)×S(t) ∪ B(t)×B(t)
// (Theorem 3.1 / Proposition 4.2 / Proposition 4.5). A boolean variant for
// reachability (the paper's M(n^μ) bounds) lives in boolean.go.
package augment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"sepsp/internal/graph"
	"sepsp/internal/matrix"
	"sepsp/internal/obs"
	"sepsp/internal/pram"
	"sepsp/internal/separator"
)

// ErrNegativeCycle reports that the input graph contains a negative-weight
// cycle; per the paper's comment (i), detection happens within the
// preprocessing resource bounds.
var ErrNegativeCycle = errors.New("augment: negative-weight cycle detected")

// Config controls an augmentation run.
type Config struct {
	// Ex supplies the parallel executor; nil means pram.Sequential.
	Ex *pram.Executor
	// Stats receives work/round counts; nil discards them.
	Stats *pram.Stats
	// UseFloydWarshall switches per-node closures from repeated squaring
	// (O(log²) time, O(n³ log n) work — the paper's parallel choice) to
	// Floyd-Warshall (O(n) phases, O(n³) work — the sequential choice).
	UseFloydWarshall bool
	// Obs receives phase-scoped traces and metrics: per-tree-level work,
	// rounds, and E+ contributions for Alg41, per-iteration attribution for
	// Alg43. Nil disables instrumentation entirely (the counted totals in
	// Stats are identical either way).
	Obs *obs.Sink
	// Ctx, when non-nil, makes the construction cancellable: it is polled
	// between tree levels (Alg41) and between doubling iterations (Alg43),
	// and a cancelled run returns ctx.Err() within one level/iteration of
	// work. Nil runs to completion.
	Ctx context.Context
}

// cancelled reports the configured context's error, if any; the cheap poll
// both algorithms run at their outer-loop boundaries.
func (c Config) cancelled() error {
	if c.Ctx == nil {
		return nil
	}
	return c.Ctx.Err()
}

// attributed runs stage under Stats sub-accounting when Obs is enabled: the
// stage's work/rounds are counted into a fresh pram.Stats, forwarded into
// cfg.Stats (so totals never change), and recorded under the per-stage
// metric keys workKey/roundsKey plus a trace span. With Obs disabled the
// stage runs with cfg untouched.
func (c Config) attributed(span string, workKey, roundsKey string, kv []any, stage func(Config) error) error {
	if !c.Obs.Enabled() {
		return stage(c)
	}
	sub := &pram.Stats{}
	sc := c
	sc.Stats = sub
	sp := c.Obs.Span(span, "prep", kv...)
	var err error
	c.Obs.Do(func() { err = stage(sc) }, pprofLabels(span, kv)...)
	sp.End()
	c.Stats.AddWork(sub.Work())
	c.Stats.AddRounds(sub.Rounds())
	c.Obs.Counter(workKey).Add(sub.Work())
	c.Obs.Counter(roundsKey).Add(sub.Rounds())
	return err
}

// pprofLabels flattens a span name and its kv args into a pprof label list
// (string values only; numbers are formatted).
func pprofLabels(span string, kv []any) []string {
	labels := []string{"phase", span}
	for i := 0; i+1 < len(kv); i += 2 {
		k, ok := kv[i].(string)
		if !ok {
			continue
		}
		labels = append(labels, k, fmt.Sprint(kv[i+1]))
	}
	return labels
}

func (c Config) ex() *pram.Executor {
	if c.Ex == nil {
		return pram.Sequential
	}
	return c.Ex
}

// Result is a computed augmentation.
type Result struct {
	// Edges is the deduplicated E+: at most one edge per ordered pair (the
	// minimum-weight parallel edge, per Section 3.1), self-loops omitted.
	Edges []graph.Edge
	// RawCount is the number of (pair, node) contributions before
	// deduplication — the quantity bounded by Theorem 5.1(iii).
	RawCount int64
}

// collector deduplicates shortcut edges, keeping the minimum weight per
// ordered pair. It is not safe for concurrent use; callers merge per-level.
type collector struct {
	m   map[int64]float64
	raw int64
}

func newCollector() *collector { return &collector{m: make(map[int64]float64)} }

func pairKey(u, v int) int64 { return int64(u)<<32 | int64(uint32(v)) }

func (c *collector) add(u, v int, w float64) {
	if u == v || math.IsInf(w, 1) {
		return
	}
	c.raw++
	k := pairKey(u, v)
	if old, ok := c.m[k]; !ok || w < old {
		c.m[k] = w
	}
}

func (c *collector) result() *Result {
	edges := make([]graph.Edge, 0, len(c.m))
	for k, w := range c.m {
		edges = append(edges, graph.Edge{From: int(k >> 32), To: int(uint32(k)), W: w})
	}
	return &Result{Edges: edges, RawCount: c.raw}
}

// indexOf builds a vertex -> position map for a sorted label set.
func indexOf(vs []int) map[int]int {
	m := make(map[int]int, len(vs))
	for i, v := range vs {
		m[v] = i
	}
	return m
}

// leafClosure computes all-pairs distances within the leaf subgraph G(t)
// (induced on V(t)) and returns the dense |V|×|V| closure, rows and columns
// in the sorted order of V(t). Leaves are O(1)-sized, so Floyd-Warshall is
// used regardless of mode; a negative diagonal reports a negative cycle
// confined to the leaf. The returned matrix is ws-owned scratch: callers
// restrict it to the entries they keep and Put it back.
func leafClosure(g *graph.Digraph, nd *separator.Node, cfg Config, ws *matrix.Workspace) (*matrix.Dense, error) {
	d := ws.GetSquare(len(nd.V))
	for i, v := range nd.V {
		g.Out(v, func(to int, w float64) bool {
			if j, ok := slices.BinarySearch(nd.V, to); ok {
				d.SetMin(i, j, w)
			}
			return true
		})
	}
	if err := matrix.FloydWarshall(d, pram.Sequential, cfg.Stats); err != nil {
		ws.Put(d)
		return nil, fmt.Errorf("%w (inside leaf node %d)", ErrNegativeCycle, nd.ID)
	}
	return d, nil
}

// closure runs the configured all-pairs closure in place, drawing doubling
// scratch from ws.
func closure(d *matrix.Dense, cfg Config, ws *matrix.Workspace) error {
	if cfg.UseFloydWarshall {
		return matrix.FloydWarshall(d, cfg.ex(), cfg.Stats)
	}
	return matrix.ClosureWS(d, ws, cfg.ex(), cfg.Stats)
}

// closureRounds is the analytic PRAM round count of one closure on a k×k
// matrix under the configured mode.
func closureRounds(k int, cfg Config) int64 {
	if k <= 1 {
		return 1
	}
	if cfg.UseFloydWarshall {
		return int64(k)
	}
	return matrix.MulRounds(k) * matrix.MulRounds(k) // log k squarings × log k depth
}

// nodesByLevel groups node ids by tree level, deepest first.
func nodesByLevel(t *separator.Tree) [][]int {
	byLevel := make([][]int, t.Height+1)
	for i := range t.Nodes {
		l := t.Nodes[i].Level
		byLevel[l] = append(byLevel[l], i)
	}
	return byLevel
}
