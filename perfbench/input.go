package main

import (
	"math/rand"
	"sync"

	"sepsp"
	"sepsp/internal/graph"
	"sepsp/internal/graph/gen"
)

// The common input of every workload: a 64×64 grid digraph (n = 4096,
// separator exponent μ = 1/2) with independent uniform weights in
// [0.5, 2) on both directions of every lattice edge.
const (
	gridSide     = 64
	weightLo     = 0.5
	weightHi     = 2.0
	editsPerSwap = 16  // edge weights the writer rescales per Reweight
	zipfS        = 1.1 // Zipf exponent of the skewed source popularity
	zipfV        = 1.0 // Zipf offset: P(rank k) ∝ (zipfV + k)^-zipfS
	mib          = 1 << 20
)

// input is one workload's generated graph. Generation runs before any
// timing starts.
type input struct {
	n     int
	coord [][]int      // lattice coordinates, for GridDecomposition
	edges []graph.Edge // base edge list; versions rescale its weights
}

func newInput(seed int64) *input {
	rng := rand.New(rand.NewSource(seed))
	g := gen.NewGrid([]int{gridSide, gridSide}, gen.UniformWeights(weightLo, weightHi), rng)
	return &input{n: g.G.N(), coord: g.Coord, edges: g.G.EdgeList()}
}

// baseWeights returns a fresh copy of the generated edge weights.
func (in *input) baseWeights() []float64 {
	w := make([]float64, len(in.edges))
	for i, e := range in.edges {
		w[i] = e.W
	}
	return w
}

// publicGraph is the sepsp.Graph for one weight vector over the input's
// edge list (same skeleton for every vector).
func (in *input) publicGraph(w []float64) *sepsp.Graph {
	g := sepsp.NewGraph(in.n)
	for i, e := range in.edges {
		g.AddEdge(e.From, e.To, w[i])
	}
	return g
}

// digraph is the internal graph for one weight vector, for the layer
// timings and answer checks.
func (in *input) digraph(w []float64) *graph.Digraph {
	es := make([]graph.Edge, len(in.edges))
	for i, e := range in.edges {
		es[i] = graph.Edge{From: e.From, To: e.To, W: w[i]}
	}
	return graph.FromEdges(in.n, es)
}

// versions is the writer's deterministic sequence of edge-weight vectors:
// version 0 is the generated weights, and version k rescales editsPerSwap
// distinct edges of version k-1 by independent factors in [0.5, 2]. Every
// version keeps the skeleton. Safe for concurrent use: the writer appends
// while readers check answers against earlier versions.
type versions struct {
	in  *input
	rng *rand.Rand // guarded by mu

	mu      sync.Mutex
	weights [][]float64
	graphs  []*graph.Digraph // built on first use
}

func newVersions(in *input, seed int64) *versions {
	return &versions{
		in:      in,
		rng:     rand.New(rand.NewSource(seed ^ 0x5eed_11e5)),
		weights: [][]float64{in.baseWeights()},
		graphs:  []*graph.Digraph{nil},
	}
}

// next derives, records and returns the weights of the next version.
func (vs *versions) next() []float64 {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	w := append([]float64(nil), vs.weights[len(vs.weights)-1]...)
	for _, i := range vs.rng.Perm(len(w))[:editsPerSwap] {
		w[i] *= 0.5 + 1.5*vs.rng.Float64()
	}
	vs.weights = append(vs.weights, w)
	vs.graphs = append(vs.graphs, nil)
	return w
}

// at returns version k's weights.
func (vs *versions) at(k int) []float64 {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	return vs.weights[k]
}

// graph returns version k's internal digraph, building it once.
func (vs *versions) graph(k int) *graph.Digraph {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if vs.graphs[k] == nil {
		vs.graphs[k] = vs.in.digraph(vs.weights[k])
	}
	return vs.graphs[k]
}

// sourceFn draws the next source vertex of one client's sequence.
type sourceFn func() int

// uniformSources draws sources uniformly over [0, n).
func uniformSources(rng *rand.Rand, n int) sourceFn {
	return func() int { return rng.Intn(n) }
}

// zipfSources draws Zipf(zipfS)-ranked sources over [0, n); rank k maps to
// vertex perm[k], so the hot set is spread over the grid by the seed
// rather than packed into one corner.
func zipfSources(rng *rand.Rand, perm []int) sourceFn {
	z := rand.NewZipf(rng, zipfS, zipfV, uint64(len(perm)-1))
	return func() int { return perm[z.Uint64()] }
}

// popularity is the workload-wide rank → vertex permutation shared by all
// of a workload's Zipf clients.
func popularity(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed ^ 0x21bf)).Perm(n)
}

// clientSources is client id's source sequence under workload w; perm is
// the workload's popularity permutation.
func clientSources(w *workload, seed int64, perm []int, id int) sourceFn {
	rng := rand.New(rand.NewSource(seed*7919 + int64(id)))
	if w.zipf {
		return zipfSources(rng, perm)
	}
	return uniformSources(rng, len(perm))
}
