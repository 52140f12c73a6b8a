package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"sepsp/internal/augment"
	"sepsp/internal/faultinject"
	"sepsp/internal/graph"
	"sepsp/internal/obs"
	"sepsp/internal/pram"
	"sepsp/internal/separator"
)

// Algorithm selects the E+ construction strategy.
type Algorithm int

const (
	// Alg41 is Algorithm 4.1: leaves-up, O(d_G·log² n) time, lower work.
	Alg41 Algorithm = iota
	// Alg43 is Algorithm 4.3: simultaneous path doubling, O(d_G·log n + log² n)
	// time, an extra O(log n) factor of work.
	Alg43
)

// Config configures engine construction.
type Config struct {
	// Ex is the parallel executor (nil: sequential).
	Ex *pram.Executor
	// Algorithm selects Alg41 (default) or Alg43.
	Algorithm Algorithm
	// UseFloydWarshall switches per-node closures in Alg41 to Floyd-Warshall
	// (the sequential-work-optimal choice).
	UseFloydWarshall bool
	// PrepStats receives preprocessing work/round counts (nil discards).
	PrepStats *pram.Stats
	// Obs receives phase-scoped traces and metrics for preprocessing and
	// for every query the engine answers (nil: fully disabled — queries
	// take the uninstrumented path).
	Obs *obs.Sink
	// Inject, when non-nil, fires at every Bellman-Ford phase boundary
	// (site faultinject.SiteQueryPhase) — the chaos-test hook. Production
	// leaves it nil and pays one dead branch per phase.
	Inject faultinject.Injector
	// Ctx, when non-nil, makes the E+ construction cancellable: it is
	// polled at the augmentation's outer-loop boundaries (tree levels for
	// Alg41, doubling iterations for Alg43) and a cancelled construction
	// returns ctx.Err(). Nil builds to completion.
	Ctx context.Context
}

// Engine is a preprocessed shortest-path oracle for one digraph and one
// separator decomposition tree. Construction computes E+ (and fails with
// augment.ErrNegativeCycle if the graph has one); queries then answer
// single-source problems in Schedule.Phases() Bellman-Ford phases.
//
// After construction an Engine is immutable (SetObs excepted) and all query
// methods are safe for arbitrary concurrent use; per-query scratch that
// never escapes a call is recycled through an internal pool, so the
// steady-state allocation cost of a query is just its result slices.
type Engine struct {
	g    *graph.Digraph
	tree *separator.Tree
	// E+ is held in one of two forms: an Alg41 engine retains the per-node
	// matrices (state), from which a reweight recomputes only what changed;
	// Alg43 engines and engines assembled from parts keep the list (aug).
	state     *augment.State
	aug       *augment.Result
	shortcuts int // |E+|
	schedule  *Schedule
	ex        *pram.Executor
	obs       *obs.Sink
	inj       faultinject.Injector

	wsPool sync.Pool // of *queryWS
}

// queryWS is the reusable per-query scratch handed out by the engine's
// pool: an int queue for tight-tree BFS and the query's convergence-pruning
// trackers. Only scratch that never escapes a query is pooled — result
// slices returned to callers are always freshly allocated.
type queryWS struct {
	queue []int

	// Convergence-pruning scratch: prevT is the run-delta tracker (per
	// global run slot, the head distance at the run's last relaxation),
	// blockDirty the ℓ-block frontier flags (one per eAllBlockRuns-run
	// block of the eAll bucket, plus the dummy slot for vertices heading
	// no original edge). See relaxEAllBlocks.
	prevT      []float64
	blockDirty []bool
}

// growPrev returns the run-delta tracker for n runs, every entry reset to
// +Inf (the state before any relaxation), reusing capacity.
func (ws *queryWS) growPrev(n int) []float64 {
	if cap(ws.prevT) < n {
		ws.prevT = make([]float64, n)
	}
	p := ws.prevT[:n]
	inf := math.Inf(1)
	for i := range p {
		p[i] = inf
	}
	return p
}

// growBlockDirty returns the ℓ-block frontier flags for blocks real blocks
// plus the dummy marking slot, every flag cleared, reusing capacity.
func (ws *queryWS) growBlockDirty(blocks int) []bool {
	n := blocks + 1
	if cap(ws.blockDirty) < n {
		ws.blockDirty = make([]bool, n)
	}
	d := ws.blockDirty[:n]
	for i := range d {
		d[i] = false
	}
	return d
}

func (e *Engine) getWS() *queryWS {
	ws, _ := e.wsPool.Get().(*queryWS)
	if ws == nil {
		ws = &queryWS{}
	}
	return ws
}

func (e *Engine) putWS(ws *queryWS) { e.wsPool.Put(ws) }

// NewEngine preprocesses g with the given decomposition tree.
func NewEngine(g *graph.Digraph, tree *separator.Tree, cfg Config) (*Engine, error) {
	ex := cfg.Ex
	if ex == nil {
		ex = pram.Sequential
	}
	acfg := augment.Config{Ex: ex, Stats: cfg.PrepStats, UseFloydWarshall: cfg.UseFloydWarshall, Obs: cfg.Obs, Ctx: cfg.Ctx}
	var eng *Engine
	switch cfg.Algorithm {
	case Alg41:
		st, err := augment.Build41(g, tree, acfg)
		if err != nil {
			return nil, err
		}
		// The list is only needed to lay out the schedule; the engine keeps
		// the matrices instead.
		eng = NewEngineFromParts(g, tree, st.Result(), ex)
		eng.state, eng.aug = st, nil
	case Alg43:
		res, err := augment.Alg43(g, tree, acfg)
		if err != nil {
			return nil, err
		}
		eng = NewEngineFromParts(g, tree, res, ex)
	default:
		return nil, fmt.Errorf("core: unknown algorithm %d", cfg.Algorithm)
	}
	eng.obs = cfg.Obs
	eng.inj = cfg.Inject
	return eng, nil
}

// NewEngineFromParts assembles an engine from an already-computed
// augmentation — the entry point for deserialized indexes. No
// recomputation or negative-cycle check happens here; the parts are
// trusted.
func NewEngineFromParts(g *graph.Digraph, tree *separator.Tree, res *augment.Result, ex *pram.Executor) *Engine {
	if ex == nil {
		ex = pram.Sequential
	}
	l := tree.MaxLeafSize() - 1
	if l < 0 {
		l = 0
	}
	return &Engine{
		g:         g,
		tree:      tree,
		aug:       res,
		shortcuts: len(res.Edges),
		schedule:  NewSchedule(tree, g.EdgeList(), res.Edges, l),
		ex:        ex,
	}
}

// Graph returns the underlying digraph.
func (e *Engine) Graph() *graph.Digraph { return e.g }

// Tree returns the decomposition tree.
func (e *Engine) Tree() *separator.Tree { return e.tree }

// Augmentation returns the computed E+. An Alg41 engine keeps its
// per-node matrices rather than the list and materialises a fresh list on
// every call.
func (e *Engine) Augmentation() *augment.Result {
	if e.state != nil {
		return e.state.Result()
	}
	return e.aug
}

// Shortcuts returns |E+|, the number of shortcut edges.
func (e *Engine) Shortcuts() int { return e.shortcuts }

// State returns the retained Algorithm 4.1 matrices (nil for an engine
// built by Alg43 or assembled from parts).
func (e *Engine) State() *augment.State { return e.state }

// Schedule returns the query phase schedule.
func (e *Engine) Schedule() *Schedule { return e.schedule }

// SetObs attaches an observability sink to an already-assembled engine (the
// NewEngineFromParts path); nil detaches.
func (e *Engine) SetObs(s *obs.Sink) { e.obs = s }

// SetInject attaches a phase-boundary fault injector to an already-
// assembled engine; nil detaches. Not safe to call concurrently with
// queries — wire it before serving, like SetObs.
func (e *Engine) SetInject(inj faultinject.Injector) { e.inj = inj }

// Injector returns the attached phase-boundary fault injector (nil if none).
func (e *Engine) Injector() faultinject.Injector { return e.inj }

// firePhase triggers the injector at a phase boundary (nil: no-op).
func (e *Engine) firePhase() {
	if e.inj != nil {
		e.inj.Fire(faultinject.SiteQueryPhase)
	}
}

// DiameterBound returns Theorem 3.1's bound on diam(G+).
func (e *Engine) DiameterBound() int { return augment.DiameterBound(e.tree) }

// SSSP computes distances from src to every vertex. st (optional) receives
// the counted relaxation work and phase rounds. The steady-state heap cost
// of a query is one allocation — the returned distance slice.
func (e *Engine) SSSP(src int, st *pram.Stats) []float64 {
	dist, _ := e.SSSPContext(nil, src, st)
	return dist
}

// SSSPContext is SSSP with cooperative cancellation: ctx is polled between
// Bellman-Ford phases, so a cancelled or expired context returns
// (nil, ctx.Err()) within one phase of relaxation work. A nil ctx skips
// the polling.
func (e *Engine) SSSPContext(ctx context.Context, src int, st *pram.Stats) ([]float64, error) {
	dist := newDistVector(e.g.N())
	dist[src] = 0
	if err := e.runSchedule(ctx, dist, st); err != nil {
		return nil, err
	}
	return dist, nil
}

// SSSPFrom runs the scheduled Bellman-Ford from an arbitrary initial
// distance vector (entries may be +Inf). This generality serves the
// difference-constraint application (Section 1): a virtual super-source
// with zero-weight edges to every vertex is exactly the all-zeros initial
// vector, so no extra vertex — which would wreck the separator structure —
// is needed.
func (e *Engine) SSSPFrom(init []float64, st *pram.Stats) []float64 {
	if len(init) != e.g.N() {
		panic("core: initial vector size mismatch")
	}
	dist := make([]float64, len(init))
	copy(dist, init)
	e.runSchedule(nil, dist, st)
	return dist
}

// The query's convergence-pruned kernels. All three relax
// one SoA phase bucket into dist and report whether any distance improved.
// Per head-run, dist[head] is loaded once; that is exact because a run's
// own edges cannot lower its head (an improving self-loop would be a
// negative cycle, rejected at construction), so the cached value equals
// what a per-edge reload in the same order would read.
//
// relaxBucketDense is the single-sweep kernel (desc[L]/asc[L] buckets,
// each visited once per query): no tracking pays for itself there, so it
// only skips still-unreachable heads — du = +Inf relaxes nothing, because
// +Inf + w < x is false for every finite x and for x = +Inf. The loop
// body is kept store-minimal on purpose: these buckets are the bulk of a
// query's executed relaxations, and adding frontier bookkeeping here was
// measured to cost more than the ℓ-block skips it buys (the ℓ-post block
// instead re-arms every block flag once, see runSchedule).
func relaxBucketDense(dist []float64, b *soaBucket) bool {
	changed := false
	to, w := b.to, b.w
	lo := 0
	for _, hr := range b.rle {
		hi := int(hr.hi)
		du := dist[hr.h]
		if math.IsInf(du, 1) {
			lo = hi
			continue
		}
		tt, ww := to[lo:hi], w[lo:hi]
		for j, wj := range ww {
			if d := du + wj; d < dist[tt[j]] {
				dist[tt[j]] = d
				changed = true
			}
		}
		lo = hi
	}
	return changed
}

// relaxBucketTracked is the twice-swept kernel (same[L] buckets, visited
// once by the descending and once by the ascending sweep). prev is the
// query's run-delta tracker, one slot per global run (soaBucket.runBase +
// r): prev holds dist[head] as of the run's last relaxation, and a run
// whose head is unchanged since then is skipped. The skip is exact:
// distances only decrease, so du == prev means every comparison
// du+w < dist[to] already failed with the same du against a dist[to] that
// can only have shrunk since — a guaranteed no-op. Slots start at +Inf,
// which subsumes the unreachable-head skip on the first sweep.
func relaxBucketTracked(dist []float64, b *soaBucket, prev []float64) bool {
	changed := false
	to, w := b.to, b.w
	pr := prev[b.runBase : int(b.runBase)+len(b.rle)]
	lo := 0
	for r, hr := range b.rle {
		hi := int(hr.hi)
		du := dist[hr.h]
		if du == pr[r] {
			lo = hi
			continue
		}
		pr[r] = du
		tt, ww := to[lo:hi], w[lo:hi]
		for j, wj := range ww {
			if d := du + wj; d < dist[tt[j]] {
				dist[tt[j]] = d
				changed = true
			}
		}
		lo = hi
	}
	return changed
}

// relaxEAllBlocks is the ℓ-block kernel: the eAll bucket is swept 2ℓ times
// per query, so it layers a block frontier on top of the run-delta
// tracker — blockDirty has one flag per eAllBlockRuns consecutive runs, and a block
// whose flag is clear is skipped wholesale. The flag discipline keeps the
// set of dirty blocks a superset of the runs the prev check would
// execute: flags are seeded from the finite entries of the initial vector
// before the ℓ-pre block, maintained here at every improvement this
// kernel causes (blockOf[v] is the block of v's eAll run, or the
// branch-free dummy slot), and re-armed wholesale at the start of the
// ℓ-post block (see runSchedule), the one point where other kernels'
// unmarked improvements could have accumulated. Skipping a clean block is
// exact by induction: none of its heads improved since its last scan, so
// each of its runs would be skipped by the prev check anyway — the head
// either relaxed at that scan (prev equals it) or was already equal then,
// and is unchanged since. A dirty block clears its flag and rescans its
// runs under the prev check; improvements re-mark their target blocks —
// possibly the current one, keeping it live for the next sweep. Dirty
// runs execute in ascending run order, the canonical order, so distances
// stay bit-identical to a full scan while the sweeps become
// frontier-driven: each late ℓ-post sweep touches only the blocks still
// propagating (the deepest leaves), and most of the ~half of
// WorkPerSource parked in the two ℓ-blocks vanishes from the wall clock.
// Counted work is a schedule property and is unaffected; see DESIGN.md
// "Query performance".
func relaxEAllBlocks(dist []float64, b *soaBucket, prev []float64, blockDirty []bool, blockOf []int32) bool {
	changed := false
	to, w, rle := b.to, b.w, b.rle
	pr := prev[b.runBase : int(b.runBase)+len(rle)]
	for blk := 0; blk < len(blockDirty)-1; blk++ {
		if !blockDirty[blk] {
			continue
		}
		blockDirty[blk] = false
		rStart := blk * eAllBlockRuns
		rEnd := rStart + eAllBlockRuns
		if rEnd > len(rle) {
			rEnd = len(rle)
		}
		lo := 0
		if rStart > 0 {
			lo = int(rle[rStart-1].hi)
		}
		for r := rStart; r < rEnd; r++ {
			hi := int(rle[r].hi)
			du := dist[rle[r].h]
			if du == pr[r] {
				lo = hi
				continue
			}
			pr[r] = du
			tt, ww := to[lo:hi], w[lo:hi]
			for j, wj := range ww {
				if d := du + wj; d < dist[tt[j]] {
					v := tt[j]
					dist[v] = d
					blockDirty[blockOf[v]] = true
					changed = true
				}
			}
			lo = hi
		}
	}
	return changed
}

// runSchedule relaxes dist in place through the §3.2 phase schedule,
// polling ctx between phases when non-nil. It is the engine's one phase
// loop: every query method runs through it, with or without an observer.
// The uninstrumented path is closure-free, so it performs no heap
// allocation; with an enabled observer each phase additionally gets a
// trace span, pprof labels and query.* counters (see relaxObserved).
//
// The two ℓ-blocks take the convergence early exit: a full sweep over the
// original edges that relaxes nothing is a fixpoint witness — relaxation is
// monotone and the block re-scans the same bucket, so every remaining sweep
// of the block would be a no-op and is skipped. Skipped phases neither poll
// ctx nor fire the injector; their cost is reported via Stats.AddSkipped so
// executed+skipped reconciles exactly with the static schedule.
func (e *Engine) runSchedule(ctx context.Context, dist []float64, st *pram.Stats) (err error) {
	s := e.schedule
	n := s.Phases()
	observed := e.obs.Enabled()
	if observed {
		qs := e.obs.Span("query.sssp", "query", "phases", n)
		defer qs.End()
	}
	ws := e.getWS()
	defer e.putWS(ws)
	prev := ws.growPrev(s.prevRuns)
	bd := ws.growBlockDirty(s.eAllBlocks)
	s.seedDirty(bd, dist)
	postStart := n - s.l
	var work, rounds, avoided, skipped int64
	for i := 0; i < n; {
		if ctx != nil {
			if err = ctx.Err(); err != nil {
				if observed {
					e.obs.Counter(obs.MQueryCancelled).Inc()
				}
				break
			}
		}
		e.firePhase()
		if i == postStart {
			// Entering the ℓ-post block: the descending/ascending sweeps
			// improved distances without frontier bookkeeping, so re-arm
			// every block and let the per-run prev check re-filter.
			for k := range bd {
				bd[k] = true
			}
		}
		ph, b := s.phaseBucketAt(i)
		var changed bool
		if observed {
			changed = e.relaxObserved(ph, b, dist, prev, bd)
		} else {
			changed = s.relax(ph.Kind, b, dist, prev, bd)
		}
		work += int64(b.edges())
		rounds++ // one phase; O(log n) EREW steps, see Section 2.2
		if !changed {
			if _, end, ok := s.ellBlock(i); ok && end > i+1 {
				sk := int64(end - i - 1)
				skipped += sk
				avoided += sk * int64(b.edges())
				if observed {
					e.obs.Counter(obs.MQueryPhasesSkipped).Add(sk)
					e.obs.Counter(obs.MQueryWorkAvoided).Add(sk * int64(b.edges()))
				}
				i = end
				continue
			}
		}
		i++
	}
	st.AddWork(work)
	st.AddRounds(rounds)
	st.AddSkipped(avoided, skipped)
	return err
}

// relax runs the kernel of a phase of the given kind over bucket b.
func (s *Schedule) relax(kind PhaseKind, b *soaBucket, dist, prev []float64, blockDirty []bool) bool {
	switch kind {
	case PhaseEllPre, PhaseEllPost:
		return relaxEAllBlocks(dist, b, prev, blockDirty, s.eAllBlockOf)
	case PhaseSameDown, PhaseSameUp:
		return relaxBucketTracked(dist, b, prev)
	}
	return relaxBucketDense(dist, b) // PhaseDesc, PhaseAsc: single sweep, tracking can't pay
}

// relaxObserved is relax inside the phase's trace span and pprof labels,
// attributing the phase and its work to the query.* counters.
func (e *Engine) relaxObserved(ph PhaseInfo, b *soaBucket, dist, prev []float64, blockDirty []bool) (changed bool) {
	sp := e.obs.Span("query.phase", "query",
		"index", ph.Index, "kind", string(ph.Kind), "level", ph.Level, "edges", b.edges())
	e.obs.Do(func() {
		changed = e.schedule.relax(ph.Kind, b, dist, prev, blockDirty)
	}, "phase", string(ph.Kind))
	sp.End()
	e.obs.Counter(obs.MQueryWork + "." + string(ph.Kind)).Add(int64(b.edges()))
	e.obs.Counter(obs.MQueryPhases).Inc()
	return changed
}

// SSSPReference computes distances from src with the pre-optimization
// executor: a scalar loop over the []graph.Edge phase buckets, no arena
// streaming, no run skipping, no convergence pruning — all 2ℓ+4(d_G+1)
// phases scan their full bucket. It relaxes the same canonical edge order
// as the optimized path, so their results must be bit-identical; it is
// retained as the exactness oracle for the cross-executor fuzz target and
// as the baseline the E-query experiment measures speedup against. The
// first call builds the schedule's edge view (see Schedule.PhaseAt).
func (e *Engine) SSSPReference(src int, st *pram.Stats) []float64 {
	dist := newDistVector(e.g.N())
	dist[src] = 0
	n := e.schedule.Phases()
	var work int64
	for i := 0; i < n; i++ {
		_, edges := e.schedule.PhaseAt(i)
		for _, ed := range edges {
			if du := dist[ed.From]; du+ed.W < dist[ed.To] {
				dist[ed.To] = du + ed.W
			}
		}
		work += int64(len(edges))
	}
	st.AddWork(work)
	st.AddRounds(int64(n))
	return dist
}

// Sources computes SSSP from each source in parallel (one goroutine pool
// round over the sources; counted work is the sum, counted rounds the
// per-source phase count).
func (e *Engine) Sources(srcs []int, st *pram.Stats) [][]float64 {
	out, _ := e.SourcesContext(nil, srcs, st)
	return out
}

// SourcesContext is Sources with cooperative cancellation: every per-source
// query polls ctx between phases, so all workers wind down within one phase
// of a cancellation and the call returns (nil, ctx.Err()).
func (e *Engine) SourcesContext(ctx context.Context, srcs []int, st *pram.Stats) ([][]float64, error) {
	out := make([][]float64, len(srcs))
	errs := make([]error, len(srcs))
	perSource := make([]*pram.Stats, len(srcs))
	for i := range perSource {
		perSource[i] = &pram.Stats{}
	}
	e.ex.For(len(srcs), func(i int) {
		out[i], errs[i] = e.SSSPContext(ctx, srcs[i], perSource[i])
	})
	var maxRounds int64
	minSkipped := int64(-1)
	for _, ps := range perSource {
		st.AddWork(ps.Work())
		st.AddSkipped(ps.SkippedWork(), 0)
		if ps.Rounds() > maxRounds {
			maxRounds = ps.Rounds()
		}
		if minSkipped < 0 || ps.SkippedRounds() < minSkipped {
			minSkipped = ps.SkippedRounds()
		}
	}
	st.AddRounds(maxRounds)
	// Rounds aggregate as the per-source max (sources run concurrently), so
	// the matching skipped-rounds aggregate is the min: the span of the
	// batch is bounded by its least-pruned source.
	if minSkipped > 0 {
		st.AddSkipped(0, minSkipped)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SSSPTree computes distances from src plus a shortest-path tree in the
// ORIGINAL graph: parent[v] is v's predecessor on a minimum-weight src→v
// path using only edges of E (parent[src] = src, parent[unreachable] = -1).
// Because the computed distances are exact G-distances, the tree is
// recovered by a BFS over "tight" edges (dist[u] + w ≈ dist[v]) without any
// witness bookkeeping in the preprocessing. Tightness uses a relative
// tolerance to absorb floating-point reassociation between the shortcut
// path and the original path.
func (e *Engine) SSSPTree(src int, st *pram.Stats) (dist []float64, parent []int) {
	dist, parent, _ = e.SSSPTreeContext(nil, src, st)
	return dist, parent
}

// SSSPTreeContext is SSSPTree with cooperative cancellation during the
// distance computation (the tight-tree BFS afterwards is linear and is not
// interrupted). The BFS queue comes from the engine's workspace pool.
func (e *Engine) SSSPTreeContext(ctx context.Context, src int, st *pram.Stats) (dist []float64, parent []int, err error) {
	dist, err = e.SSSPContext(ctx, src, st)
	if err != nil {
		return nil, nil, err
	}
	ws := e.getWS()
	parent, ws.queue = tightTree(e.g, src, dist, ws.queue)
	e.putWS(ws)
	return dist, parent, nil
}

// TightTree builds a shortest-path tree in g from exact distance values by
// BFS over tight edges. Exported for reuse by baselines and applications.
func TightTree(g *graph.Digraph, src int, dist []float64) []int {
	parent, _ := tightTree(g, src, dist, nil)
	return parent
}

// tightTree is TightTree with caller-provided queue scratch; it returns the
// (possibly grown) scratch so pooled callers can retain it.
func tightTree(g *graph.Digraph, src int, dist []float64, queue []int) ([]int, []int) {
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = src
	queue = append(queue[:0], src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		g.Out(u, func(v int, w float64) bool {
			if parent[v] == -1 && tight(du+w, dist[v]) {
				parent[v] = u
				queue = append(queue, v)
			}
			return true
		})
	}
	return parent, queue
}

// tight reports a ≈ b with relative tolerance 1e-9 (both finite).
func tight(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return false
	}
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= 1e-9*scale
}

// PathTo extracts the src→dst vertex sequence from a parent array produced
// by SSSPTree/TightTree. ok is false if dst is unreachable.
func PathTo(parent []int, src, dst int) (path []int, ok bool) {
	if parent[dst] == -1 {
		return nil, false
	}
	for v := dst; ; v = parent[v] {
		path = append(path, v)
		if v == src {
			break
		}
		if len(path) > len(parent) {
			return nil, false // defensive: corrupt parent array
		}
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, true
}

func newDistVector(n int) []float64 {
	d := make([]float64, n)
	inf := math.Inf(1)
	for i := range d {
		d[i] = inf
	}
	return d
}
