// Package core ties the pieces together into the paper's end-to-end engine:
// preprocessing (separator tree → E+ via Algorithm 4.1 or 4.3) and the
// per-source query of Section 3.2 — a Bellman-Ford that scans each edge
// class only in the O(d_G) phases where the bitonic structure theorem says
// it can still be useful, bringing per-source work down from
// O(|E ∪ E+|·diam) to O(ℓ·|E| + |E ∪ E+|).
package core

import (
	"math"
	"sync"

	"sepsp/internal/graph"
	"sepsp/internal/separator"
)

// Schedule is the precomputed phase structure of the Section 3.2 query. The
// proof of Theorem 3.1 shows every distance is realized in G+ by a path of
// the form
//
//	[≤ ℓ original edges] [bitonic shortcut chain] [≤ ℓ original edges]
//
// where the chain's vertex levels first never increase and then never
// decrease, with at most two consecutive equal labels. The schedule
// therefore relaxes:
//
//  1. all original edges, ℓ times;
//  2. for L = d_G … 0: same-level-L edges, then descending edges leaving
//     level L (level(from)=L > level(to));
//  3. for L = 0 … d_G: ascending edges entering level L
//     (level(to)=L > level(from)), then same-level-L edges;
//  4. all original edges, ℓ times.
//
// (The printed schedule in the paper suffers OCR-garbled level arithmetic;
// this is the equivalent bitonic ordering, see DESIGN.md.)
//
// The buckets live in one resident form, the SoA phase arena the query
// kernels stream. Bucket ids (see bucketID) number them
//
//	0          eAll:    the original edges, scanned in the ℓ-phases
//	1+L        same[L]: level(from) == level(to) == L
//	1+h+L      desc[L]: level(from) == L > level(to)
//	1+2h+L     asc[L]:  level(to) == L > level(from)
//
// with h = d_G + 1.
type Schedule struct {
	height  int
	l       int
	buckets []soaBucket // indexed by bucket id
	runs    int         // total head runs across all buckets
	// prevRuns counts the run slots of the tracked buckets (eAll and every
	// same[L]), which the arena packs first: the run-delta tracker only
	// needs resetting on [0, prevRuns).
	prevRuns int

	// ℓ-block frontier support: the eAll bucket's runs are grouped into
	// blocks of eAllBlockRuns consecutive runs, and eAllBlockOf maps each vertex to
	// the block holding its eAll run — or to the dummy slot eAllBlocks
	// (one past the last real block) for vertices heading no original
	// edge, so marking needs no branch. When a relaxation improves
	// dist[v], the only eAll runs that can stop being no-ops are v's, so
	// the kernels mark eAllBlockOf[v] dirty and the 2ℓ ℓ-block sweeps
	// skip clean blocks wholesale (see relaxEAllBlocks).
	eAllBlocks  int
	eAllBlockOf []int32

	// view is the []graph.Edge form of buckets, id for id, in the arena's
	// canonical order. Only the reference relaxer and the boolean reach
	// engine read it, so it is built on first use (see edgeView).
	viewOnce sync.Once
	view     [][]graph.Edge
}

// Edge classes of the level-scoped buckets, in bucket-id order.
const (
	classSame = iota
	classDesc
	classAsc
)

// bucketID returns the id of the class bucket at tree level L.
func (s *Schedule) bucketID(class, L int) int { return 1 + class*(s.height+1) + L }

// soaBucket is one phase bucket in structure-of-arrays form. Edges sharing a
// head vertex form one run: run r has head heads[r] and its (to, w) pairs
// occupy positions [off[r], off[r+1]). The hot loop loads dist[head] once
// per run, skips whole +Inf runs, and streams to/w sequentially.
type soaBucket struct {
	heads []int32 // distinct head (from) vertices, in first-appearance order
	off   []int32 // len(heads)+1 run boundaries into to/w
	to    []int32
	w     []float64

	// rle fuses each run's header into one 8-byte record (head vertex and
	// exclusive end offset; the start offset is the previous record's end,
	// 0 for run 0). The hot kernels iterate this single sequential stream
	// instead of loading heads[r] and off[r+1] from two arrays.
	rle []headRun

	// runBase is this bucket's first slot in the schedule-wide run
	// numbering [0, Schedule.runs): run r of this bucket owns global slot
	// runBase+r. The query workspace keeps one prev[dist[head]] tracker
	// entry per global run (see relaxBucketTracked).
	runBase int32
}

// headRun is one fused run header: h heads the run, whose (to, w) pairs end
// at exclusive offset hi.
type headRun struct {
	h, hi int32
}

// edges returns the number of edges in the bucket.
func (b *soaBucket) edges() int { return len(b.to) }

// appendEdges appends the bucket's edges to out in arena order.
func (b *soaBucket) appendEdges(out []graph.Edge) []graph.Edge {
	for r := range b.heads {
		f := int(b.heads[r])
		for j := b.off[r]; j < b.off[r+1]; j++ {
			out = append(out, graph.Edge{From: f, To: int(b.to[j]), W: b.w[j]})
		}
	}
	return out
}

// soaBuilder packs buckets into shared arena slices sized exactly: the
// edge arrays to the total edge count, the run arrays to the total run
// count. runOf is an n-sized scratch mapping a vertex to its run index
// within the bucket being built (-1 outside a build), so grouping is
// O(bucket size) with no per-bucket n-sized work.
type soaBuilder struct {
	runOf []int32
	heads []int32
	off   []int32
	rle   []headRun
	to    []int32
	w     []float64
	hPos  int // cursor into heads/rle (off shares it, shifted by bucket count)
	oPos  int
	ePos  int // cursor into to/w
}

// newSOABuilder sizes an arena for buckets, counting their edges and head
// runs (distinct heads per bucket) in a first pass.
func newSOABuilder(n int, buckets [][]graph.Edge) *soaBuilder {
	if int64(n) > math.MaxInt32 {
		panic("core: graph too large for the int32 phase arena")
	}
	runOf := make([]int32, n)
	for i := range runOf {
		runOf[i] = -1
	}
	edges, runs := 0, 0
	for _, b := range buckets {
		edges += len(b)
		for _, e := range b {
			if runOf[e.From] < 0 {
				runOf[e.From] = 0
				runs++
			}
		}
		for _, e := range b {
			runOf[e.From] = -1
		}
	}
	return &soaBuilder{
		runOf: runOf,
		heads: make([]int32, runs),
		off:   make([]int32, runs+len(buckets)),
		rle:   make([]headRun, runs),
		to:    make([]int32, edges),
		w:     make([]float64, edges),
	}
}

// build groups edges by head into the next arena region and returns their
// bucket. Within a run, edges keep their relative input order.
func (sb *soaBuilder) build(edges []graph.Edge) soaBucket {
	heads := sb.heads[sb.hPos:sb.hPos]
	off := sb.off[sb.oPos:sb.oPos]
	// Pass 1: assign run ids in first-appearance order, count run sizes.
	for _, e := range edges {
		if sb.runOf[e.From] < 0 {
			sb.runOf[e.From] = int32(len(heads))
			heads = append(heads, int32(e.From))
			off = append(off, 0)
		}
		off[sb.runOf[e.From]]++
	}
	// Prefix-sum the counts into run start cursors.
	base := int32(sb.ePos)
	for r := range off {
		c := off[r]
		off[r] = base
		base += c
	}
	off = append(off, base)
	// Pass 2: scatter edges to their run slots.
	cur := make([]int32, len(heads))
	copy(cur, off[:len(heads)])
	for _, e := range edges {
		p := sb.runOf[e.From]
		sb.to[cur[p]] = int32(e.To)
		sb.w[cur[p]] = e.W
		cur[p]++
	}
	b := soaBucket{
		heads:   heads,
		off:     off,
		to:      sb.to[sb.ePos : sb.ePos+len(edges)],
		w:       sb.w[sb.ePos : sb.ePos+len(edges)],
		runBase: int32(sb.hPos),
	}
	// Rebase offsets to be bucket-relative and reset the scratch.
	for r := range b.off {
		b.off[r] -= int32(sb.ePos)
	}
	b.rle = sb.rle[sb.hPos : sb.hPos+len(heads)]
	for r := range heads {
		b.rle[r] = headRun{h: heads[r], hi: b.off[r+1]}
	}
	for _, h := range heads {
		sb.runOf[h] = -1
	}
	sb.hPos += len(heads)
	sb.oPos += len(off)
	sb.ePos += len(edges)
	return b
}

// NewSchedule builds the phase buckets for the union of the original edges
// and the shortcut edges. l is the ℓ of Theorem 3.1 (max leaf diameter);
// levels come from the decomposition tree. Each bucket is packed into the
// SoA arena grouped by head vertex, the canonical order every executor
// relaxes it in.
func NewSchedule(t *separator.Tree, original, shortcuts []graph.Edge, l int) *Schedule {
	h := t.Height + 1
	s := &Schedule{height: t.Height, l: l}
	edges := make([][]graph.Edge, 1+3*h) // per bucket id
	edges[0] = original
	bucket := func(e graph.Edge) {
		lu, lv := t.Level(e.From), t.Level(e.To)
		if lu == separator.LevelUndef || lv == separator.LevelUndef {
			// Only reachable through leaf-interior segments; the ℓ-phases
			// of original edges cover these.
			return
		}
		var id int
		switch {
		case lu == lv:
			id = s.bucketID(classSame, lu)
		case lu > lv:
			id = s.bucketID(classDesc, lu)
		default:
			id = s.bucketID(classAsc, lv)
		}
		edges[id] = append(edges[id], e)
	}
	for _, e := range original {
		bucket(e)
	}
	for _, e := range shortcuts {
		bucket(e)
	}
	// The tracked buckets (eAll, then every same[L]) are built first so
	// their global run slots form the prefix [0, prevRuns) — the per-query
	// +Inf reset of the run-delta tracker then touches only slots a tracked
	// kernel can read, not the desc/asc runs that never consult it.
	sb := newSOABuilder(t.N(), edges)
	s.buckets = make([]soaBucket, len(edges))
	for id := 0; id <= h; id++ { // eAll, same[0..d_G]
		s.buckets[id] = sb.build(edges[id])
	}
	s.prevRuns = sb.hPos
	for L := 0; L < h; L++ {
		d, a := s.bucketID(classDesc, L), s.bucketID(classAsc, L)
		s.buckets[d] = sb.build(edges[d])
		s.buckets[a] = sb.build(edges[a])
	}
	s.runs = sb.hPos
	eAll := &s.buckets[0]
	s.eAllBlocks = (len(eAll.heads) + eAllBlockRuns - 1) / eAllBlockRuns
	s.eAllBlockOf = make([]int32, t.N())
	for v := range s.eAllBlockOf {
		s.eAllBlockOf[v] = int32(s.eAllBlocks) // dummy: no original out-edge
	}
	for r, h := range eAll.heads {
		s.eAllBlockOf[h] = int32(r / eAllBlockRuns)
	}
	return s
}

// edgeView returns the []graph.Edge form of every bucket, indexed by bucket
// id, expanding the arena into one allocation on the first call.
func (s *Schedule) edgeView() [][]graph.Edge {
	s.viewOnce.Do(func() {
		total := 0
		for k := range s.buckets {
			total += s.buckets[k].edges()
		}
		all := make([]graph.Edge, 0, total)
		view := make([][]graph.Edge, len(s.buckets))
		for k := range s.buckets {
			lo := len(all)
			all = s.buckets[k].appendEdges(all)
			view[k] = all[lo:len(all):len(all)]
		}
		s.view = view
	})
	return s.view
}

// eAllBlockRuns is the ℓ-block frontier granularity: runs per dirty flag.
// Eight consecutive runs ≈ one leaf's worth of vertices on the LeafSize-8
// workloads the schedule targets, fine enough that a converged region's
// flags stay clear while one still-propagating leaf keeps only its own
// blocks live; the per-sweep cost of probing all flags is runs/8
// predictable byte loads, amortized far below the run scans they replace.
const eAllBlockRuns = 16

// seedDirty marks the eAll block of every finite-distance vertex of init.
// A query must call this on its block flags before the first phase: writes
// to dist made outside the kernels (the source vertex; every finite entry
// of an SSSPFrom initial vector) are improvements the kernels never saw.
func (s *Schedule) seedDirty(blockDirty []bool, init []float64) {
	for v, dv := range init {
		if !math.IsInf(dv, 1) {
			blockDirty[s.eAllBlockOf[v]] = true
		}
	}
}

// Phases returns the total number of relaxation phases one query performs:
// 2ℓ + 4(d_G + 1).
func (s *Schedule) Phases() int { return 2*s.l + 4*(s.height+1) }

// PhaseKind labels a phase's position within the §3.2 bitonic schedule.
type PhaseKind string

const (
	PhaseEllPre   PhaseKind = "ell-pre"   // original edges, first ℓ sweeps
	PhaseSameDown PhaseKind = "same-down" // same-level edges, descending sweep
	PhaseDesc     PhaseKind = "desc"      // descending edges leaving level L
	PhaseAsc      PhaseKind = "asc"       // ascending edges entering level L
	PhaseSameUp   PhaseKind = "same-up"   // same-level edges, ascending sweep
	PhaseEllPost  PhaseKind = "ell-post"  // original edges, last ℓ sweeps
)

// PhaseKinds lists the kinds in schedule order (the stable iteration order
// for breakdown tables).
var PhaseKinds = []PhaseKind{PhaseEllPre, PhaseSameDown, PhaseDesc, PhaseAsc, PhaseSameUp, PhaseEllPost}

// PhaseInfo identifies one phase of the schedule for attribution.
type PhaseInfo struct {
	Index int       // 0-based position in the schedule
	Kind  PhaseKind // position within the bitonic structure
	Level int       // tree level for level-scoped kinds, -1 for the ℓ sweeps
}

// PhaseWork is the per-kind slice of the schedule's cost breakdown.
type PhaseWork struct {
	Kind   PhaseKind
	Phases int   // phases of this kind
	Work   int64 // relaxations performed across them
}

// Breakdown returns the schedule's cost per phase kind, in schedule order.
// The Work column sums exactly to WorkPerSource and the Phases column to
// Phases() — the static counterpart of the per-phase query metrics.
func (s *Schedule) Breakdown() []PhaseWork {
	by := make(map[PhaseKind]*PhaseWork, len(PhaseKinds))
	out := make([]PhaseWork, len(PhaseKinds))
	for i, k := range PhaseKinds {
		out[i].Kind = k
		by[k] = &out[i]
	}
	for i := 0; i < s.Phases(); i++ {
		ph, b := s.phaseBucketAt(i)
		pw := by[ph.Kind]
		pw.Phases++
		pw.Work += int64(b.edges())
	}
	return out
}

// phaseAt returns the identity and bucket id of phase i of the schedule
// (0 ≤ i < Phases()), the random-access form of the bitonic ordering:
// ℓ sweeps of all original edges, the descending sweep (same-level then
// descending edges for L = d_G … 0), the ascending sweep (ascending then
// same-level edges for L = 0 … d_G), and ℓ closing sweeps. Random access
// lets hot query loops iterate phases without allocating closures.
func (s *Schedule) phaseAt(i int) (PhaseInfo, int) {
	h := s.height + 1
	switch {
	case i < s.l:
		return PhaseInfo{Index: i, Kind: PhaseEllPre, Level: -1}, 0
	case i < s.l+2*h:
		j := i - s.l
		L := s.height - j/2
		if j%2 == 0 {
			return PhaseInfo{Index: i, Kind: PhaseSameDown, Level: L}, s.bucketID(classSame, L)
		}
		return PhaseInfo{Index: i, Kind: PhaseDesc, Level: L}, s.bucketID(classDesc, L)
	case i < s.l+4*h:
		j := i - s.l - 2*h
		L := j / 2
		if j%2 == 0 {
			return PhaseInfo{Index: i, Kind: PhaseAsc, Level: L}, s.bucketID(classAsc, L)
		}
		return PhaseInfo{Index: i, Kind: PhaseSameUp, Level: L}, s.bucketID(classSame, L)
	default:
		return PhaseInfo{Index: i, Kind: PhaseEllPost, Level: -1}, 0
	}
}

// phaseBucketAt returns the identity and arena bucket of phase i — what the
// query kernels and the schedule's cost accounting read.
func (s *Schedule) phaseBucketAt(i int) (PhaseInfo, *soaBucket) {
	ph, id := s.phaseAt(i)
	return ph, &s.buckets[id]
}

// PhaseAt returns the identity and []graph.Edge bucket of phase i, the
// same edges as the arena bucket in the same order. The first call builds
// the edge view (see edgeView); the query path never needs it.
func (s *Schedule) PhaseAt(i int) (PhaseInfo, []graph.Edge) {
	ph, id := s.phaseAt(i)
	return ph, s.edgeView()[id]
}

// ellBlock returns the bounds [start, end) of the ℓ-sweep block containing
// phase i, with ok=false when phase i is a bitonic (level-scoped) phase.
// The two ℓ-blocks re-scan the same bucket every sweep, which is what makes
// them — and only them — eligible for the convergence early exit: a sweep
// that relaxes nothing proves the remaining sweeps of the block are no-ops
// (monotone-relaxation fixpoint, see DESIGN.md "Query performance").
func (s *Schedule) ellBlock(i int) (start, end int, ok bool) {
	h := s.height + 1
	switch {
	case i < s.l:
		return 0, s.l, true
	case i >= s.l+4*h:
		return s.l + 4*h, s.Phases(), true
	}
	return 0, 0, false
}

// RunPhases executes the schedule like Run, additionally passing each
// phase's identity. It reads the edge view, built on the first call.
func (s *Schedule) RunPhases(relax func(ph PhaseInfo, edges []graph.Edge)) {
	n := s.Phases()
	for i := 0; i < n; i++ {
		ph, edges := s.PhaseAt(i)
		relax(ph, edges)
	}
}

// WorkPerSource returns the number of edge relaxations one query performs —
// the quantity bounded by O(ℓ·|E| + |E ∪ E+|) in Section 3.2 (same-level
// buckets are scanned twice, once per sweep direction).
func (s *Schedule) WorkPerSource() int64 {
	var w int64
	for i := 0; i < s.Phases(); i++ {
		_, b := s.phaseBucketAt(i)
		w += int64(b.edges())
	}
	return w
}

// Run executes the schedule, invoking relax(bucket) once per phase. relax
// is abstracted so the min-plus reference relaxer and the boolean
// reachability engine share one schedule; like RunPhases it reads the edge
// view.
func (s *Schedule) Run(relax func(edges []graph.Edge)) {
	s.RunPhases(func(_ PhaseInfo, edges []graph.Edge) { relax(edges) })
}
