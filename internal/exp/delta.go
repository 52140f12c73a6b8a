package exp

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"

	"sepsp/internal/core"
	"sepsp/internal/graph"
	"sepsp/internal/pram"
)

// deltaSpeedupFloor is the E-delta gate's claim: reweighting 16 directed
// edges by incremental repair must cost at most a third of the CPU time of
// rebuilding E+ and the schedule from scratch on the same tree.
const deltaSpeedupFloor = 3

// deltaFloorEdges is the row the speedup floor applies to.
const deltaFloorEdges = 16

// deltaSources is how many SSSP sources each row compares bit for bit.
const deltaSources = 32

// deltaReps is how many times each path is timed; the minimum CPU time
// counts.
const deltaReps = 5

// processCPU returns the CPU time the process has used so far (user +
// system, every thread — garbage collection included).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// minCPU returns the smallest process CPU time of deltaReps runs of op,
// each after a forced collection.
func minCPU(op func() error) (time.Duration, error) {
	best := time.Duration(math.MaxInt64)
	for range deltaReps {
		runtime.GC()
		c0 := processCPU()
		if err := op(); err != nil {
			return 0, err
		}
		if c := processCPU() - c0; c < best {
			best = c
		}
	}
	return best, nil
}

// DeltaExperiment (E-delta) measures reweighting by incremental repair —
// core.Engine.Reweight, the body of Index.WithWeightsContext — against a
// from-scratch core.NewEngine on the same decomposition tree, over a chain
// of versions of a 4096-vertex grid that rescale 1, 4, 16 and 64 random
// directed edges of the previous version. Every row checks that the
// repaired engine is bit-identical to the rebuilt one: every per-node
// matrix, the E+ list, the schedule arena and the SSSP vectors from
// deltaSources sources. Counted repair and rebuild work and the dirty-node
// count are deterministic for the fixed seed; GateDelta pins them and the
// CPU speedup floor at 16 edges (`make bench-delta`).
func DeltaExperiment(scale int) (*Result, error) {
	if scale < 1 {
		scale = 1
	}
	t := &Table{
		ID:    "E-delta",
		Title: "Reweight by incremental repair vs from-scratch rebuild (single thread)",
		Header: []string{"n", "changed edges", "dirty nodes", "tree nodes", "repair work", "rebuild work",
			"reweight cpu", "rebuild cpu", "speedup", "identical"},
		Notes: []string{
			fmt.Sprintf("chain of versions, each rescaling k distinct directed edges of the previous by factors in [0.5, 2]; "+
				"cpu = min process CPU time of %d runs; identical = per-node matrices, E+ list, schedule arena and "+
				"SSSP from %d sources bit-identical to the rebuild", deltaReps, deltaSources),
			fmt.Sprintf("gate: repair/rebuild work and dirty nodes exact vs baseline, every row identical, "+
				"speedup at %d edges >= %d", deltaFloorEdges, deltaSpeedupFloor),
		},
	}
	wl, err := MuWorkload(0.5, 4096*scale, 29)
	if err != nil {
		return nil, err
	}
	n := wl.G.N()
	eng, err := core.NewEngine(wl.G, wl.Tree, core.Config{})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(31))
	edges := wl.G.EdgeList()
	srcs := rng.Perm(n)[:min(deltaSources, n)]
	for _, k := range []int{1, 4, 16, 64} {
		for _, i := range rng.Perm(len(edges))[:k] {
			edges[i].W *= 0.5 + 1.5*rng.Float64()
		}
		g := graph.FromEdges(n, edges)
		repairSt, rebuildSt := &pram.Stats{}, &pram.Stats{}
		next, dirty, err := eng.Reweight(g, core.Config{PrepStats: repairSt})
		if err != nil {
			return nil, err
		}
		fresh, err := core.NewEngine(g, wl.Tree, core.Config{PrepStats: rebuildSt})
		if err != nil {
			return nil, err
		}
		tRe, err := minCPU(func() error { _, _, err := eng.Reweight(g, core.Config{}); return err })
		if err != nil {
			return nil, err
		}
		tFull, err := minCPU(func() error { _, err := core.NewEngine(g, wl.Tree, core.Config{}); return err })
		if err != nil {
			return nil, err
		}
		identical := "yes"
		if !sameEngines(next, fresh, srcs) {
			identical = "no"
		}
		t.Rows = append(t.Rows, []string{
			d(int64(n)), d(int64(k)), d(int64(dirty)), d(int64(len(wl.Tree.Nodes))),
			d(repairSt.Work()), d(rebuildSt.Work()),
			tRe.String(), tFull.String(), fmt.Sprintf("%.2f", tFull.Seconds()/tRe.Seconds()), identical,
		})
		eng = next
	}
	return &Result{Tables: []*Table{t}}, nil
}

// sameEngines reports whether two Alg41 engines are bit-identical: every
// per-node matrix, the E+ list, the schedule arena, and the SSSP vectors
// from srcs.
func sameEngines(a, b *core.Engine, srcs []int) bool {
	sa, sb := a.State(), b.State()
	for id := range a.Tree().Nodes {
		adb, ahs := sa.Node(id)
		bdb, bhs := sb.Node(id)
		if !adb.Equal(bdb) || (ahs == nil) != (bhs == nil) || (ahs != nil && !ahs.Equal(bhs)) {
			return false
		}
	}
	ea, eb := a.Augmentation(), b.Augmentation()
	if ea.RawCount != eb.RawCount || !slices.Equal(ea.Edges, eb.Edges) || !a.Schedule().Equal(b.Schedule()) {
		return false
	}
	for _, src := range srcs {
		if !slices.Equal(a.SSSP(src, nil), b.SSSP(src, nil)) {
			return false
		}
	}
	return true
}

// GateDelta compares a fresh E-delta run against a recorded baseline
// (BENCH_delta.json) and returns the violations, empty when the gate
// passes:
//
//   - repair work, rebuild work and the dirty-node count must match the
//     baseline exactly (the repair recomputes exactly the dirty nodes);
//   - every row's repaired engine must be bit-identical to the rebuild;
//   - the CPU speedup at deltaFloorEdges changed edges must hold the floor
//     on the current machine.
//
// CPU-time columns are recorded for humans and not gated.
func GateDelta(curr, base *Result) []string {
	ct, bt := tableByID(curr, "E-delta"), tableByID(base, "E-delta")
	if ct == nil || bt == nil {
		return []string{"E-delta table missing from current run or baseline"}
	}
	var bad []string
	for _, col := range []string{"dirty nodes", "repair work", "rebuild work"} {
		bad = append(bad, matchColumn(ct, bt, 2, col, exactMatch)...)
	}
	kCol, sCol, iCol := colIndex(ct, "changed edges"), colIndex(ct, "speedup"), colIndex(ct, "identical")
	floorSeen := false
	for _, row := range ct.Rows {
		if row[iCol] != "yes" {
			bad = append(bad, fmt.Sprintf("E-delta [%s]: repaired engine not bit-identical to the rebuild", rowKey(row, 2)))
		}
		if row[kCol] != strconv.Itoa(deltaFloorEdges) {
			continue
		}
		floorSeen = true
		if s, err := strconv.ParseFloat(row[sCol], 64); err != nil || s < deltaSpeedupFloor {
			bad = append(bad, fmt.Sprintf("E-delta [%s]: speedup %s below floor %d", rowKey(row, 2), row[sCol], deltaSpeedupFloor))
		}
	}
	if !floorSeen {
		bad = append(bad, fmt.Sprintf("E-delta: no row with %d changed edges", deltaFloorEdges))
	}
	return bad
}
