package exp

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sepsp/internal/core"
	"sepsp/internal/pram"
)

// querySpeedupFloor is the portable part of the E-query gate: the optimized
// single-source query (SoA phase arena + convergence pruning) must beat the
// retained naive reference relaxer by at least this factor, single thread,
// at the largest measured n. The recorded baseline machine reaches >= 1.5x
// (the acceptance target of the query-path overhaul, see DESIGN.md "Query
// performance"); the gate demands only a machine-independent floor.
const querySpeedupFloor = 1.3

// callerScalingFloor is the E-query-callers gate: GOMAXPROCS goroutines
// each running single-source queries — how sepsp.Server serves concurrent
// misses, one kernel per request on its caller's goroutine — must answer a
// fixed set of sources at least this much faster than one goroutine.
// Skipped on runners with fewer than 2 CPUs, where no cross-request
// parallelism is physically possible.
const callerScalingFloor = 1.3

// callerSources is the fixed source set the cross-request table answers.
const callerSources = 64

// timeQuery reports the best per-call wall clock of run over kernelReps
// batches of kernelBatch calls (one warmup call first, mirroring the
// testing.B harness), plus the per-call Mallocs delta of the best batch.
func timeQuery(run func()) (time.Duration, int64) {
	run() // warmup: workspace pools fill here
	best := time.Duration(math.MaxInt64)
	var allocs int64
	var m0, m1 runtime.MemStats
	for rep := 0; rep < kernelReps; rep++ {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i := 0; i < kernelBatch; i++ {
			run()
		}
		el := time.Since(start) / kernelBatch
		runtime.ReadMemStats(&m1)
		if el < best {
			best = el
			allocs = int64(m1.Mallocs-m0.Mallocs) / kernelBatch
		}
	}
	return best, allocs
}

// QueryExperiment (E-query) measures the query path end to end: the
// optimized single-source executor (SoA phase arena, per-run head caching,
// ℓ-block convergence pruning) against the retained naive reference relaxer
// on the same schedule, and the cross-request throughput of that executor
// when GOMAXPROCS callers run it concurrently. Executed and avoided work
// are counted-model quantities — deterministic, so the gate pins them
// exactly; wall clock and speedup are the machine-local perf baseline
// BENCH_query.json records.
func QueryExperiment(scale int) (*Result, error) {
	if scale < 1 {
		scale = 1
	}
	qt := &Table{
		ID:     "E-query-sssp",
		Title:  "Single-source query: optimized (SoA + pruning) vs naive reference relaxer (single thread)",
		Header: []string{"n", "path", "time/query", "work", "avoided", "allocs", "speedup"},
		Notes: []string{
			fmt.Sprintf("best of %d batches of %d queries; gate: work and avoided exact vs baseline, largest-n speedup >= %.2f (baseline machine target: >= 1.5x), allocs <= %.1fx baseline + %d",
				kernelReps, kernelBatch, querySpeedupFloor, allocSlack, allocAbsSlack),
		},
	}
	var largestN int
	for _, n := range []int{1024 * scale, 4096 * scale} {
		wl, err := MuWorkload(0.5, n, 23)
		if err != nil {
			return nil, err
		}
		eng, err := core.NewEngine(wl.G, wl.Tree, core.Config{Ex: pram.Sequential})
		if err != nil {
			return nil, err
		}
		nn := wl.G.N()
		largestN = nn
		src := nn / 2
		stR, stO := &pram.Stats{}, &pram.Stats{}
		eng.SSSPReference(src, stR)
		eng.SSSP(src, stO)
		tR, aR := timeQuery(func() { eng.SSSPReference(src, nil) })
		tO, aO := timeQuery(func() { eng.SSSP(src, nil) })
		qt.Rows = append(qt.Rows,
			[]string{d(int64(nn)), "reference", tR.String(), d(stR.Work()), d(stR.SkippedWork()), d(aR), "-"},
			[]string{d(int64(nn)), "optimized", tO.String(), d(stO.Work()), d(stO.SkippedWork()), d(aO),
				fmt.Sprintf("%.2f", tR.Seconds()/tO.Seconds())},
		)
	}
	qt.Notes = append(qt.Notes, fmt.Sprintf("largest n this run: %d (speedup floor applies there)", largestN))

	ct, err := callerTable(4096 * scale)
	if err != nil {
		return nil, err
	}
	return &Result{Tables: []*Table{qt, ct}}, nil
}

// callerTable (E-query-callers) answers callerSources sources on one
// sequential engine twice — from one goroutine, then split across
// GOMAXPROCS goroutines pulling sources from a shared counter — and reports
// the wall clock per source and the summed counted work of each run.
func callerTable(n int) (*Table, error) {
	procs := runtime.GOMAXPROCS(0)
	t := &Table{
		ID:     "E-query-callers",
		Title:  fmt.Sprintf("Cross-request throughput: concurrent callers of the single-source query, %d sources", callerSources),
		Header: []string{"n", "callers", "P", "time/source", "work", "speedup"},
		Notes: []string{
			fmt.Sprintf("each caller runs whole queries, as sepsp.Server does per request; gate: counted work exact vs baseline and equal across rows; GOMAXPROCS speedup >= %.2f (skipped on <2-CPU runners)", callerScalingFloor),
		},
	}
	wl, err := MuWorkload(0.5, n, 23)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(wl.G, wl.Tree, core.Config{Ex: pram.Sequential})
	if err != nil {
		return nil, err
	}
	srcs := make([]int, callerSources)
	for j := range srcs {
		srcs[j] = (j * 37) % wl.G.N()
	}
	var t1 time.Duration
	for _, row := range []struct {
		label   string
		callers int
	}{{"one", 1}, {"GOMAXPROCS", procs}} {
		st := &pram.Stats{}
		answerConcurrently(eng, srcs, row.callers, st)
		tc, _ := timeQuery(func() { answerConcurrently(eng, srcs, row.callers, nil) })
		sp := "-"
		if row.callers == 1 {
			t1 = tc
		} else {
			sp = fmt.Sprintf("%.2f", t1.Seconds()/tc.Seconds())
		}
		t.Rows = append(t.Rows, []string{
			d(int64(wl.G.N())), row.label, d(int64(row.callers)),
			(tc / callerSources).String(), d(st.Work()), sp,
		})
	}
	return t, nil
}

// answerConcurrently runs one single-source query per source, split across
// callers goroutines that pull sources from a shared counter — the way
// sepsp.Server's concurrent requests share the machine — and returns when
// every source is answered. st (nil to skip) receives the summed work.
func answerConcurrently(eng *core.Engine, srcs []int, callers int, st *pram.Stats) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(srcs)); i = next.Add(1) - 1 {
				eng.SSSP(srcs[i], st)
			}
		}()
	}
	wg.Wait()
}

// GateQuery compares a fresh E-query run against a recorded baseline
// (BENCH_query.json) and returns the violations, empty when the gate
// passes. Portable invariants only:
//
//   - executed and avoided work must match the baseline exactly, row by
//     row — both halves of the pruning split are deterministic counted
//     quantities, so any drift means the executors changed semantics;
//   - the cross-request rows' work must additionally be equal (splitting
//     sources across callers never changes what is computed);
//   - the optimized query must hold the speedup floor over the reference
//     relaxer at the largest n on the current machine;
//   - steady-state query allocations may not regress past the tolerance —
//     the pooled workspaces pin them to O(1) per call;
//   - GOMAXPROCS concurrent callers must scale past the floor, unless the
//     runner cannot physically scale (<2 CPUs).
//
// Wall-clock columns are recorded for humans and deliberately not gated.
func GateQuery(curr, base *Result) []string {
	var bad []string

	cq, bq := tableByID(curr, "E-query-sssp"), tableByID(base, "E-query-sssp")
	if cq == nil || bq == nil {
		return []string{"sssp table missing from current run or baseline"}
	}
	bad = append(bad, matchColumn(cq, bq, 2, "work", exactMatch)...)
	bad = append(bad, matchColumn(cq, bq, 2, "avoided", exactMatch)...)
	bad = append(bad, matchColumn(cq, bq, 2, "allocs", func(c, b float64) string {
		if limit := b*allocSlack + allocAbsSlack; c > limit {
			return fmt.Sprintf("%.0f allocs, baseline %.0f (limit %.0f)", c, b, limit)
		}
		return ""
	})...)
	nCol, pCol, sCol := colIndex(cq, "n"), colIndex(cq, "path"), colIndex(cq, "speedup")
	bestN, bestSpeedup := -1.0, ""
	for _, row := range cq.Rows {
		if row[pCol] != "optimized" {
			continue
		}
		if n, err := strconv.ParseFloat(row[nCol], 64); err == nil && n > bestN {
			bestN, bestSpeedup = n, row[sCol]
		}
	}
	if s, err := strconv.ParseFloat(bestSpeedup, 64); err != nil || s < querySpeedupFloor {
		bad = append(bad, fmt.Sprintf("sssp n=%.0f optimized speedup %s below floor %.2f", bestN, bestSpeedup, querySpeedupFloor))
	}

	cc, bc := tableByID(curr, "E-query-callers"), tableByID(base, "E-query-callers")
	if cc == nil || bc == nil {
		return append(bad, "callers table missing from current run or baseline")
	}
	bad = append(bad, matchColumn(cc, bc, 2, "work", exactMatch)...)
	wCol, pIdx, spIdx := colIndex(cc, "work"), colIndex(cc, "P"), colIndex(cc, "speedup")
	for _, row := range cc.Rows {
		if row[wCol] != cc.Rows[0][wCol] {
			bad = append(bad, fmt.Sprintf("callers [%s] work %s differs from one caller's %s", rowKey(row, 2), row[wCol], cc.Rows[0][wCol]))
		}
	}
	if runtime.NumCPU() >= 2 {
		for _, row := range cc.Rows {
			if row[pIdx] == "1" || row[spIdx] == "-" {
				continue
			}
			if s, err := strconv.ParseFloat(row[spIdx], 64); err != nil || s < callerScalingFloor {
				bad = append(bad, fmt.Sprintf("callers P=%s speedup %s below floor %.2f", row[pIdx], row[spIdx], callerScalingFloor))
			}
		}
	}
	return bad
}
