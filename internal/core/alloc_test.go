//go:build !race

package core

// Allocation-regression tests for the pooled engine query paths, excluded
// under -race because the detector's instrumentation inflates the counts
// (`make check` runs them in the plain test pass).

import (
	"testing"

	"sepsp/internal/graph/gen"
)

// TestSSSPSteadyStateAllocs pins the uninstrumented phase loop: its
// trackers come from the engine workspace pool and it builds no closures,
// so after warmup a query allocates only the returned distance slice (plus
// one for slack).
func TestSSSPSteadyStateAllocs(t *testing.T) {
	eng, _ := buildGridEngine(t, []int{12, 12}, gen.UniformWeights(0.5, 2), 9, Config{})
	eng.SSSP(0, nil) // warm the workspace pool
	if avg := testing.AllocsPerRun(50, func() { _ = eng.SSSP(1, nil) }); avg > 2 {
		t.Fatalf("SSSP allocates %.1f objects per call, want <= 2", avg)
	}
}

// TestSourcesSteadyStateAllocs pins the multi-source fan-out: each source
// runs the pooled single-source kernel, so a call allocates the k result
// rows plus a constant number of spines, per-source stat cells and the
// executor closure — nothing proportional to n beyond the rows.
func TestSourcesSteadyStateAllocs(t *testing.T) {
	eng, g := buildGridEngine(t, []int{12, 12}, gen.UniformWeights(0.5, 2), 9, Config{})
	srcs := make([]int, 16)
	for j := range srcs {
		srcs[j] = (j * 7) % g.N()
	}
	eng.Sources(srcs, nil)
	budget := 2*float64(len(srcs)) + 6
	if avg := testing.AllocsPerRun(50, func() { _ = eng.Sources(srcs, nil) }); avg > budget {
		t.Fatalf("Sources allocates %.1f objects per call, want <= %g", avg, budget)
	}
}
