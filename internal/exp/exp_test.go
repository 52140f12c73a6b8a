package exp

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"sepsp/internal/graph"
	"sepsp/internal/obs"
	"sepsp/internal/obs/live"
	"sepsp/internal/pram"
)

func TestFitSlopeExact(t *testing.T) {
	// y = 3 x^1.5  =>  slope 1.5 exactly.
	xs := []float64{10, 100, 1000, 10000}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * math.Pow(x, 1.5)
	}
	if s := FitSlope(xs, ys); math.Abs(s-1.5) > 1e-9 {
		t.Fatalf("slope %v", s)
	}
	if !math.IsNaN(FitSlope([]float64{1}, []float64{1})) {
		t.Fatal("single point must be NaN")
	}
	if !math.IsNaN(FitSlope([]float64{2, 2}, []float64{1, 5})) {
		t.Fatal("degenerate x must be NaN")
	}
}

func TestMuWorkloadsValid(t *testing.T) {
	for _, mu := range Table1Mus {
		wl, err := MuWorkload(mu, 400, 1)
		if err != nil {
			t.Fatalf("mu=%v: %v", mu, err)
		}
		sk := graph.NewSkeleton(wl.G)
		if err := wl.Tree.Validate(sk); err != nil {
			t.Fatalf("mu=%v: invalid tree: %v", mu, err)
		}
		if wl.G.N() < 100 {
			t.Fatalf("mu=%v: workload too small (%d)", mu, wl.G.N())
		}
	}
	if _, err := MuWorkload(-1, 100, 1); err == nil {
		t.Fatal("invalid mu accepted")
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{
		ID:     "X",
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== X: demo ==", "333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFiguresRun(t *testing.T) {
	t1, text1, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if t1.ID != "F1" || !strings.Contains(text1, "leaf") {
		t.Fatal("figure 1 rendering broken")
	}
	t2, text2, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if t2.ID != "F2" || !strings.Contains(text2, "chain") {
		t.Fatal("figure 2 rendering broken")
	}
}

func TestRegistryUnknownID(t *testing.T) {
	if _, err := Run("no-such-exp", pram.Sequential, 1, nil); err == nil {
		t.Fatal("unknown id accepted")
	}
	ids := IDs()
	if len(ids) != 24 {
		t.Fatalf("expected 24 registered experiments, have %d: %v", len(ids), ids)
	}
}

func TestSmallExperimentsRun(t *testing.T) {
	// The quick experiments run end-to-end through the registry; the heavy
	// scaling sweeps are exercised by the benchmarks instead.
	for _, id := range []string{"F1", "F2", "E-negcyc", "E-semiring"} {
		res, err := Run(id, pram.Sequential, 1, nil)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Tables) == 0 {
			t.Fatalf("%s: no tables", id)
		}
	}
}

func TestPhaseBreakdownExperiment(t *testing.T) {
	// The experiment self-checks that both attribution tables reproduce the
	// aggregate counts and errors otherwise, so a clean run is the assertion;
	// the sink check confirms the caller's registry receives the counters.
	sink := &obs.Sink{Metrics: live.NewRegistry()}
	res, err := Run("E-phases", pram.Sequential, 1, sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 2 {
		t.Fatalf("want level + phase tables, got %d", len(res.Tables))
	}
	for _, tb := range res.Tables {
		last := tb.Rows[len(tb.Rows)-1]
		if last[0] != "total" {
			t.Fatalf("table %q missing total row: %v", tb.Title, last)
		}
	}
	if sink.Metrics.Snapshot().SumCounters(obs.MPrepWork+".level.") == 0 {
		t.Fatal("caller sink received no per-level work counters")
	}
}

func TestSyncBFCountsPhases(t *testing.T) {
	// Path 0→1→2→3: phase-synchronous BF needs exactly 4 phases (3 to
	// propagate + 1 to detect stability).
	edges := []graph.Edge{{From: 0, To: 1, W: 1}, {From: 1, To: 2, W: 1}, {From: 2, To: 3, W: 1}}
	dist, work, phases := syncBF(4, edges, 0)
	if dist[3] != 3 {
		t.Fatalf("dist=%v", dist)
	}
	if phases != 4 {
		t.Fatalf("phases=%d", phases)
	}
	if work != int64(4*len(edges)) {
		t.Fatalf("work=%d", work)
	}
}

func TestPrepAndQueryExponents(t *testing.T) {
	cases := map[float64][2]float64{
		0:         {1, 1},
		0.5:       {1.5, 1},
		2.0 / 3.0: {2, 4.0 / 3.0},
		0.75:      {2.25, 1.5},
	}
	for mu, want := range cases {
		if got := prepExponent(mu); math.Abs(got-want[0]) > 1e-12 {
			t.Fatalf("prepExponent(%v)=%v", mu, got)
		}
		if got := queryExponent(mu); math.Abs(got-want[1]) > 1e-12 {
			t.Fatalf("queryExponent(%v)=%v", mu, got)
		}
	}
}
