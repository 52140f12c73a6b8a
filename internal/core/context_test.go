package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"sepsp/internal/graph"
	"sepsp/internal/graph/gen"
	"sepsp/internal/pram"
	"sepsp/internal/separator"
)

// countdownCtx reports cancellation after its Err method has been polled n
// times — a deterministic stand-in for a deadline that fires mid-query.
type countdownCtx struct {
	n int
}

func (c *countdownCtx) Err() error {
	c.n--
	if c.n < 0 {
		return context.Canceled
	}
	return nil
}
func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return nil }
func (c *countdownCtx) Value(any) any               { return nil }

func contextTestEngine(t testing.TB) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(2))
	grid := gen.NewGrid([]int{10, 10}, gen.UniformWeights(0.5, 3), rng)
	sk := graph.NewSkeleton(grid.G)
	tree, err := separator.Build(sk, &separator.CoordinateFinder{Coord: grid.Coord}, separator.Options{LeafSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(grid.G, tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestSSSPContextCancelMidRun checks a context that dies after k phases
// stops the schedule within one phase: the counted rounds equal exactly the
// phases whose pre-phase poll succeeded.
func TestSSSPContextCancelMidRun(t *testing.T) {
	eng := contextTestEngine(t)
	total := eng.Schedule().Phases()
	for _, k := range []int{0, 1, 3, total / 2} {
		st := &pram.Stats{}
		dist, err := eng.SSSPContext(&countdownCtx{n: k}, 0, st)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: err = %v, want context.Canceled", k, err)
		}
		if dist != nil {
			t.Fatalf("k=%d: got a distance vector on cancellation", k)
		}
		if got := st.Rounds(); got != int64(k) {
			t.Fatalf("k=%d: ran %d phases before stopping, want exactly %d", k, got, k)
		}
	}
}

// TestSSSPContextCompletesEqually checks a context that survives the whole
// schedule yields the same distances and the same counted work as the
// context-free path.
func TestSSSPContextCompletesEqually(t *testing.T) {
	eng := contextTestEngine(t)
	stPlain, stCtx := &pram.Stats{}, &pram.Stats{}
	want := eng.SSSP(7, stPlain)
	got, err := eng.SSSPContext(context.Background(), 7, stCtx)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d] = %v want %v", v, got[v], want[v])
		}
	}
	if stCtx.Work() != stPlain.Work() || stCtx.Rounds() != stPlain.Rounds() {
		t.Fatalf("context path counted work=%d rounds=%d, plain path work=%d rounds=%d",
			stCtx.Work(), stCtx.Rounds(), stPlain.Work(), stPlain.Rounds())
	}
}

// TestSourcesContextCancel checks the multi-source fan-out honors mid-run
// cancellation and otherwise answers like solo queries.
func TestSourcesContextCancel(t *testing.T) {
	eng := contextTestEngine(t)
	out, err := eng.SourcesContext(&countdownCtx{n: 2}, []int{0, 5}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatal("got rows on cancellation")
	}
	rows, err := eng.SourcesContext(context.Background(), []int{0, 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j, src := range []int{0, 5} {
		want := eng.SSSP(src, nil)
		for v := range want {
			if rows[j][v] != want[v] {
				t.Fatalf("sources[%d][%d] = %v want %v", j, v, rows[j][v], want[v])
			}
		}
	}
}

// TestPhaseAtMatchesRunOrder checks the random-access PhaseAt enumeration
// is exactly the sequence RunPhases emits (index, kind, level, bucket).
func TestPhaseAtMatchesRunOrder(t *testing.T) {
	eng := contextTestEngine(t)
	s := eng.Schedule()
	i := 0
	s.RunPhases(func(ph PhaseInfo, edges []graph.Edge) {
		if ph.Index != i {
			t.Fatalf("phase %d: Index = %d", i, ph.Index)
		}
		at, atEdges := s.PhaseAt(i)
		if at != ph {
			t.Fatalf("phase %d: PhaseAt = %+v, RunPhases emitted %+v", i, at, ph)
		}
		if len(atEdges) != len(edges) {
			t.Fatalf("phase %d: bucket size %d vs %d", i, len(atEdges), len(edges))
		}
		i++
	})
	if i != s.Phases() {
		t.Fatalf("enumerated %d phases, want %d", i, s.Phases())
	}
}
