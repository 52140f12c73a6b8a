package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sepsp/internal/graph/gen"
	"sepsp/internal/pram"
)

// TestSourcesMatchesSSSP: the multi-source entry point fans single-source
// queries out across the executor, so every row must be bit-identical to a
// solo query and the counted work must be the sum of the solo queries'.
func TestSourcesMatchesSSSP(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []int{3 + rng.Intn(8), 3 + rng.Intn(8)}
		eng, g := buildGridEngine(t, dims, gen.UniformWeights(0.1, 4), seed, Config{Ex: pram.NewExecutor(1 + rng.Intn(4))})
		k := 1 + rng.Intn(6)
		srcs := rng.Perm(g.N())[:k]
		stMulti, stSolo := &pram.Stats{}, &pram.Stats{}
		rows := eng.Sources(srcs, stMulti)
		for i, src := range srcs {
			want := eng.SSSP(src, stSolo)
			for v := range want {
				if rows[i][v] != want[v] {
					t.Errorf("seed=%d src=%d v=%d: %v vs %v", seed, src, v, rows[i][v], want[v])
					return false
				}
			}
		}
		if stMulti.Work() != stSolo.Work() || stMulti.SkippedWork() != stSolo.SkippedWork() {
			t.Errorf("work accounting differs: executed %d vs %d, avoided %d vs %d",
				stMulti.Work(), stSolo.Work(), stMulti.SkippedWork(), stSolo.SkippedWork())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSourcesEmpty(t *testing.T) {
	eng, _ := buildGridEngine(t, []int{4, 4}, gen.UnitWeights(), 1, Config{})
	if out := eng.Sources(nil, nil); len(out) != 0 {
		t.Fatalf("want no rows for empty sources, got %v", out)
	}
}

func TestSourcesDuplicateSources(t *testing.T) {
	eng, _ := buildGridEngine(t, []int{5, 5}, gen.UniformWeights(1, 2), 2, Config{})
	rows := eng.Sources([]int{3, 3, 7}, nil)
	for v := range rows[0] {
		if rows[0][v] != rows[1][v] {
			t.Fatal("duplicate sources must produce identical rows")
		}
	}
	// Every row is caller-owned: mutating one must not show through another.
	rows[0][0] = -1
	if rows[1][0] == -1 {
		t.Fatal("duplicate rows alias the same backing array")
	}
}
