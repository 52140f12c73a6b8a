package exp

import (
	"fmt"
	"time"

	"sepsp/internal/baseline"
	"sepsp/internal/core"
	"sepsp/internal/pram"
)

// ServeExperiment measures the serving substrate behind sepsp.Server:
// every admitted request runs one single-source query on its caller's
// goroutine, so c concurrent callers run c queries at once. It reports, per
// caller count c, the wall-clock time per served source (the inverse of
// throughput) and the counted-model work per source — which §3.2 fixes at
// O(ℓ|E| + |E+|) however many requests run together — with single-source
// Dijkstra, the fallback path, as the serving-cost reference point.
// Work/source is deterministic; the time/source column is the
// machine-local perf baseline BENCH_serve.json records.
func ServeExperiment(ex *pram.Executor, scale int) (*Table, error) {
	if scale < 1 {
		scale = 1
	}
	const requests = 128
	t := &Table{
		ID:     "E-serve",
		Title:  "Serving: per-source cost of single-source queries vs concurrent callers",
		Header: []string{"n", "method", "callers", "time/source", "work/source"},
		Notes: []string{
			fmt.Sprintf("%d requests per row, pulled from a shared counter by the callers; sepsp.Server runs each admitted request this way, up to its effective limit at once", requests),
		},
	}
	for _, n := range []int{1024 * scale, 4096 * scale} {
		wl, err := MuWorkload(0.5, n, 17)
		if err != nil {
			return nil, err
		}
		eng, err := core.NewEngine(wl.G, wl.Tree, core.Config{Ex: ex})
		if err != nil {
			return nil, err
		}
		nn := wl.G.N()
		srcs := make([]int, requests)
		for i := range srcs {
			srcs[i] = (i * 37) % nn
		}
		for _, c := range []int{1, 2, 4, 8} {
			st := &pram.Stats{}
			start := time.Now()
			answerConcurrently(eng, srcs, c, st)
			per := time.Since(start) / requests
			t.Rows = append(t.Rows, []string{
				d(int64(nn)), "query", d(int64(c)), per.String(), d(st.Work() / requests),
			})
		}
		start := time.Now()
		for _, s := range srcs {
			if _, err := baseline.Dijkstra(wl.G, s, nil); err != nil {
				return nil, err
			}
		}
		per := time.Since(start) / time.Duration(len(srcs))
		t.Rows = append(t.Rows, []string{
			d(int64(nn)), "dijkstra (fallback path)", "1", per.String(), "-",
		})
	}
	return t, nil
}
