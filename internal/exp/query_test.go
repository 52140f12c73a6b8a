package exp

import (
	"runtime"
	"strings"
	"testing"
)

// fakeQueryResult builds a minimal E-query result shaped like
// QueryExperiment's output, for gate tests.
func fakeQueryResult(oneWork, manyWork, manySpeedup string) *Result {
	return &Result{Tables: []*Table{
		{
			ID:     "E-query-sssp",
			Header: []string{"n", "path", "time/query", "work", "avoided", "allocs", "speedup"},
			Rows: [][]string{
				{"4096", "reference", "700µs", "463554", "0", "1", "-"},
				{"4096", "optimized", "500µs", "463554", "0", "1", "1.40"},
			},
		},
		{
			ID:     "E-query-callers",
			Header: []string{"n", "callers", "P", "time/source", "work", "speedup"},
			Rows: [][]string{
				{"4096", "one", "1", "650µs", oneWork, "-"},
				{"4096", "GOMAXPROCS", "2", "360µs", manyWork, manySpeedup},
			},
		},
	}}
}

func TestGateQueryPasses(t *testing.T) {
	base := fakeQueryResult("29651328", "29651328", "1.80")
	if viol := GateQuery(fakeQueryResult("29651328", "29651328", "1.75"), base); len(viol) != 0 {
		t.Fatalf("unexpected violations: %v", viol)
	}
}

func TestGateQueryCatchesCallerWorkDrift(t *testing.T) {
	base := fakeQueryResult("29651328", "29651328", "1.80")
	viol := GateQuery(fakeQueryResult("29651328", "29651329", "1.80"), base)
	if len(viol) == 0 || !strings.Contains(strings.Join(viol, "\n"), "work") {
		t.Fatalf("work split across callers not caught: %v", viol)
	}
}

func TestGateQueryCatchesCallerScalingFloor(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("the caller scaling floor is skipped on single-CPU runners")
	}
	base := fakeQueryResult("29651328", "29651328", "1.80")
	viol := GateQuery(fakeQueryResult("29651328", "29651328", "1.10"), base)
	if len(viol) == 0 || !strings.Contains(strings.Join(viol, "\n"), "below floor") {
		t.Fatalf("caller speedup below floor not caught: %v", viol)
	}
}
