package exp

import (
	"strings"
	"testing"
)

// fakeDeltaResult builds a minimal E-delta result shaped like
// DeltaExperiment's output, for gate tests.
func fakeDeltaResult(dirty, repair, speedup, identical string) *Result {
	return &Result{Tables: []*Table{{
		ID: "E-delta",
		Header: []string{"n", "changed edges", "dirty nodes", "tree nodes", "repair work", "rebuild work",
			"reweight cpu", "rebuild cpu", "speedup", "identical"},
		Rows: [][]string{
			{"4096", "1", "12", "1023", "100", "9000", "1ms", "60ms", "60.00", "yes"},
			{"4096", "16", dirty, "1023", repair, "9000", "10ms", "60ms", speedup, identical},
		},
	}}}
}

func TestGateDelta(t *testing.T) {
	base := fakeDeltaResult("150", "2000", "6.00", "yes")
	for _, tc := range []struct {
		name string
		curr *Result
		want string // substring of a violation; "" means the gate passes
	}{
		{"clean on a slower machine", fakeDeltaResult("150", "2000", "3.10", "yes"), ""},
		{"dirty drift", fakeDeltaResult("151", "2000", "6.00", "yes"), "dirty"},
		{"work drift", fakeDeltaResult("150", "2001", "6.00", "yes"), "repair work"},
		{"speedup floor", fakeDeltaResult("150", "2000", "2.50", "yes"), "speedup"},
		{"not identical", fakeDeltaResult("150", "2000", "6.00", "no"), "bit-identical"},
	} {
		viol := strings.Join(GateDelta(tc.curr, base), ";")
		if tc.want == "" && viol != "" {
			t.Errorf("%s: flagged: %s", tc.name, viol)
		}
		if tc.want != "" && !strings.Contains(viol, tc.want) {
			t.Errorf("%s: want a %q violation, got %q", tc.name, tc.want, viol)
		}
	}
}
