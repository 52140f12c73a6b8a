package main

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"sepsp"
)

// consistent is a harness/server count pair that reconciles: 100 reads,
// 3 failed after retries; 104 retry rounds (4 reads sent again after a
// shed round) made 110 calls, of which 60 hit, 5 shared a flight
// and 45 led one; of the leaders 40 were admitted (2 later evicted and
// refused) and 7 refused outright, and the 9 refusals plus 1 shared
// failure reached the harness as overload answers.
func consistent() (clientCounts, sepsp.ServerHealth) {
	c := clientCounts{reads: 100, answered: 97, failed: 3, calls: 110, rounds: 104, overloaded: 10}
	hz := sepsp.ServerHealth{
		CacheHits: 60, CacheShared: 5, CacheMisses: 45,
		Requests: 40, Evicted: 2, Rejected: 7,
	}
	return c, hz
}

func TestReconcileAcceptsConsistentCounts(t *testing.T) {
	c, hz := consistent()
	if err := reconcile(c, hz); err != nil {
		t.Fatal(err)
	}
}

func TestReconcileRejectsMismatch(t *testing.T) {
	for _, tc := range []struct {
		name  string
		edit  func(*clientCounts, *sepsp.ServerHealth)
		match string
	}{
		{"lost read", func(c *clientCounts, _ *sepsp.ServerHealth) { c.answered-- }, "reads"},
		{"fewer rounds than reads", func(c *clientCounts, _ *sepsp.ServerHealth) { c.rounds = 90 }, "retry rounds 90"},
		{"fewer calls than rounds", func(c *clientCounts, _ *sepsp.ServerHealth) { c.calls = 103 }, "<= calls 103"},
		{"uncounted call", func(c *clientCounts, _ *sepsp.ServerHealth) { c.calls++ }, "cache hits"},
		{"unadmitted leader", func(_ *clientCounts, hz *sepsp.ServerHealth) { hz.Requests-- }, "cache misses"},
		{"phantom refusal", func(c *clientCounts, _ *sepsp.ServerHealth) { c.overloaded = 6 }, "overload answers"},
		{"unseen refusal", func(c *clientCounts, _ *sepsp.ServerHealth) { c.overloaded = 13 }, "overload answers"},
		{"timeout not counted", func(c *clientCounts, _ *sepsp.ServerHealth) { c.timeouts = 6 }, "queue-timeout"},
	} {
		c, hz := consistent()
		tc.edit(&c, &hz)
		err := reconcile(c, hz)
		if err == nil || !strings.Contains(err.Error(), tc.match) {
			t.Errorf("%s: got %v, want an error mentioning %q", tc.name, err, tc.match)
		}
	}
}

func TestClassifyTypedErrors(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want failClass
	}{
		{sepsp.ErrServerOverloaded, failOverloaded},
		{fmt.Errorf("%w: %w", sepsp.ErrBrownout, sepsp.ErrServerOverloaded), failBrownout},
		{fmt.Errorf("wrapped: %w", sepsp.ErrQueueTimeout), failTimeout},
		{errors.New("boom"), failOther},
	} {
		if got := classify(tc.err); got != tc.want {
			t.Errorf("classify(%v) = %s, want %s", tc.err, failNames[got], failNames[tc.want])
		}
	}
}

func TestParseExposition(t *testing.T) {
	m := parseExposition(`# HELP x y
# TYPE sepsp_admission_shed_total counter
sepsp_admission_shed_total{priority="interactive"} 3
sepsp_admission_shed_total{priority="batch"} 4
sepsp_server_queue_wait_seconds_sum 0.25
sepsp_server_queue_wait_seconds_count 10
`)
	if got := family(m, "sepsp_admission_shed_total"); got != 7 {
		t.Errorf("shed family = %v, want 7", got)
	}
	if got := family(m, "sepsp_server_queue_wait_seconds_sum"); got != 0.25 {
		t.Errorf("queue wait sum = %v, want 0.25", got)
	}
	if got := family(m, "sepsp_server_queue_wait_seconds"); got != 0 {
		t.Errorf("family prefix matched other series: %v", got)
	}
}
