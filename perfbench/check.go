package main

import (
	"fmt"
	"math"

	"sepsp"
	"sepsp/internal/baseline"
	"sepsp/internal/core"
)

// verifyTol is the relative tolerance Index.Verify applies.
const verifyTol = 1e-9

// checkSSSP accepts dist when it is an exact distance certificate from
// src for one of the weight versions lo..hi. The certificate check is the
// one Index.Verify runs, applied to each version the read may have seen.
func (h *harness) checkSSSP(src int, dist []float64, lo, hi int) error {
	var err error
	for k := lo; k <= hi; k++ {
		if err = core.VerifyDistances(h.vs.graph(k), src, dist, verifyTol); err == nil {
			return nil
		}
	}
	return fmt.Errorf("SSSP from %d matches no weight version in [%d,%d]: %w", src, lo, hi, err)
}

// checkSamples checks every kept answer after the traffic has stopped:
// SSSP vectors by certificate, Dist values against a Dijkstra reference
// of each weight version the read may have seen. It returns how many
// answers it checked and the first wrong one.
func (h *harness) checkSamples() (int, error) {
	type refKey struct{ version, src int }
	refs := map[refKey][]float64{}
	ref := func(k, src int) ([]float64, error) {
		if d, ok := refs[refKey{k, src}]; ok {
			return d, nil
		}
		d, err := baseline.Dijkstra(h.vs.graph(k), src, nil)
		refs[refKey{k, src}] = d
		return d, err
	}
	for _, s := range h.samples {
		if s.q.dst < 0 {
			if err := h.checkSSSP(s.q.src, s.dist, s.lo, s.hi); err != nil {
				return 0, err
			}
			continue
		}
		ok := false
		for k := s.lo; k <= s.hi && !ok; k++ {
			want, err := ref(k, s.q.src)
			if err != nil {
				return 0, err
			}
			ok = near(s.d, want[s.q.dst])
		}
		if !ok {
			return 0, fmt.Errorf("Dist(%d,%d) = %v matches no weight version in [%d,%d]", s.q.src, s.q.dst, s.d, s.lo, s.hi)
		}
	}
	return len(h.samples), nil
}

func near(got, want float64) bool {
	if math.IsInf(want, 1) {
		return math.IsInf(got, 1)
	}
	return math.Abs(got-want) <= verifyTol*math.Max(1, math.Abs(want))
}

// clientCounts is the harness side of the failure accounting, over the
// server's whole life (warm-up and tail included).
type clientCounts struct {
	reads, answered, failed int64
	calls                   int64 // Server.SSSP/Dist calls, retries included
	rounds                  int64 // sepsp.RetryValue rounds, re-sends included
	overloaded              int64 // calls answered ErrServerOverloaded
	timeouts                int64 // calls answered ErrQueueTimeout
}

// reconcile cross-checks the harness's counts against the server's own
// counters. With the result cache on, every call is decided exactly once
// by the cache (hit, shared flight, or leader miss); every leader is
// admitted or shed, and an evicted admission is shed again; an overload
// refusal reaches its leader and any waiters sharing that flight. Any
// mismatch is returned as an error.
func reconcile(c clientCounts, hz sepsp.ServerHealth) error {
	var errs []string
	bad := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }
	if c.reads != c.answered+c.failed {
		bad("reads %d != answered %d + failed %d", c.reads, c.answered, c.failed)
	}
	if c.rounds < c.reads || c.calls < c.rounds {
		bad("want reads %d <= retry rounds %d <= calls %d", c.reads, c.rounds, c.calls)
	}
	if decided := hz.CacheHits + hz.CacheShared + hz.CacheMisses; c.calls != decided {
		bad("calls %d != cache hits %d + shared %d + misses %d", c.calls, hz.CacheHits, hz.CacheShared, hz.CacheMisses)
	}
	if leaders := hz.Requests - hz.Evicted + hz.Rejected + hz.Brownouts; hz.CacheMisses != leaders {
		bad("cache misses %d != requests %d - evicted %d + rejected %d + brownouts %d",
			hz.CacheMisses, hz.Requests, hz.Evicted, hz.Rejected, hz.Brownouts)
	}
	if c.overloaded < hz.Rejected || c.overloaded > hz.Rejected+hz.CacheShared {
		bad("overload answers %d outside [rejected %d, rejected + shared %d]",
			c.overloaded, hz.Rejected, hz.Rejected+hz.CacheShared)
	}
	if c.timeouts < hz.TimedOut || c.timeouts > hz.TimedOut+hz.CacheShared {
		bad("queue-timeout answers %d outside [timed out %d, timed out + shared %d]",
			c.timeouts, hz.TimedOut, hz.TimedOut+hz.CacheShared)
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("accounting mismatch: %v", errs)
}

// counts totals the harness's reads over every phase.
func (h *harness) counts() clientCounts {
	h.mu.Lock()
	defer h.mu.Unlock()
	c := clientCounts{calls: h.calls.Load(), rounds: h.rounds.Load(), overloaded: h.overCalls.Load(), timeouts: h.timeouts.Load()}
	for ph := range numPhases {
		c.reads += h.t.reads[ph]
		c.answered += h.t.answered[ph]
		c.failed += h.t.failedIn(ph)
	}
	return c
}
