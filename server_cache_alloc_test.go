//go:build !race

package sepsp

// Allocation pins for the result-cache hit path (excluded under -race like
// the other alloc budgets; `make check`'s plain test pass still runs them).

import (
	"context"
	"testing"
)

// TestServerCacheHitAllocs pins the SSSP hit path at the issue's budget:
// at most 2 allocations per cached answer (the caller's result copy, plus
// slack). A hit never wraps the context, never allocates a request struct,
// and never enters the admission queue.
func TestServerCacheHitAllocs(t *testing.T) {
	srv, _, _ := cacheServer(t, nil)
	ctx := context.Background()
	if _, err := srv.SSSP(ctx, 3); err != nil { // prime the entry
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := srv.SSSP(ctx, 3); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 2 {
		t.Fatalf("cache-hit SSSP = %.2f allocs/op, budget 2", avg)
	}
}

// TestServerCacheDistHitAllocs pins the point-query hit path at zero: a
// cached Dist reads one float out of the resident vector without copying.
func TestServerCacheDistHitAllocs(t *testing.T) {
	srv, _, _ := cacheServer(t, nil)
	ctx := context.Background()
	if _, err := srv.SSSP(ctx, 3); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := srv.Dist(ctx, 3, 42); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("cache-hit Dist = %.2f allocs/op, budget 0", avg)
	}
}

// TestServerCacheHitAllocsWithTelemetry proves the instrumented hit path
// stays within the same budget: live counters and the flight-recorder ring
// are allocation-free.
func TestServerCacheHitAllocsWithTelemetry(t *testing.T) {
	srv, _, _ := cacheServer(t, &ServerOptions{Telemetry: NewTelemetry(nil)})
	ctx := context.Background()
	if _, err := srv.SSSP(ctx, 3); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := srv.SSSP(ctx, 3); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 2 {
		t.Fatalf("instrumented cache-hit SSSP = %.2f allocs/op, budget 2", avg)
	}
}

// TestServerMissAllocs pins the uncached serving path: a miss takes a
// serving slot on the caller's goroutine and runs the pooled single-source
// kernel, so it allocates the returned distance vector and nothing that
// grows with the graph — no request struct, reply channel, or wave
// bookkeeping. The budget is that vector plus one of slack.
func TestServerMissAllocs(t *testing.T) {
	ix, n := serverIndex(t)
	srv, err := NewServer(ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	if _, err := srv.SSSP(ctx, 0); err != nil { // warm the workspace pool
		t.Fatal(err)
	}
	src := 0
	avg := testing.AllocsPerRun(100, func() {
		src = (src + 7) % n
		if _, err := srv.SSSP(ctx, src); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 2 {
		t.Fatalf("uncached SSSP miss = %.2f allocs/op, budget 2", avg)
	}
}
