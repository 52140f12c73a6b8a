package sepsp

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sepsp/internal/core"
	"sepsp/internal/faultinject"
	"sepsp/internal/obs"
)

func TestServerCloseIdempotent(t *testing.T) {
	g, _ := gridGraph(t, 4, 4, 21)
	ix, err := Build(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := srv.SSSP(context.Background(), 0); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("SSSP after Close: err = %v, want ErrServerClosed", err)
	}
	if h := srv.Healthz(); !h.Closed {
		t.Fatal("Healthz().Closed = false after Close")
	}
}

func TestServerQueriesRacingClose(t *testing.T) {
	g, _ := gridGraph(t, 5, 5, 23)
	ix, err := Build(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := querySSSP(t, ix, 0)
	srv, err := NewServer(ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	const clients = 8
	var wg sync.WaitGroup
	errc := make(chan error, clients*64)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				dist, err := srv.SSSP(context.Background(), 0)
				if err != nil {
					errc <- err
					return
				}
				if !approxEq(dist[len(dist)-1], want[len(want)-1]) {
					errc <- errAtf("stale answer during Close race")
					return
				}
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if !errors.Is(err, ErrServerClosed) {
			t.Fatalf("query racing Close: err = %v, want ErrServerClosed", err)
		}
	}
}

// TestServerQueueTimeout holds one request in its slot past QueueTimeout
// while a second waits for the slot: the waiter must give up with
// ErrQueueTimeout, the held request must stop on its own expired deadline,
// and each must be counted exactly once as timed out.
func TestServerQueueTimeout(t *testing.T) {
	g, _ := gridGraph(t, 4, 4, 25)
	ix, err := Build(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	gate := newGate()
	srv, err := NewServer(ix, &ServerOptions{QueueTimeout: 20 * time.Millisecond, Admission: oneSlot, Inject: gate})
	if err != nil {
		t.Fatal(err)
	}
	defer gate.open()
	held := make(chan error, 1)
	go func() {
		_, err := srv.SSSP(context.Background(), 1)
		held <- err
	}()
	waitFor(t, "the held request", func() bool { return gate.entered.Load() == 1 })
	if _, err := srv.SSSP(context.Background(), 0); !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("queued past deadline: err = %v, want ErrQueueTimeout", err)
	}
	gate.open()
	if err := <-held; !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("held past deadline: err = %v, want ErrQueueTimeout", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	h := srv.Healthz()
	if h.TimedOut != 2 || h.Cancelled != 0 {
		t.Fatalf("TimedOut = %d, Cancelled = %d; want 2, 0", h.TimedOut, h.Cancelled)
	}
}

// TestServerCancelWhileQueuedCountedOnce mirrors the timeout test with an
// explicit cancellation: the client observes ctx.Err() and the request that
// later skips the abandoned entry — not the client — counts it, exactly
// once.
func TestServerCancelWhileQueuedCountedOnce(t *testing.T) {
	g, _ := gridGraph(t, 4, 4, 25)
	ix, err := Build(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	gate := newGate()
	srv, err := NewServer(ix, &ServerOptions{Admission: oneSlot, Inject: gate})
	if err != nil {
		t.Fatal(err)
	}
	defer gate.open()
	held := make(chan error, 1)
	go func() {
		_, err := srv.SSSP(context.Background(), 1)
		held <- err
	}()
	waitFor(t, "the held request", func() bool { return gate.entered.Load() == 1 })
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := srv.SSSP(ctx, 0)
		done <- err
	}()
	waitFor(t, "the request to queue", func() bool { return srv.q.Len() == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled while queued: err = %v, want context.Canceled", err)
	}
	if h := srv.Healthz(); h.Cancelled != 0 {
		t.Fatalf("Cancelled = %d before the entry was skipped; want 0", h.Cancelled)
	}
	gate.open()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	h := srv.Healthz()
	if h.Cancelled != 1 || h.TimedOut != 0 {
		t.Fatalf("Cancelled = %d, TimedOut = %d; want 1, 0", h.Cancelled, h.TimedOut)
	}
	if h.Waves != 1 {
		t.Fatalf("Waves = %d; want 1 — a dead request must never run", h.Waves)
	}
}

func TestServerWavePanicIsolated(t *testing.T) {
	g, _ := gridGraph(t, 5, 5, 27)
	ix, err := Build(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := querySSSP(t, ix, 0)
	inj := faultinject.NewSeeded(faultinject.Config{
		Seed: 3,
		Sites: map[string]faultinject.SiteConfig{
			faultinject.SiteServerWave: {PanicPerMille: 500},
		},
	})
	srv, err := NewServer(ix, &ServerOptions{Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	panics, successes := 0, 0
	for i := 0; i < 32; i++ {
		dist, err := srv.SSSP(context.Background(), 0)
		if err != nil {
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("request %d: err = %v, want *PanicError", i, err)
			}
			panics++
			continue
		}
		successes++
		if !approxEq(dist[len(dist)-1], want[len(want)-1]) {
			t.Fatalf("request %d: wrong answer after recovered panic", i)
		}
	}
	if panics == 0 || successes == 0 {
		t.Fatalf("want a mix of outcomes, got %d panics / %d successes", panics, successes)
	}
	if h := srv.Healthz(); h.Panics == 0 {
		t.Fatal("Healthz().Panics = 0 after recovered wave panics")
	}
}

func TestServerHealthzSnapshot(t *testing.T) {
	g, _ := gridGraph(t, 4, 4, 29)
	ix, err := Build(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ix, &ServerOptions{MaxInFlight: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := srv.SSSP(context.Background(), i); err != nil {
			t.Fatal(err)
		}
	}
	h := srv.Healthz()
	if h.Closed || h.Degraded {
		t.Fatalf("healthy server reported Closed=%v Degraded=%v", h.Closed, h.Degraded)
	}
	if h.Requests != 5 || h.Waves != 5 || h.MaxInFlight != 32 {
		t.Fatalf("Healthz = %+v; want 5 requests, one wave each, with the configured ceiling", h)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRetryBacksOffOnOverload(t *testing.T) {
	var slept []time.Duration
	opt := &RetryOptions{
		MaxAttempts: 5,
		BaseDelay:   time.Millisecond,
		MaxDelay:    4 * time.Millisecond,
		Seed:        1,
		Sleep: func(_ context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}
	calls := 0
	err := Retry(context.Background(), opt, func() error {
		calls++
		if calls < 3 {
			return ErrServerOverloaded
		}
		return nil
	})
	if err != nil || calls != 3 || len(slept) != 2 {
		t.Fatalf("err=%v calls=%d sleeps=%d; want success on third try after two sleeps", err, calls, len(slept))
	}
	for i, d := range slept {
		if d < 0 || d > 4*time.Millisecond {
			t.Fatalf("sleep %d = %v outside [0, MaxDelay]", i, d)
		}
	}
}

func TestRetryGivesUpAfterMaxAttempts(t *testing.T) {
	calls := 0
	opt := &RetryOptions{MaxAttempts: 3, Seed: 1, Sleep: func(context.Context, time.Duration) error { return nil }}
	err := Retry(context.Background(), opt, func() error { calls++; return ErrServerOverloaded })
	if !errors.Is(err, ErrServerOverloaded) || calls != 3 {
		t.Fatalf("err=%v calls=%d; want ErrServerOverloaded after exactly 3 attempts", err, calls)
	}
}

func TestRetryDoesNotRetryOtherErrors(t *testing.T) {
	for _, sentinel := range []error{ErrQueueTimeout, ErrServerClosed, context.Canceled} {
		calls := 0
		err := Retry(context.Background(), &RetryOptions{Seed: 1}, func() error { calls++; return sentinel })
		if !errors.Is(err, sentinel) || calls != 1 {
			t.Fatalf("sentinel %v: err=%v calls=%d; want one attempt, error returned as-is", sentinel, err, calls)
		}
	}
}

func TestRetryStopsWhenContextEnds(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	// A context dead before the first attempt means op is never invoked:
	// the caller already gave up, so even one try is wasted work.
	err := Retry(ctx, &RetryOptions{BaseDelay: time.Hour, Seed: 1}, func() error {
		calls++
		return ErrServerOverloaded
	})
	if !errors.Is(err, context.Canceled) || calls != 0 {
		t.Fatalf("err=%v calls=%d; want context.Canceled with zero attempts", err, calls)
	}
}

func TestRetryCancelledMidLoop(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	// Cancellation after the first attempt stops the loop at the next
	// iteration even when the injected sleep ignores the context.
	err := Retry(ctx, &RetryOptions{Seed: 1, Sleep: func(context.Context, time.Duration) error { return nil }}, func() error {
		calls++
		cancel()
		return ErrServerOverloaded
	})
	if !errors.Is(err, context.Canceled) || calls != 1 {
		t.Fatalf("err=%v calls=%d; want context.Canceled after exactly one attempt", err, calls)
	}
}

func TestRetryBackoffCappedAtDeadline(t *testing.T) {
	const budget = 20 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	var slept []time.Duration
	opt := &RetryOptions{
		MaxAttempts: 10,
		BaseDelay:   time.Second, // would dwarf the context budget unclamped
		MaxDelay:    time.Second,
		Seed:        7,
		Sleep: func(_ context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}
	err := Retry(ctx, opt, func() error { return ErrServerOverloaded })
	if err == nil {
		t.Fatal("retry of a permanently overloaded op succeeded")
	}
	if len(slept) == 0 {
		t.Fatal("no backoff sleeps recorded")
	}
	// Every sleep must fit inside the remaining context budget — with a
	// 1s BaseDelay and a 20ms deadline, an unclamped draw would exceed the
	// whole budget with overwhelming probability across 9 sleeps.
	for i, d := range slept {
		if d > budget {
			t.Fatalf("sleep %d = %v longer than the entire deadline budget %v", i, d, budget)
		}
	}
}

func TestRetryValueThroughServer(t *testing.T) {
	g, _ := gridGraph(t, 4, 4, 31)
	ix, err := Build(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	want := querySSSP(t, ix, 1)
	dist, err := RetryValue(context.Background(), &RetryOptions{Seed: 7}, func() ([]float64, error) {
		return srv.SSSP(context.Background(), 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(dist[len(dist)-1], want[len(want)-1]) {
		t.Fatal("RetryValue returned a wrong distance vector")
	}
}

func TestServerOnDegradedIndex(t *testing.T) {
	g, _ := gridGraph(t, 5, 5, 33)
	ref := refGraph(g)
	inj := faultinject.NewSeeded(faultinject.Config{
		Seed: 1,
		Sites: map[string]faultinject.SiteConfig{
			faultinject.SitePramWorker: {PanicPerMille: 1000},
		},
	})
	ix, err := Build(g, &Options{Fallback: FallbackBaseline, Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Degraded() {
		t.Fatal("expected a degraded index")
	}
	srv, err := NewServer(ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dist, err := srv.SSSP(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyDistances(ref, 0, dist, 1e-9); err != nil {
		t.Fatal(err)
	}
	if h := srv.Healthz(); !h.Degraded {
		t.Fatal("Healthz().Degraded = false for a degraded index")
	}
}

// TestServerObserverCountedOnce drives one server through every counted
// outcome — a recovered panic, a cancellation while queued, a priority
// eviction, a shed arrival and queue timeouts — and checks each Observer
// server.* series reads exactly its Healthz field: the Observer exposes
// the server's own counts instead of keeping a second set.
func TestServerObserverCountedOnce(t *testing.T) {
	ix, _ := serverIndex(t)
	ob := NewObserver()
	gate := newGate()
	var panicNext atomic.Bool
	inj := injectFunc(func(site string) {
		if site == faultinject.SiteServerWave && panicNext.CompareAndSwap(true, false) {
			panic("injected serving panic")
		}
		gate.Fire(site)
	})
	srv, err := NewServer(ix, &ServerOptions{
		MaxInFlight:  3,
		QueueTimeout: time.Second,
		Admission:    &AdmissionOptions{Initial: 1, Min: 1, BrownoutThreshold: -1},
		Inject:       inj,
		Observer:     ob,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gate.open()

	panicNext.Store(true)
	var pe *PanicError
	if _, err := srv.SSSP(context.Background(), 0); !errors.As(err, &pe) {
		t.Fatalf("injected panic: err = %v, want *PanicError", err)
	}

	held := make(chan error, 1)
	go func() {
		_, err := srv.SSSP(context.Background(), 9)
		held <- err
	}()
	waitFor(t, "the held request", func() bool { return gate.entered.Load() == 1 })

	// Cancelled while queued: the abandoned entry keeps its queue place
	// until a release skips and counts it.
	cctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	go func() {
		_, err := srv.SSSP(cctx, 1)
		cancelled <- err
	}()
	waitFor(t, "the request to queue", func() bool { return srv.q.Len() == 1 })
	cancel()
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled while queued: err = %v, want context.Canceled", err)
	}

	// The queue is full once a background request joins; an interactive
	// arrival evicts it, and the next interactive arrival is shed.
	evicted := make(chan error, 1)
	go func() {
		_, err := srv.SSSP(WithPriority(context.Background(), PriorityBackground), 2)
		evicted <- err
	}()
	waitFor(t, "the background request to queue", func() bool { return srv.q.Len() == 2 })
	timedOut := make(chan error, 1)
	go func() {
		_, err := srv.SSSP(context.Background(), 3)
		timedOut <- err
	}()
	if err := <-evicted; !errors.Is(err, ErrServerOverloaded) {
		t.Fatalf("evicted request: err = %v, want ErrServerOverloaded", err)
	}
	if _, err := srv.SSSP(context.Background(), 4); !errors.Is(err, ErrServerOverloaded) {
		t.Fatalf("arrival at the ceiling: err = %v, want ErrServerOverloaded", err)
	}
	if err := <-timedOut; !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("queued past the deadline: err = %v, want ErrQueueTimeout", err)
	}
	gate.open()
	<-held // served or timed out, depending on how long the steps above took
	for src := 5; src < 8; src++ {
		if _, err := srv.SSSP(context.Background(), src); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	h := srv.Healthz()
	for _, c := range []struct {
		name string
		want int64
	}{
		{obs.MServerRequests, h.Requests},
		{obs.MServerRejected, h.Rejected},
		{obs.MServerCancelled, h.Cancelled},
		{obs.MServerTimedOut, h.TimedOut},
		{obs.MServerWaves, h.Waves},
		{obs.MServerPanics, h.Panics},
	} {
		if c.want == 0 {
			t.Errorf("Healthz field behind %s is 0: the run did not exercise it", c.name)
		}
		if got := ob.CounterValue(c.name); got != c.want {
			t.Errorf("Observer %s = %d, Healthz = %d", c.name, got, c.want)
		}
	}
	if h.Evicted == 0 {
		t.Error("Healthz().Evicted = 0: the run did not evict")
	}
	if got := ob.GaugeValue(obs.MServerQueueDepth); got != float64(h.QueueDepth) {
		t.Errorf("Observer %s = %g, Healthz = %d", obs.MServerQueueDepth, got, h.QueueDepth)
	}
}

// TestServerRejectsSharedObserver: an Observer exposes one server's
// counts, so a second server on the same Observer is refused instead of
// silently merging two servers into one set of series.
func TestServerRejectsSharedObserver(t *testing.T) {
	ix, _ := serverIndex(t)
	ob := NewObserver()
	srv, err := NewServer(ix, &ServerOptions{Observer: ob})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := NewServer(ix, &ServerOptions{Observer: ob}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("second server on one Observer: err = %v, want ErrBadOptions", err)
	}
	// A refused Observer is still usable by the server it belongs to.
	if _, err := srv.SSSP(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if got := ob.CounterValue(obs.MServerWaves); got != 1 {
		t.Fatalf("waves = %d, want 1", got)
	}
}

// scrapeCounter reads one unlabeled sample from the Prometheus exposition.
func scrapeCounter(t *testing.T, tel *Telemetry, name string) int64 {
	t.Helper()
	v, err := scrape(tel, name)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func scrape(tel *Telemetry, name string) (int64, error) {
	var b strings.Builder
	if err := tel.WriteMetrics(&b); err != nil {
		return 0, err
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseInt(v, 10, 64)
		}
	}
	return 0, fmt.Errorf("exposition has no %s sample", name)
}

// TestTelemetryCacheCountedOnceAcrossServers: two caching servers share
// one Telemetry, and each sepsp_cache_*_total family reads the sum of the
// two caches' own counts.
func TestTelemetryCacheCountedOnceAcrossServers(t *testing.T) {
	tel := NewTelemetry(nil)
	var srvs []*Server
	for i := 0; i < 2; i++ {
		ix, _ := serverIndex(t)
		// Room for a handful of vectors only, so distinct sources evict.
		srv, err := NewServer(ix, &ServerOptions{CacheBytes: 4096, Telemetry: tel})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srvs = append(srvs, srv)
	}
	// Per server: one hot source read repeatedly (one miss, then hits),
	// then a run of distinct sources (misses that evict), sized so every
	// family has a different total.
	for i, srv := range srvs {
		var srcs []int
		for r := 0; r < 5-2*i; r++ {
			srcs = append(srcs, 0)
		}
		for src := 1; src <= 8+4*i; src++ {
			srcs = append(srcs, src)
		}
		for _, src := range srcs {
			if _, err := srv.SSSP(context.Background(), src); err != nil {
				t.Fatal(err)
			}
		}
	}
	var hz [2]ServerHealth
	var bytesTotal int64
	for i, srv := range srvs {
		hz[i] = srv.Healthz()
		bytesTotal += srv.cache.Stats().BytesTotal
	}
	if hz[0].CacheHits+hz[1].CacheHits == 0 || hz[0].CacheEvictions+hz[1].CacheEvictions == 0 {
		t.Fatalf("no hits or no evictions: %+v / %+v", hz[0], hz[1])
	}
	for _, c := range []struct {
		name string
		want int64
	}{
		{"sepsp_cache_hits_total", hz[0].CacheHits + hz[1].CacheHits},
		{"sepsp_cache_misses_total", hz[0].CacheMisses + hz[1].CacheMisses},
		{"sepsp_cache_evictions_total", hz[0].CacheEvictions + hz[1].CacheEvictions},
		{"sepsp_cache_singleflight_shared_total", hz[0].CacheShared + hz[1].CacheShared},
		{"sepsp_cache_bytes_total", bytesTotal},
		{"sepsp_server_waves_total", hz[0].Waves + hz[1].Waves},
	} {
		if got := scrapeCounter(t, tel, c.name); got != c.want {
			t.Errorf("%s = %d, want %d (sum over both servers)", c.name, got, c.want)
		}
	}
}

// TestTelemetryFallbackMonotoneAcrossSwap: the fallback families keep
// counting across a Reweight — the reweighted index continues its
// predecessor's counts — so a scrape never reads a smaller value than the
// one before it.
func TestTelemetryFallbackMonotoneAcrossSwap(t *testing.T) {
	g, grid := gridGraph(t, 8, 8, 1)
	ix, err := Build(g, &Options{
		Decomposition: GridDecomposition(grid.Coord),
		Fallback:      FallbackBaseline,
		Inject:        queryPhaseInjector(7, 1000), // every primary query panics into the fallback
	})
	if err != nil {
		t.Fatal(err)
	}
	tel := NewTelemetry(nil)
	srv, err := NewServer(ix, &ServerOptions{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for src := 0; src < 4; src++ {
		if _, err := srv.SSSP(context.Background(), src); err != nil {
			t.Fatal(err)
		}
	}
	const queries, engaged = "sepsp_fallback_queries_total", "sepsp_fallback_engaged_total"
	before, beforeEngaged := scrapeCounter(t, tel, queries), scrapeCounter(t, tel, engaged)
	if before == 0 || beforeEngaged == 0 {
		t.Fatalf("no fallback traffic before the swap: queries=%d engaged=%d", before, beforeEngaged)
	}

	stop := make(chan struct{})
	scraped := make(chan error, 1)
	go func() {
		last := before
		for {
			select {
			case <-stop:
				scraped <- nil
				return
			default:
			}
			v, err := scrape(tel, queries)
			if err == nil && v < last {
				err = fmt.Errorf("%s fell from %d to %d", queries, last, v)
			}
			if err != nil {
				scraped <- err
				return
			}
			last = v
		}
	}()
	g2, _ := gridGraph(t, 8, 8, 2)
	if _, err := srv.Reweight(context.Background(), g2); err != nil {
		t.Fatal(err)
	}
	close(stop)
	if err := <-scraped; err != nil {
		t.Fatal(err)
	}
	if got := scrapeCounter(t, tel, queries); got < before {
		t.Fatalf("%s = %d after the swap, %d before", queries, got, before)
	}
	if got := scrapeCounter(t, tel, engaged); got < beforeEngaged {
		t.Fatalf("%s = %d after the swap, %d before", engaged, got, beforeEngaged)
	}
	if old, cur := ix.fb, srv.Manager().Index().fb; cur == old || cur.queries != old.queries {
		t.Fatal("the reweighted index does not continue its predecessor's fallback counts")
	}
}
