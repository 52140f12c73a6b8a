package sepsp

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sepsp/internal/faultinject"
	"sepsp/internal/obs"
)

func serverIndex(t testing.TB) (*Index, int) {
	t.Helper()
	g, grid := gridGraph(t, 10, 10, 42)
	ix, err := Build(g, &Options{Decomposition: GridDecomposition(grid.Coord)})
	if err != nil {
		t.Fatal(err)
	}
	return ix, grid.G.N()
}

// gateInjector holds every request at the server.wave boundary — inside
// its serving slot, just before the kernel — until open is called, so a
// test can pin slots and watch admission decide the next arrival.
type gateInjector struct {
	entered atomic.Int64
	release chan struct{}
	once    sync.Once
}

func newGate() *gateInjector { return &gateInjector{release: make(chan struct{})} }

func (g *gateInjector) Fire(site string) faultinject.Fault {
	if site == faultinject.SiteServerWave {
		g.entered.Add(1)
		<-g.release
	}
	return faultinject.None
}

func (g *gateInjector) open() { g.once.Do(func() { close(g.release) }) }

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// oneSlot pins the limiter to a single serving slot, so one held request
// makes every further admitted request queue.
var oneSlot = &AdmissionOptions{Initial: 1, Min: 1}

// TestServerRunsRequestsConcurrently: admitted misses run the kernel on
// their callers' goroutines at the same time. The injector at the request
// boundary lets nobody through until two requests have entered it, so the
// test completes only if two requests are inside the serving path at once
// (a serializing dispatcher would hold the first forever and hit the
// deadline). Each request is one wave of size 1.
func TestServerRunsRequestsConcurrently(t *testing.T) {
	ix, _ := serverIndex(t)
	both := make(chan struct{})
	var entered atomic.Int64
	var late atomic.Bool
	inj := injectFunc(func(site string) {
		if site != faultinject.SiteServerWave {
			return
		}
		if entered.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
		case <-time.After(10 * time.Second):
			late.Store(true)
		}
	})
	ob := NewObserver()
	srv, err := NewServer(ix, &ServerOptions{Observer: ob, Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	srcs := []int{3, 77}
	errs := make([]error, len(srcs))
	dists := make([][]float64, len(srcs))
	var wg sync.WaitGroup
	for i, src := range srcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dists[i], errs[i] = srv.SSSP(context.Background(), src)
		}()
	}
	wg.Wait()
	srv.Close()
	if late.Load() {
		t.Fatal("the two requests never ran at the same time")
	}
	for i, src := range srcs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		want := querySSSP(t, ix, src)
		for v := range want {
			if dists[i][v] != want[v] {
				t.Fatalf("request %d: dist[%d] = %v want %v", i, v, dists[i][v], want[v])
			}
		}
	}
	if waves := ob.CounterValue(obs.MServerWaves); waves != 2 {
		t.Fatalf("waves = %d, want 2 (one per request)", waves)
	}
	if got := ob.CounterValue(obs.MServerRequests); got != 2 {
		t.Fatalf("requests counter = %d, want 2", got)
	}
}

// injectFunc adapts a function to faultinject.Injector.
type injectFunc func(site string)

func (f injectFunc) Fire(site string) faultinject.Fault {
	f(site)
	return faultinject.None
}

// TestServerConcurrentClients runs a live server under concurrent clients
// and verifies every answer; with the metrics registry attached, the
// request and wave counters must both equal the served total, and every
// wave has size exactly 1.
func TestServerConcurrentClients(t *testing.T) {
	ix, n := serverIndex(t)
	ob := NewObserver()
	srv, err := NewServer(ix, &ServerOptions{Observer: ob})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	want := make([][]float64, n)
	for v := 0; v < n; v++ {
		want[v] = querySSSP(t, ix, v)
	}
	const clients, perClient = 8, 16
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				src := (c*31 + i*17) % n
				dist, err := srv.SSSP(context.Background(), src)
				if err != nil {
					t.Error(err)
					return
				}
				for v := range dist {
					if !approxEq(dist[v], want[src][v]) {
						t.Errorf("SSSP(%d)[%d] = %v want %v", src, v, dist[v], want[src][v])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	total := int64(clients * perClient)
	if got := ob.CounterValue(obs.MServerRequests); got != total {
		t.Fatalf("requests counter = %d, want %d", got, total)
	}
	if waves := ob.CounterValue(obs.MServerWaves); waves != total {
		t.Fatalf("waves = %d, want %d", waves, total)
	}
}

// TestServerAdmissionLimit holds MaxInFlight requests in their slots and
// checks the next request is refused with ErrServerOverloaded and counted,
// and that admission resumes once the slots free up.
func TestServerAdmissionLimit(t *testing.T) {
	ix, _ := serverIndex(t)
	ob := NewObserver()
	gate := newGate()
	srv, err := NewServer(ix, &ServerOptions{MaxInFlight: 3, Observer: ob, Inject: gate})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer gate.open()
	held := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func(src int) {
			_, err := srv.SSSP(context.Background(), src)
			held <- err
		}(i)
	}
	waitFor(t, "three held requests", func() bool { return gate.entered.Load() == 3 })
	if _, err := srv.SSSP(context.Background(), 0); !errors.Is(err, ErrServerOverloaded) {
		t.Fatalf("full server: err = %v, want ErrServerOverloaded", err)
	}
	if got := ob.CounterValue(obs.MServerRejected); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	gate.open()
	for i := 0; i < 3; i++ {
		if err := <-held; err != nil {
			t.Fatalf("held request: %v", err)
		}
	}
	if _, err := srv.SSSP(context.Background(), 1); err != nil {
		t.Fatalf("after drain: %v", err)
	}
}

// TestServerCancelledWhileQueued checks a request whose context dies while
// it waits for a slot is answered with the context error, never served,
// and counted once — while the request queued behind it is still served.
func TestServerCancelledWhileQueued(t *testing.T) {
	ix, _ := serverIndex(t)
	ob := NewObserver()
	gate := newGate()
	srv, err := NewServer(ix, &ServerOptions{MaxInFlight: 3, Admission: oneSlot, Observer: ob, Inject: gate})
	if err != nil {
		t.Fatal(err)
	}
	defer gate.open()
	held := make(chan error, 1)
	go func() {
		_, err := srv.SSSP(context.Background(), 2)
		held <- err
	}()
	waitFor(t, "the held request", func() bool { return gate.entered.Load() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	dead := make(chan error, 1)
	go func() {
		_, err := srv.SSSP(ctx, 0)
		dead <- err
	}()
	waitFor(t, "the doomed request to queue", func() bool { return srv.q.Len() == 1 })
	live := make(chan error, 1)
	go func() {
		_, err := srv.SSSP(context.Background(), 1)
		live <- err
	}()
	waitFor(t, "the live request to queue", func() bool { return srv.q.Len() == 2 })
	cancel()
	if err := <-dead; !errors.Is(err, context.Canceled) {
		t.Fatalf("dead request: err = %v, want context.Canceled", err)
	}
	gate.open()
	if err := <-held; err != nil {
		t.Fatalf("held request: %v", err)
	}
	if err := <-live; err != nil {
		t.Fatalf("live request: %v", err)
	}
	srv.Close()
	if got := ob.CounterValue(obs.MServerCancelled); got != 1 {
		t.Fatalf("cancelled counter = %d, want 1", got)
	}
	if waves := ob.CounterValue(obs.MServerWaves); waves != 2 {
		t.Fatalf("waves = %d, want 2 (the dead request must never run)", waves)
	}
}

// TestServerCancelAbandonsRunningRequest: a request whose context ends
// while it holds a slot stops within one phase, answers with the context
// error, is counted once as cancelled, and frees its slot.
func TestServerCancelAbandonsRunningRequest(t *testing.T) {
	ix, _ := serverIndex(t)
	gate := newGate()
	srv, err := NewServer(ix, &ServerOptions{Inject: gate})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := srv.SSSP(ctx, 0)
		done <- err
	}()
	waitFor(t, "the request to hold its slot", func() bool { return gate.entered.Load() == 1 })
	cancel()
	gate.open()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled running request: err = %v, want context.Canceled", err)
	}
	h := srv.Healthz()
	if h.Cancelled != 1 || h.Waves != 0 {
		t.Fatalf("Cancelled = %d, Waves = %d; want 1, 0", h.Cancelled, h.Waves)
	}
	if _, err := srv.SSSP(context.Background(), 1); err != nil {
		t.Fatalf("slot not freed: %v", err)
	}
}

// TestServerClosed checks Close semantics: pending requests drain, later
// requests fail with ErrServerClosed, and double Close is fine.
func TestServerClosed(t *testing.T) {
	ix, _ := serverIndex(t)
	srv, err := NewServer(ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SSSP(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := srv.SSSP(context.Background(), 0); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("after Close: err = %v, want ErrServerClosed", err)
	}
	srv.Close() // idempotent
}

// TestServerDist covers both Dist paths: via an SSSP request, and via the
// hub-label oracle once BuildOracle has run.
func TestServerDist(t *testing.T) {
	ix, n := serverIndex(t)
	srv, err := NewServer(ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	u, v := 3, n-4
	want := querySSSP(t, ix, u)[v]
	got, err := srv.Dist(context.Background(), u, v)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(got, want) {
		t.Fatalf("Dist (request path) = %v want %v", got, want)
	}
	if _, err := ix.BuildOracle(); err != nil {
		t.Fatal(err)
	}
	got, err = srv.Dist(context.Background(), u, v)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(got, want) {
		t.Fatalf("Dist (oracle path) = %v want %v", got, want)
	}
}

// TestServerBadInput checks vertex validation and option validation.
func TestServerBadInput(t *testing.T) {
	ix, n := serverIndex(t)
	if _, err := NewServer(ix, &ServerOptions{MaxInFlight: -1}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("negative MaxInFlight: err = %v, want ErrBadOptions", err)
	}
	srv, err := NewServer(ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.SSSP(context.Background(), n); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("out-of-range src: err = %v, want ErrBadOptions", err)
	}
	if _, err := srv.Dist(context.Background(), 0, -1); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("out-of-range dst: err = %v, want ErrBadOptions", err)
	}
}
