package sepsp

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"sepsp/internal/admission"
	"sepsp/internal/distcache"
	"sepsp/internal/faultinject"
	"sepsp/internal/obs"
	"sepsp/internal/obs/live"
	"sepsp/internal/pram"
)

// ServerOptions configures a Server. The zero value (or nil) uses the
// defaults noted on each field.
type ServerOptions struct {
	// MaxInFlight is the hard ceiling on admitted requests queued or being
	// served (default 1024). At most the effective limit of them run at
	// once — the adaptive limiter (see Admission) moves it below this
	// ceiling, never above it — and the rest wait in the priority queue.
	// Arrivals past the ceiling are shed by priority: they either evict
	// queued lower-priority work, are answered degraded (brownout), or are
	// refused with ErrServerOverloaded.
	MaxInFlight int
	// QueueTimeout bounds how long one admitted request may spend queued
	// plus being served; a request that exceeds it is answered with
	// ErrQueueTimeout (0 = no deadline). Per-request context deadlines
	// compose with it — whichever ends first wins.
	QueueTimeout time.Duration
	// Admission tunes the adaptive overload control: the gradient
	// concurrency limiter, the brownout detector, and the circuit breaker
	// around brownout's fallback answers. Nil uses the defaults noted on
	// AdmissionOptions — adaptive limiting is always on, starting wide open
	// at MaxInFlight.
	Admission *AdmissionOptions
	// CacheBytes, when positive, enables the epoch-aware result cache with
	// the given memory budget: completed SSSP distance vectors are retained
	// by (source, epoch) and repeat queries are answered from the cache
	// without entering the admission path at all, while concurrent misses
	// on one source share a single computation (single-flight). An
	// index hot-swap (Reweight) invalidates lazily — stale vectors stop
	// matching and are evicted first — and degraded (fallback-served)
	// results are never cached. 0 (the default) disables the cache at zero
	// per-request cost.
	CacheBytes int64
	// Observer, when non-nil, exposes the server's Healthz counts in its
	// registry: queue depth ("server.queue.depth" gauge) and the admitted /
	// refused / cancelled / timed-out request, served-wave (one per served
	// request), and recovered-panic counters, read from the same counts
	// Healthz reports. It may be the same Observer the Index was built
	// with, but it serves at most one Server: NewServer fails with
	// ErrBadOptions for an Observer another Server already uses.
	Observer *Observer
	// Inject, when non-nil, fires the fault-injection harness once per
	// served request, just before its kernel runs ("server.wave"). Chaos
	// testing only.
	Inject faultinject.Injector
	// Telemetry, when non-nil, receives live serving telemetry: per-query
	// outcome counters, queue-wait and compute-time histograms, and
	// flight-recorder events, continuously scrapeable while serving
	// (see Telemetry.Handler). Nil keeps the uninstrumented hot path — the
	// per-request cost is exactly one nil check.
	Telemetry *Telemetry
	// Logger, when non-nil, receives structured serving logs via log/slog:
	// served requests at Debug, recovered panics at Error. Nil disables
	// logging at zero cost.
	Logger *slog.Logger
}

// AdmissionOptions tunes the Server's adaptive overload control. The zero
// value (or a nil ServerOptions.Admission) uses the defaults noted on each
// field.
type AdmissionOptions struct {
	// Initial is the starting effective limit (default MaxInFlight: begin
	// wide open and let measured latency narrow the window).
	Initial int
	// Min is the floor the adaptive limit cannot shrink below (default 2,
	// capped at MaxInFlight). A positive floor keeps a trickle of admission
	// alive so the limiter can observe recovery.
	Min int
	// Tolerance is how much recent latency may exceed the no-load baseline
	// before the limiter shrinks the window (default 1.5).
	Tolerance float64
	// DropBackoff is the multiplicative decrease applied to the limit per
	// shed or eviction, in (0, 1) (default 0.95).
	DropBackoff float64
	// BrownoutThreshold is the shed-rate EWMA past which the server stops
	// refusing batch/background queries and answers them exactly-but-slower
	// from the baseline fallback engine instead (default 0.1). Negative
	// disables brownout; shed requests are always refused. Brownout also
	// requires the index to have been built with FallbackBaseline —
	// without a fallback engine, shed requests are refused with ErrBrownout.
	BrownoutThreshold float64
	// FallbackBreaker tunes the circuit breaker around brownout's fallback
	// answers, so a panicking fallback engine stops being retried until a
	// probe succeeds.
	FallbackBreaker BreakerOptions
	// RebuildBreaker tunes the circuit breaker the server's Manager wraps
	// around reweighting rebuilds (see ManagerOptions.RebuildBreaker).
	RebuildBreaker BreakerOptions

	// now replaces the limiter's clock in tests; nil uses time.Now.
	now func() time.Time
}

// Server serves concurrent shortest-path requests on one shared Index.
// Every admitted request runs the single-source query kernel on its
// caller's goroutine while it holds one of the effective limit's serving
// slots, so up to that many requests compute at once; arrivals past the
// limit wait in a priority queue, and a finishing request hands its slot
// straight to the next live waiter. Concurrent misses on one source are
// collapsed by the result cache's single-flight (ServerOptions.CacheBytes),
// not by the server.
//
// Admission is adaptive: a gradient concurrency limiter watches each
// request's round-trip time (admission to answer) against a smoothed
// no-load baseline and moves the effective limit between
// AdmissionOptions.Min and the MaxInFlight hard ceiling. Requests carry a
// Priority (WithPriority); when MaxInFlight requests are already admitted,
// an arriving request sheds the youngest queued request of a lower
// priority class rather than being refused, and past a sustained shed-rate
// threshold the server enters brownout: batch and background queries are
// answered exactly — but slower — by the baseline fallback engine instead
// of being refused. Interactive queries are never browned out.
//
// All methods are safe for concurrent use. Requests carry a
// context.Context: a request cancelled while queued is answered with
// ctx.Err() and never runs, and a running request stops within one
// Bellman-Ford phase of its context ending. A panic while serving a
// request is recovered and answered as a *PanicError — the server and the
// shared Index keep serving.
//
// The server serves through a Manager: each request pins the current
// epoch's index while it runs, so Reweight (or Manager.Reweight) can
// hot-swap a reweighted index underneath live traffic with zero downtime —
// in-flight requests finish on the epoch they started on, new requests
// route to the new epoch (see Manager).
type Server struct {
	mgr          *Manager
	n            int // skeleton vertex count; constant across epoch swaps
	maxInFlight  int
	queueTimeout time.Duration
	inj          faultinject.Injector

	// cache is the epoch-aware result cache; nil when disabled, and every
	// operation on a nil cache is a no-op, so the disabled hot path pays
	// one nil check inside the call.
	cache *distcache.Cache

	// mu orders slot grants against queue pushes, so a slot freed while an
	// arrival queues is never lost; running counts held serving slots.
	mu          sync.Mutex
	running     int
	q           *admission.Queue[*waiter]
	lim         *admission.Limiter
	brown       *admission.Brownout
	fbBreaker   *admission.Breaker // nil when disabled
	brownoutOff bool

	wg sync.WaitGroup // admitted requests not yet answered; Close waits

	// Always-on counters backing Healthz; an attached Observer or
	// Telemetry reads them rather than counting again.
	nRequests  atomic.Int64
	nRejected  atomic.Int64
	nCancelled atomic.Int64
	nTimedOut  atomic.Int64
	nWaves     atomic.Int64
	nPanics    atomic.Int64
	nBrownouts atomic.Int64
	nEvicted   atomic.Int64

	// Live telemetry and structured logging; both nil by default, and the
	// hot path pays only a nil check for each.
	tel    *Telemetry
	logger *slog.Logger
	reqSeq atomic.Int64 // served-request ids for flight-recorder correlation
}

// Waiter states: a queued request is decided exactly once, by whichever
// CAS wins — a releasing request granting it a slot, an arrival evicting
// it, or the waiter itself abandoning the queue when its context ends.
const (
	waiting int32 = iota
	granted
	evicted
	abandoned
)

// waiter is one queued request. ready is closed once state leaves waiting
// through a grant or an eviction; an abandoning waiter leaves its entry in
// the queue for a later releaser to skip and count, recording why in cause
// first.
type waiter struct {
	state atomic.Int32
	ready chan struct{}
	cause error // the context's cause; written before the abandon CAS
	slots int   // slots held, its own included, when granted; written before ready closes
	src   int
	enq   time.Time // wall-clock admission stamp, set only with Telemetry
}

// NewServer starts serving ix, wrapping it in a new Manager (reachable via
// Manager) so the index can be hot-swapped with Reweight. The caller should
// Close the server when done; Close waits for admitted requests.
func NewServer(ix *Index, opt *ServerOptions) (*Server, error) {
	maxInFlight := 1024
	var queueTimeout time.Duration
	var inj faultinject.Injector
	var ob *Observer
	var tel *Telemetry
	var logger *slog.Logger
	var admOpt AdmissionOptions
	var cacheBytes int64
	if opt != nil {
		if opt.MaxInFlight < 0 || opt.QueueTimeout < 0 || opt.CacheBytes < 0 {
			return nil, fmt.Errorf("%w: server limits must be non-negative", ErrBadOptions)
		}
		cacheBytes = opt.CacheBytes
		if opt.MaxInFlight > 0 {
			maxInFlight = opt.MaxInFlight
		}
		queueTimeout = opt.QueueTimeout
		inj = opt.Inject
		ob = opt.Observer
		tel = opt.Telemetry
		logger = opt.Logger
		if opt.Admission != nil {
			admOpt = *opt.Admission
		}
	}
	if admOpt.Initial < 0 || admOpt.Min < 0 {
		return nil, fmt.Errorf("%w: admission limits must be non-negative", ErrBadOptions)
	}
	if ob != nil && !ob.serving.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("%w: the Observer already serves another Server", ErrBadOptions)
	}
	mgrOpt := &ManagerOptions{
		Telemetry:      tel,
		Logger:         logger,
		Inject:         inj,
		RebuildBreaker: admOpt.RebuildBreaker,
	}
	brownCfg := admission.BrownoutConfig{Threshold: admOpt.BrownoutThreshold}
	if admOpt.BrownoutThreshold < 0 {
		brownCfg.Threshold = 0 // detector still runs; answers are gated off
	}
	s := &Server{
		mgr:          NewManager(ix, mgrOpt),
		n:            ix.g.N(),
		maxInFlight:  maxInFlight,
		queueTimeout: queueTimeout,
		inj:          inj,
		tel:          tel,
		logger:       logger,
		q:            admission.NewQueue[*waiter](),
		lim: admission.NewLimiter(admission.LimiterConfig{
			Initial:     admOpt.Initial,
			Min:         admOpt.Min,
			Max:         maxInFlight,
			Tolerance:   admOpt.Tolerance,
			DropBackoff: admOpt.DropBackoff,
			Now:         admOpt.now,
		}),
		brown:       admission.NewBrownout(brownCfg),
		fbBreaker:   admOpt.FallbackBreaker.build(),
		brownoutOff: admOpt.BrownoutThreshold < 0,
	}
	// New(MaxBytes ≤ 0) is nil: the cache stays off as a nil receiver.
	// Leader-local errors — the leader's own context or queue deadline
	// ending — make single-flight waiters re-race for leadership instead
	// of inheriting a failure that was never theirs.
	s.cache = distcache.New(distcache.Config{
		MaxBytes:    cacheBytes,
		VectorBytes: int64(s.n) * 8,
		Retryable: func(err error) bool {
			return errors.Is(err, context.Canceled) ||
				errors.Is(err, context.DeadlineExceeded) ||
				errors.Is(err, ErrQueueTimeout)
		},
	})
	s.mgr.setCache(s.cache)
	if s.fbBreaker != nil {
		fb := s.fbBreaker
		fb.OnTransition(func(_, to admission.State) {
			if s.tel != nil {
				s.tel.recordBreakerTransition("fallback", to)
			}
			if s.logger != nil {
				s.logger.Info("fallback breaker transition", "to", to.String())
			}
		})
	}
	if ob != nil {
		reg := ob.sink.Metrics
		reg.GaugeFunc(obs.MServerQueueDepth, "", "", func() float64 { return float64(s.q.Len()) })
		reg.CounterFunc(obs.MServerRequests, "", "", s.nRequests.Load)
		reg.CounterFunc(obs.MServerRejected, "", "", s.nRejected.Load)
		reg.CounterFunc(obs.MServerCancelled, "", "", s.nCancelled.Load)
		reg.CounterFunc(obs.MServerTimedOut, "", "", s.nTimedOut.Load)
		reg.CounterFunc(obs.MServerWaves, "", "", s.nWaves.Load)
		reg.CounterFunc(obs.MServerPanics, "", "", s.nPanics.Load)
	}
	if tel != nil {
		tel.attach(s)
	}
	return s, nil
}

// effectiveLimit is the number of serving slots currently in force: the
// adaptive limit capped by the MaxInFlight hard ceiling.
func (s *Server) effectiveLimit() int {
	lim := s.lim.Limit()
	if lim > s.maxInFlight {
		lim = s.maxInFlight
	}
	return lim
}

// inFlight is the number of admitted requests not yet decided: queued plus
// holding a serving slot.
func (s *Server) inFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running + s.q.Len()
}

// SSSP returns exact distances from src, like Index.SSSPContext, but
// through the server's cache and admission path: a miss waits for a
// serving slot and then runs the query kernel on the caller's goroutine.
//
// Admission is priority-aware (WithPriority; the default is
// PriorityInteractive). When MaxInFlight requests are already admitted the
// request may displace queued lower-priority work; a request that cannot
// be admitted is answered degraded from the fallback engine if brownout is
// engaged (batch/background only), and otherwise refused with
// ErrServerOverloaded (back off and retry — see Retry). It returns
// ErrQueueTimeout when the request outlived ServerOptions.QueueTimeout,
// ErrServerClosed after Close, ctx.Err() if ctx ends first, and a
// *PanicError if serving the request panicked.
func (s *Server) SSSP(ctx context.Context, src int) ([]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.checkVertex(src); err != nil {
		return nil, err
	}
	if s.cache == nil {
		dist, _, _, err := s.ssspAdmit(ctx, src)
		return dist, err
	}
	// The epoch is read before the lookup: a request started after a
	// Reweight swap completes always keys on the new epoch, so a stale
	// vector can never answer it. The hit path runs before any admission
	// work — no limiter, no queue, no context wrapping.
	epoch := s.mgr.Epoch()
	if dist, ok := s.cache.Get(src, epoch); ok {
		s.brown.Note(false) // an answered request is a healthy-signal, like any admission
		if s.tel != nil {
			s.tel.recordCacheHit(src, epoch)
		}
		return dist, nil
	}
	dist, how, err := s.cache.Do(ctx, src, epoch, func() ([]float64, uint64, bool, error) {
		d, served, degraded, cerr := s.ssspAdmit(ctx, src)
		return d, served, !degraded, cerr
	})
	if s.tel != nil {
		switch {
		case how == distcache.Computed:
			s.tel.recordCacheMiss(src, epoch)
		case err == nil: // Hit (Do re-checked) or Shared success
			s.tel.recordCacheHit(src, epoch)
		}
	}
	return dist, err
}

// ssspAdmit is the uncached serving path: admission, waiting for a slot,
// and the query itself. It reports the epoch that served the request and
// whether the answer came from a degraded (fallback) engine, so the cache
// layer can decide admission.
func (s *Server) ssspAdmit(ctx context.Context, src int) ([]float64, uint64, bool, error) {
	if s.queueTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, s.queueTimeout, ErrQueueTimeout)
		defer cancel()
	}
	cls := PriorityOf(ctx).class()
	start := s.lim.Now()
	var enq time.Time // wall-clock admission stamp for telemetry only
	if s.tel != nil {
		enq = time.Now()
	}
	w, slots, res := s.admit(cls, src, enq)
	switch res {
	case admission.Closed:
		return nil, 0, false, ErrServerClosed
	case admission.Rejected:
		dist, err := s.shed(ctx, src, cls)
		return dist, 0, true, err // brownout answers are degraded: never cached
	}
	defer s.wg.Done()
	s.nRequests.Add(1)
	s.brown.Note(false)
	if w != nil {
		if err := s.await(ctx, w); err != nil {
			if err == errEvicted {
				dist, err := s.shed(ctx, src, cls)
				return dist, 0, true, err
			}
			return nil, 0, false, err
		}
		slots = w.slots
	}
	defer s.release()
	return s.serve(ctx, src, start, enq, slots)
}

// errEvicted reports a queued request displaced by a higher-priority
// arrival. It never escapes the server: the victim's own SSSP call
// re-enters the shed/brownout path on its own goroutine (so a brownout
// Dijkstra never runs on the evictor's goroutine).
var errEvicted = errors.New("sepsp: internal: evicted from admission queue")

// admit decides one arrival. With a free slot and nobody queued ahead it
// takes the slot at once (nil waiter, and the number of slots held with
// it); otherwise it queues a waiter within the MaxInFlight ceiling,
// evicting the youngest queued request of a lower class when the ceiling
// is reached. Admitted requests are added to wg.
func (s *Server) admit(cls admission.Class, src int, enq time.Time) (*waiter, int, admission.PushResult) {
	s.mu.Lock()
	if s.q.IsClosed() {
		s.mu.Unlock()
		return nil, 0, admission.Closed
	}
	s.grantLocked() // the limit may have grown since the last release
	if s.running < s.effectiveLimit() && s.q.Len() == 0 {
		s.running++
		slots := s.running
		s.wg.Add(1)
		s.mu.Unlock()
		return nil, slots, admission.Admitted
	}
	w := &waiter{ready: make(chan struct{}), src: src, enq: enq}
	res, victim := s.q.Push(w, cls, s.maxInFlight-s.running)
	if res == admission.Admitted || res == admission.AdmittedEvicted {
		s.wg.Add(1)
	}
	s.mu.Unlock()
	if victim != nil {
		if victim.state.CompareAndSwap(waiting, evicted) {
			s.nEvicted.Add(1)
			close(victim.ready)
		} else {
			s.countAbandoned(victim) // it had already left; skip it here
		}
	}
	return w, 0, res
}

// await blocks a queued request until it is granted a slot (nil), evicted
// (errEvicted), or its context ends (the context's cause). A grant that
// races the context's end is handed straight back, so no slot is lost.
func (s *Server) await(ctx context.Context, w *waiter) error {
	select {
	case <-w.ready:
	case <-ctx.Done():
		w.cause = context.Cause(ctx)
		if w.state.CompareAndSwap(waiting, abandoned) {
			return w.cause // counted once, by whoever skips the entry
		}
		<-w.ready // a grant or eviction won the race
		if w.state.Load() == granted {
			s.release()
			s.countAbandoned(w)
			return w.cause
		}
	}
	if w.state.Load() == evicted {
		return errEvicted
	}
	return nil
}

// release gives up one serving slot, handing it to the next live waiter.
func (s *Server) release() {
	s.mu.Lock()
	s.running--
	s.grantLocked()
	s.mu.Unlock()
}

// grantLocked fills free slots from the queue in serve order, skipping (and
// counting) waiters whose context ended while queued. Caller holds mu.
func (s *Server) grantLocked() {
	for s.running < s.effectiveLimit() {
		w, _, ok := s.q.TryPop()
		if !ok {
			break
		}
		if w.state.CompareAndSwap(waiting, granted) {
			s.running++
			w.slots = s.running
			close(w.ready)
			continue
		}
		s.countAbandoned(w)
	}
}

// countAbandoned counts a request that ended before running, by its
// context's cause: ErrQueueTimeout as timed out, anything else as
// cancelled.
func (s *Server) countAbandoned(w *waiter) {
	out := live.OutcomeCancelled
	if errors.Is(w.cause, ErrQueueTimeout) {
		s.nTimedOut.Add(1)
		out = live.OutcomeTimeout
	} else {
		s.nCancelled.Add(1)
	}
	if s.tel != nil {
		s.tel.recordQuery(out, w.src, 0, time.Since(w.enq).Nanoseconds(), 0, s.mgr.Epoch(), false, nil)
	}
}

// serve answers one request that holds a serving slot: it pins the serving
// epoch, runs the query under a panic guard, records the outcome, and on
// success feeds the limiter the request's round-trip time since start (its
// admission stamp on the limiter's clock) as one of slots samples sharing a
// round trip — slots being the serving slots held, its own included, when
// it took its slot.
//
// With Telemetry attached, the request records its outcome, queue wait
// (admission → slot) and compute time, a size-1 wave observation with the
// pruning the kernel achieved, and one flight-recorder event; without it
// this function reads only the limiter's clock.
func (s *Server) serve(ctx context.Context, src int, start, enq time.Time, slots int) ([]float64, uint64, bool, error) {
	e := s.mgr.pin()
	defer s.mgr.release(e)
	ix, epoch := e.ix, e.id
	degraded := ix.Degraded() // also gates cache admission of the answer
	instr := s.tel != nil || s.logger != nil
	var t0 time.Time
	var st *pram.Stats
	var id int64
	if instr {
		t0 = time.Now()
		id = s.reqSeq.Add(1)
		if s.tel != nil {
			st = &pram.Stats{} // collect the query's pruning telemetry
		}
	}
	dist, err := s.runRequest(ctx, ix, src, st)
	var queueNanos, computeNanos int64
	if instr {
		computeNanos = time.Since(t0).Nanoseconds()
		if s.tel != nil {
			queueNanos = t0.Sub(enq).Nanoseconds()
		}
	}
	if err != nil {
		out := live.OutcomeError
		var pe *PanicError
		switch {
		case errors.As(err, &pe):
			out = live.OutcomePanic
			s.nPanics.Add(1)
			if s.logger != nil {
				s.logger.Error("request panicked", "request", id, "src", src, "err", err)
			}
		case ctx.Err() != nil:
			// The request's own context ended mid-query: answer with its
			// cause and count it once here.
			err = context.Cause(ctx)
			if errors.Is(err, ErrQueueTimeout) {
				s.nTimedOut.Add(1)
				out = live.OutcomeTimeout
			} else {
				s.nCancelled.Add(1)
				out = live.OutcomeCancelled
			}
		}
		if s.tel != nil {
			s.tel.recordQuery(out, src, id, queueNanos, computeNanos, epoch, degraded, nil)
		}
		return nil, 0, false, err
	}
	s.nWaves.Add(1)
	if s.tel != nil {
		s.tel.recordQuery(live.OutcomeOK, src, id, queueNanos, computeNanos, epoch, degraded, st)
	}
	if s.logger != nil {
		s.logger.Debug("request served", "request", id, "src", src, "epoch", epoch, "compute", time.Duration(computeNanos))
	}
	s.lim.ObserveShared(s.lim.Now().Sub(start), slots)
	return dist, epoch, degraded, nil
}

// runRequest executes one query on the epoch-pinned index under a panic
// guard: an injected or organic panic comes back as a *PanicError instead
// of unwinding the caller (the Index's own FallbackPolicy, if any, has
// already had its chance to absorb it).
func (s *Server) runRequest(ctx context.Context, ix *Index, src int, st *pram.Stats) (dist []float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			dist, err = nil, newPanicError("serve", r)
		}
	}()
	if s.inj != nil {
		s.inj.Fire(faultinject.SiteServerWave)
	}
	return ix.ssspStats(ctx, src, st)
}

// shed decides a request that could not be (or stay) admitted: feed the
// limiter and brownout detector, then either answer it degraded from the
// fallback engine (brownout engaged, non-interactive priority) or refuse
// it. Runs on the requester's own goroutine.
func (s *Server) shed(ctx context.Context, src int, cls admission.Class) ([]float64, error) {
	s.lim.OnDrop()
	s.brown.Note(true)
	if cls != admission.Interactive && !s.brownoutOff && s.brown.Active() {
		dist, err := s.brownoutAnswer(ctx, src, cls)
		if err == nil {
			return dist, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			s.countShed(src, cls)
			return nil, context.Cause(ctx)
		}
		if s.logger != nil {
			s.logger.Debug("brownout answer unavailable", "src", src, "priority", cls.String(), "err", err)
		}
		s.countShed(src, cls)
		return nil, fmt.Errorf("%w: %w", ErrBrownout, ErrServerOverloaded)
	}
	s.countShed(src, cls)
	return nil, ErrServerOverloaded
}

func (s *Server) countShed(src int, cls admission.Class) {
	s.nRejected.Add(1)
	if s.tel != nil {
		s.tel.recordShed(src, s.mgr.Epoch(), cls)
	}
}

// brownoutAnswer serves one shed query exactly from the baseline fallback
// engine, on the requester's goroutine, under the fallback circuit breaker
// and a panic guard. No serving slot is taken.
func (s *Server) brownoutAnswer(ctx context.Context, src int, cls admission.Class) ([]float64, error) {
	ix, epoch, release := s.mgr.Acquire()
	defer release()
	if ix.fb == nil {
		return nil, ErrDegraded // no fallback engine to answer from
	}
	if s.fbBreaker != nil && !s.fbBreaker.Allow() {
		return nil, ErrBreakerOpen
	}
	dist, err := s.runBrownout(ctx, ix, src)
	if err != nil {
		if s.fbBreaker != nil {
			if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
				// The caller went away mid-answer: not the engine's fault.
				s.fbBreaker.Cancel()
			} else {
				s.fbBreaker.Failure()
			}
		}
		return nil, err
	}
	if s.fbBreaker != nil {
		s.fbBreaker.Success()
	}
	s.nBrownouts.Add(1)
	if s.tel != nil {
		s.tel.recordBrownout(src, epoch, cls)
	}
	return dist, nil
}

// runBrownout executes one fallback query under a panic guard, so a
// panicking fallback engine feeds the breaker instead of killing the
// requester's goroutine.
func (s *Server) runBrownout(ctx context.Context, ix *Index, src int) (dist []float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			dist, err = nil, newPanicError("brownout", r)
		}
	}()
	return ix.fb.ssspCtx(ctx, ix.fb.g, src)
}

// Dist returns the u→v distance. When the index's pair oracle has been
// built it answers directly from the hub labels (no queueing); otherwise a
// cached distance vector for u answers without entering the admission
// limiter at all — a zero-allocation point read — and only a cache miss
// runs one SSSP request through the admission path and picks out v.
// Both endpoints are validated before any work is enqueued; an
// out-of-range endpoint fails fast with an error wrapping ErrBadOptions
// that names which endpoint (source or destination) is bad.
func (s *Server) Dist(ctx context.Context, u, v int) (float64, error) {
	if err := s.checkVertexRole(u, "source"); err != nil {
		return 0, err
	}
	if err := s.checkVertexRole(v, "destination"); err != nil {
		return 0, err
	}
	if o := s.mgr.Index().oracle.Load(); o != nil {
		return o.Dist(u, v), nil
	}
	if s.cache != nil {
		epoch := s.mgr.Epoch()
		if d, ok := s.cache.GetAt(u, epoch, v); ok {
			s.brown.Note(false)
			if s.tel != nil {
				s.tel.recordCacheHit(u, epoch)
			}
			return d, nil
		}
	}
	dist, err := s.SSSP(ctx, u)
	if err != nil {
		return 0, err
	}
	return dist[v], nil
}

// Manager returns the epoch lifecycle manager the server serves through.
func (s *Server) Manager() *Manager { return s.mgr }

// Reweight hot-swaps the serving index for one rebuilt against g — the
// same undirected skeleton with new weights — with zero downtime; it is
// shorthand for Manager().Reweight. See Manager.Reweight for the
// single-flight, cancellation, and failure-isolation semantics.
func (s *Server) Reweight(ctx context.Context, g *Graph) (uint64, error) {
	return s.mgr.Reweight(ctx, g)
}

// ServerHealth is a point-in-time snapshot of a Server's serving state, for
// health endpoints and load-shedding decisions. Counters are cumulative
// since NewServer.
//
// The JSON field names are a serialization contract: the /healthz endpoint
// (Telemetry.Handler) serves this struct, external probes match on the
// snake_case keys, and a golden test pins them — extend the struct, never
// rename a tag.
type ServerHealth struct {
	// Closed reports whether Close has been called.
	Closed bool `json:"closed"`
	// Degraded reports whether the underlying Index serves from the
	// baseline fallback engine (see Index.Degraded).
	Degraded bool `json:"degraded"`
	// Epoch is the generation tag of the index currently serving queries;
	// it advances by one on every completed hot-swap (see Manager).
	Epoch uint64 `json:"epoch"`
	// Rebuilding reports whether a reweighting rebuild is in flight.
	Rebuilding bool `json:"rebuilding"`
	// QueueDepth is the number of requests currently queued for a serving
	// slot, and MaxInFlight the configured hard ceiling.
	QueueDepth  int `json:"queue_depth"`
	MaxInFlight int `json:"max_in_flight"`
	// Requests counts admitted requests; Rejected counts refusals with
	// ErrServerOverloaded; Cancelled and TimedOut count admitted requests
	// that ended with their context's cancellation or ErrQueueTimeout.
	Requests  int64 `json:"requests"`
	Rejected  int64 `json:"rejected"`
	Cancelled int64 `json:"cancelled"`
	TimedOut  int64 `json:"timed_out"`
	// Waves counts served requests — each request is one wave of size 1,
	// the unit the wave metrics keep counting; Panics counts recovered
	// serving panics.
	Waves  int64 `json:"waves"`
	Panics int64 `json:"panics"`
	// EffectiveLimit is the number of serving slots currently in force
	// (the adaptive limit, ≤ MaxInFlight); Brownout reports whether brownout mode is engaged;
	// Brownouts counts queries answered degraded from the fallback engine;
	// Evicted counts queued requests displaced by higher-priority arrivals.
	EffectiveLimit int   `json:"effective_limit"`
	Brownout       bool  `json:"brownout"`
	Brownouts      int64 `json:"brownouts"`
	Evicted        int64 `json:"evicted"`
	// CacheHits counts queries answered from a cached distance vector;
	// CacheMisses counts single-flight leaders that computed fresh;
	// CacheShared counts requests answered by sharing another request's
	// in-flight computation; CacheEvictions counts vectors evicted for
	// budget room; CacheBytes is the resident cache size right now. All
	// stay zero when the cache is disabled (ServerOptions.CacheBytes = 0).
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheShared    int64 `json:"cache_shared"`
	CacheEvictions int64 `json:"cache_evictions"`
	CacheBytes     int64 `json:"cache_bytes"`
}

// String renders the snapshot as one "key=value" line for logs and CLIs.
func (h ServerHealth) String() string {
	return fmt.Sprintf(
		"closed=%v degraded=%v epoch=%d rebuilding=%v queue=%d/%d requests=%d rejected=%d cancelled=%d timedout=%d waves=%d panics=%d limit=%d brownout=%v brownouts=%d evicted=%d cacheHits=%d cacheMisses=%d cacheShared=%d cacheEvictions=%d cacheBytes=%d",
		h.Closed, h.Degraded, h.Epoch, h.Rebuilding, h.QueueDepth, h.MaxInFlight,
		h.Requests, h.Rejected, h.Cancelled, h.TimedOut, h.Waves, h.Panics,
		h.EffectiveLimit, h.Brownout, h.Brownouts, h.Evicted,
		h.CacheHits, h.CacheMisses, h.CacheShared, h.CacheEvictions, h.CacheBytes)
}

// Healthz returns a consistent-enough snapshot of the server's state; safe
// to call concurrently with serving, at any time (including after Close).
func (s *Server) Healthz() ServerHealth {
	cst := s.cache.Stats() // zero-valued when the cache is disabled
	return ServerHealth{
		Closed:         s.q.IsClosed(),
		Degraded:       s.mgr.Index().Degraded(),
		Epoch:          s.mgr.Epoch(),
		Rebuilding:     s.mgr.Rebuilding(),
		QueueDepth:     s.q.Len(),
		MaxInFlight:    s.maxInFlight,
		Requests:       s.nRequests.Load(),
		Rejected:       s.nRejected.Load(),
		Cancelled:      s.nCancelled.Load(),
		TimedOut:       s.nTimedOut.Load(),
		Waves:          s.nWaves.Load(),
		Panics:         s.nPanics.Load(),
		EffectiveLimit: s.effectiveLimit(),
		Brownout:       s.brown.Active(),
		Brownouts:      s.nBrownouts.Load(),
		Evicted:        s.nEvicted.Load(),
		CacheHits:      cst.Hits,
		CacheMisses:    cst.Misses,
		CacheShared:    cst.Shared,
		CacheEvictions: cst.Evictions,
		CacheBytes:     cst.Bytes,
	}
}

// Close stops admitting requests, serves everything already queued, waits
// for every admitted request to be answered, and returns. Safe to call
// multiple times.
func (s *Server) Close() error {
	s.mu.Lock()
	s.q.Close()
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

func (s *Server) checkVertex(v int) error {
	if v < 0 || v >= s.n {
		return fmt.Errorf("%w: vertex %d out of range [0,%d)", ErrBadOptions, v, s.n)
	}
	return nil
}

// checkVertexRole is checkVertex with the endpoint's role ("source",
// "destination") in the error, for two-endpoint entry points.
func (s *Server) checkVertexRole(v int, role string) error {
	if v < 0 || v >= s.n {
		return fmt.Errorf("%w: %s vertex %d out of range [0,%d)", ErrBadOptions, role, v, s.n)
	}
	return nil
}
