package sepsp

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"slices"
	"sync"
	"time"

	"sepsp/internal/admission"
	"sepsp/internal/obs/live"
	"sepsp/internal/pram"
)

// TelemetryOptions configures NewTelemetry. The zero value (or nil) uses
// the defaults noted on each field.
type TelemetryOptions struct {
	// FlightRecorderSize is how many recent request, swap and cache events
	// the flight recorder retains for /flightrecorder postmortem dumps
	// (default 512, rounded up to a power of two).
	FlightRecorderSize int
}

// Telemetry is the live serving telemetry registry: lock-free counters,
// latency histograms with phase breakdown (queue wait vs compute),
// and a flight recorder of the most recent events. Attach one to a Server
// via ServerOptions.Telemetry and expose it with Handler:
//
//	tel := sepsp.NewTelemetry(nil)
//	srv, _ := sepsp.NewServer(ix, &sepsp.ServerOptions{Telemetry: tel})
//	http.ListenAndServe(":9090", tel.Handler())
//
// The hot-path cost is a few atomic operations per request when attached
// and exactly zero when ServerOptions.Telemetry is nil (the server keeps
// its uninstrumented path). Unlike Observer — which snapshots after a run
// finishes — Telemetry is safe to scrape continuously while serving. All
// methods are safe for concurrent use. A Telemetry may be shared by
// several Servers; per-server gauges are distinguished by a server="N"
// label in attachment order, counts the servers own (served waves, cache
// and fallback counts) are summed over them, and /healthz reports the
// first server.
type Telemetry struct {
	reg *live.Registry
	rec *live.Recorder

	// queries is indexed by live.Outcome; degradedQ counts queries served
	// while the index was degraded to the baseline fallback (orthogonal to
	// outcome — a degraded query usually still succeeds).
	queries   [7]*live.Counter
	degradedQ *live.Counter
	backoffs  *live.Counter

	// Query-path pruning families: the schedule phases and edge
	// relaxations the convergence early exit proved redundant across
	// served requests (executed + avoided always equals the static schedule
	// cost, so the pruning rate is auditable from the exposition alone).
	qSkipPhases *live.Counter
	qSkipWork   *live.Counter

	// Admission-control families, indexed by admission.Class / breaker
	// state. The breaker transition counters are pre-registered for both
	// breakers ("rebuild", "fallback") and every target state.
	sheds        [admission.NumClasses]*live.Counter
	brownouts    [admission.NumClasses]*live.Counter
	rebuildTrans [3]*live.Counter
	fbTrans      [3]*live.Counter

	// Index-lifecycle families, driven by Manager reweighting rebuilds.
	swapsTotal   *live.Counter
	rebuildFails *live.Counter

	queueWait   *live.Histogram // seconds queued: admission → serving slot
	computeTime *live.Histogram // seconds the request's own query ran
	waveSize    *live.Histogram // requests per served wave: always 1
	rebuildTime *live.Histogram // seconds per reweighting rebuild attempt

	mu      sync.Mutex
	servers []*Server
	indexes map[*Index]int // attached index → id for worker gauge labels
}

// NewTelemetry returns a telemetry registry with every metric family
// pre-registered, so the /metrics shape is stable from the first scrape.
func NewTelemetry(opt *TelemetryOptions) *Telemetry {
	size := 512
	if opt != nil && opt.FlightRecorderSize > 0 {
		size = opt.FlightRecorderSize
	}
	reg := live.NewRegistry()
	t := &Telemetry{
		reg:     reg,
		rec:     live.NewRecorder(size),
		indexes: make(map[*Index]int),
	}
	const qname = "sepsp_server_queries_total"
	const qhelp = "Requests decided by the server, by outcome."
	for out := live.OutcomeOK; out <= live.OutcomeBrownout; out++ {
		t.queries[out] = reg.Counter(qname, qhelp, `outcome="`+out.String()+`"`)
	}
	for c := admission.Class(0); c < admission.NumClasses; c++ {
		plbl := `priority="` + c.String() + `"`
		t.sheds[c] = reg.Counter("sepsp_admission_shed_total",
			"Requests shed (refused or evicted) at admission, by priority class.", plbl)
		t.brownouts[c] = reg.Counter("sepsp_admission_brownout_total",
			"Shed requests answered exactly from the baseline fallback engine (brownout), by priority class.", plbl)
	}
	for st := admission.StateClosed; st <= admission.StateHalfOpen; st++ {
		tolbl := `to="` + st.String() + `"`
		t.rebuildTrans[st] = reg.Counter("sepsp_breaker_transitions_total",
			"Circuit breaker state transitions, by breaker and target state.",
			`breaker="rebuild",`+tolbl)
		t.fbTrans[st] = reg.Counter("sepsp_breaker_transitions_total",
			"Circuit breaker state transitions, by breaker and target state.",
			`breaker="fallback",`+tolbl)
	}
	t.degradedQ = reg.Counter("sepsp_server_degraded_queries_total",
		"Queries served while the index was degraded to the baseline fallback engine.", "")
	// Counts other components own are read at scrape time, summed over
	// the attached servers: served waves (Healthz), the result cache's
	// counters (flat at zero when the cache is disabled) and the fallback
	// engines' counts.
	reg.CounterFunc("sepsp_server_waves_total",
		"Served requests; each is one wave of size 1.", "",
		t.sumServers(func(s *Server) int64 { return s.nWaves.Load() }))
	t.backoffs = reg.Counter("sepsp_retry_backoffs_total",
		"Overload retries slept by sepsp.Retry.", "")
	t.qSkipPhases = reg.Counter("sepsp_query_phases_skipped_total",
		"Schedule phases skipped by the query convergence early exit, summed over served requests.", "")
	t.qSkipWork = reg.Counter("sepsp_query_relaxations_avoided_total",
		"Edge relaxations avoided by the query convergence early exit across served requests.", "")
	reg.CounterFunc("sepsp_fallback_engaged_total",
		"Degradation causes observed by the baseline fallback engine.", "",
		t.sumFallback(func(fb *fallbackEngine) *live.Counter { return fb.engaged }))
	reg.CounterFunc("sepsp_fallback_queries_total",
		"Queries answered by the baseline fallback engine.", "",
		t.sumFallback(func(fb *fallbackEngine) *live.Counter { return fb.queries }))
	t.swapsTotal = reg.Counter("sepsp_index_swaps_total",
		"Completed epoch hot-swaps (successful reweighting rebuilds).", "")
	t.rebuildFails = reg.Counter("sepsp_index_rebuild_failures_total",
		"Reweighting rebuilds that failed or panicked (old epoch kept serving).", "")
	reg.CounterFunc("sepsp_cache_hits_total",
		"Queries answered from a cached distance vector (no admission, no query).", "",
		t.sumServers(func(s *Server) int64 { return s.cache.Stats().Hits }))
	reg.CounterFunc("sepsp_cache_misses_total",
		"Cache misses that became single-flight leaders and computed a fresh vector.", "",
		t.sumServers(func(s *Server) int64 { return s.cache.Stats().Misses }))
	reg.CounterFunc("sepsp_cache_evictions_total",
		"Cached distance vectors evicted for memory-budget room.", "",
		t.sumServers(func(s *Server) int64 { return s.cache.Stats().Evictions }))
	reg.CounterFunc("sepsp_cache_bytes_total",
		"Cumulative bytes of distance vectors admitted to the cache.", "",
		t.sumServers(func(s *Server) int64 { return s.cache.Stats().BytesTotal }))
	reg.CounterFunc("sepsp_cache_singleflight_shared_total",
		"Concurrent requests answered by sharing another request's in-flight computation.", "",
		t.sumServers(func(s *Server) int64 { return s.cache.Stats().Shared }))
	t.rebuildTime = reg.Histogram("sepsp_index_rebuild_duration_seconds",
		"Seconds one reweighting rebuild attempt took, successful or not.", "")
	t.queueWait = reg.Histogram("sepsp_server_queue_wait_seconds",
		"Seconds a request spent queued, from admission to taking a serving slot.", "")
	t.computeTime = reg.Histogram("sepsp_server_compute_seconds",
		"Seconds the request's own query ran.", "")
	t.waveSize = reg.Histogram("sepsp_server_wave_size",
		"Requests per served wave: always 1, each request is served on its own.", "")
	return t
}

// attached returns the servers attached so far, in attachment order.
func (t *Telemetry) attached() []*Server {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.servers
}

// sumServers returns a CounterFunc body summing count over the attached
// servers.
func (t *Telemetry) sumServers(count func(*Server) int64) func() int64 {
	return func() int64 {
		var total int64
		for _, s := range t.attached() {
			total += count(s)
		}
		return total
	}
}

// sumFallback returns a CounterFunc body summing one fallback count over
// the attached servers' current indexes, each counter once: servers may
// share an index, and a reweighted index continues its predecessor's
// counters, which keeps the sum monotone across swaps.
func (t *Telemetry) sumFallback(pick func(*fallbackEngine) *live.Counter) func() int64 {
	return func() int64 {
		var seen []*live.Counter
		var total int64
		for _, s := range t.attached() {
			fb := s.mgr.Index().fb
			if fb == nil || slices.Contains(seen, pick(fb)) {
				continue
			}
			c := pick(fb)
			seen = append(seen, c)
			total += c.Value()
		}
		return total
	}
}

// attach wires a server's scrape-time gauges (and, once per index, the
// executor's per-worker busy gauges) into the registry. Called by
// NewServer.
func (t *Telemetry) attach(s *Server) {
	ix := s.mgr.Index()
	t.mu.Lock()
	sid := len(t.servers)
	t.servers = append(t.servers, s)
	ixid, seen := t.indexes[ix]
	if !seen {
		ixid = len(t.indexes)
		t.indexes[ix] = ixid
	}
	t.mu.Unlock()
	s.mgr.setTelemetry(t)

	slbl := fmt.Sprintf(`server="%d"`, sid)
	t.reg.GaugeFunc("sepsp_server_queue_depth",
		"Requests currently queued for a serving slot.", slbl,
		func() float64 { return float64(s.q.Len()) })
	t.reg.GaugeFunc("sepsp_server_max_in_flight",
		"Configured admission hard ceiling (MaxInFlight).", slbl,
		func() float64 { return float64(s.maxInFlight) })
	t.reg.GaugeFunc("sepsp_admission_limit",
		"Adaptive effective concurrency limit currently in force (<= MaxInFlight).", slbl,
		func() float64 { return float64(s.effectiveLimit()) })
	t.reg.GaugeFunc("sepsp_admission_inflight",
		"Requests admitted and not yet decided (queued + being served).", slbl,
		func() float64 { return float64(s.inFlight()) })
	t.reg.GaugeFunc("sepsp_server_brownout_active",
		"1 while brownout mode is engaged (low-priority queries answered degraded).", slbl,
		func() float64 {
			if s.brown.Active() {
				return 1
			}
			return 0
		})
	t.reg.GaugeFunc("sepsp_breaker_state",
		"Circuit breaker state: 0 closed, 1 open, 2 half-open.",
		slbl+`,breaker="rebuild"`,
		func() float64 { return float64(s.mgr.BreakerState()) })
	t.reg.GaugeFunc("sepsp_breaker_state",
		"Circuit breaker state: 0 closed, 1 open, 2 half-open.",
		slbl+`,breaker="fallback"`,
		func() float64 {
			if s.fbBreaker == nil {
				return 0
			}
			return float64(s.fbBreaker.State())
		})
	t.reg.GaugeFunc("sepsp_server_degraded",
		"1 while the index serves from the baseline fallback engine.", slbl,
		func() float64 {
			if s.mgr.Index().Degraded() {
				return 1
			}
			return 0
		})
	t.reg.GaugeFunc("sepsp_index_epoch",
		"Generation tag of the epoch currently serving queries.", slbl,
		func() float64 { return float64(s.mgr.Epoch()) })
	t.reg.GaugeFunc("sepsp_index_rebuilding",
		"1 while a reweighting rebuild is in flight.", slbl,
		func() float64 {
			if s.mgr.Rebuilding() {
				return 1
			}
			return 0
		})
	t.reg.GaugeFunc("sepsp_cache_resident_bytes",
		"Bytes of distance vectors resident in the cache right now (0 when disabled).", slbl,
		func() float64 { return float64(s.cache.Stats().Bytes) })
	if seen {
		return
	}
	ex := ix.ex
	ilbl := fmt.Sprintf(`index="%d"`, ixid)
	for w := 0; w < ex.P(); w++ {
		w := w
		t.reg.GaugeFunc("sepsp_worker_busy_iterations",
			"Busy iterations executed per PRAM worker slot (resettable).",
			fmt.Sprintf(`%s,worker="%d"`, ilbl, w),
			func() float64 { return float64(ex.WorkerIter(w)) })
	}
	t.reg.GaugeFunc("sepsp_exec_load_imbalance",
		"Max/mean busy iterations across the executor's workers (1 = balanced).", ilbl,
		func() float64 { _, _, imb := ex.LoadStats(); return imb })
}

// recordRebuild records one finished reweighting rebuild attempt: the
// duration histogram, the swap or failure counter, and a KindSwap
// flight-recorder event tagged with the new (or, on failure, the retained)
// epoch.
func (t *Telemetry) recordRebuild(epoch uint64, elapsed time.Duration, swapped bool) {
	t.rebuildTime.Observe(elapsed.Seconds())
	out := live.OutcomeOK
	if swapped {
		t.swapsTotal.Inc()
	} else {
		t.rebuildFails.Inc()
		out = live.OutcomeError
	}
	t.rec.Record(live.Event{
		Time:         live.Now(),
		Kind:         live.KindSwap,
		Outcome:      out,
		Source:       -1,
		ComputeNanos: elapsed.Nanoseconds(),
		Epoch:        epoch,
	})
}

// recordQuery records one decided request: outcome counter, phase
// histograms, and one flight-recorder event (KindQuery on success,
// KindFailure otherwise) tagged with the epoch that served it. wave is the
// served request's id, 0 for a request that never ran. A success also
// observes its size-1 wave and the schedule cost the convergence pruning
// avoided, read from st (nil, or 0/0, for requests served degraded — the
// fallback engine has no schedule to prune).
func (t *Telemetry) recordQuery(out live.Outcome, src int, wave, queueNanos, computeNanos int64, epoch uint64, degraded bool, st *pram.Stats) {
	t.queries[out].Inc()
	if degraded {
		t.degradedQ.Inc()
	}
	t.queueWait.Observe(float64(queueNanos) / 1e9)
	kind := live.KindFailure
	if out == live.OutcomeOK {
		kind = live.KindQuery
		t.computeTime.Observe(float64(computeNanos) / 1e9)
		t.waveSize.Observe(1)
		t.qSkipPhases.Add(st.SkippedRounds())
		t.qSkipWork.Add(st.SkippedWork())
	}
	var batch int32
	if wave != 0 {
		batch = 1 // each served request is its own wave
	}
	t.rec.Record(live.Event{
		Time:         live.Now(),
		Kind:         kind,
		Outcome:      out,
		Source:       int32(src),
		Wave:         wave,
		Batch:        batch,
		QueueNanos:   queueNanos,
		ComputeNanos: computeNanos,
		Epoch:        epoch,
		Degraded:     degraded,
	})
}

// recordCacheHit records one query answered from a cached vector (or by
// sharing another request's in-flight computation): it still counts as a
// decided-OK query, plus a KindCacheHit flight-recorder event. The
// sepsp_cache_* counter families read the cache's own counts.
func (t *Telemetry) recordCacheHit(src int, epoch uint64) {
	t.queries[live.OutcomeOK].Inc()
	t.rec.Record(live.Event{
		Time:    live.Now(),
		Kind:    live.KindCacheHit,
		Outcome: live.OutcomeOK,
		Source:  int32(src),
		Epoch:   epoch,
	})
}

// recordCacheMiss records one cache miss that led this request through the
// admission path as a single-flight leader. Ring event only: the serving
// request counts the query's outcome when it is decided.
func (t *Telemetry) recordCacheMiss(src int, epoch uint64) {
	t.rec.Record(live.Event{
		Time:    live.Now(),
		Kind:    live.KindCacheMiss,
		Outcome: live.OutcomeOK,
		Source:  int32(src),
		Epoch:   epoch,
	})
}

// recordShed records a request shed at admission (refused or evicted); it
// was never served, so only the outcome and per-priority counters
// and the flight recorder see it.
func (t *Telemetry) recordShed(src int, epoch uint64, cls admission.Class) {
	t.queries[live.OutcomeShed].Inc()
	t.sheds[cls].Inc()
	t.rec.Record(live.Event{
		Time:    live.Now(),
		Kind:    live.KindFailure,
		Outcome: live.OutcomeShed,
		Source:  int32(src),
		Epoch:   epoch,
	})
}

// recordBrownout records a shed request answered exactly from the baseline
// fallback engine instead of being refused.
func (t *Telemetry) recordBrownout(src int, epoch uint64, cls admission.Class) {
	t.queries[live.OutcomeBrownout].Inc()
	t.brownouts[cls].Inc()
	t.rec.Record(live.Event{
		Time:     live.Now(),
		Kind:     live.KindQuery,
		Outcome:  live.OutcomeBrownout,
		Source:   int32(src),
		Epoch:    epoch,
		Degraded: true,
	})
}

// recordBreakerTransition counts one circuit breaker state change.
func (t *Telemetry) recordBreakerTransition(name string, to admission.State) {
	if to > admission.StateHalfOpen {
		return
	}
	switch name {
	case "rebuild":
		t.rebuildTrans[to].Inc()
	case "fallback":
		t.fbTrans[to].Inc()
	}
}

// recordBackoff counts one overload retry slept by Retry. Nil-safe: Retry
// calls it unconditionally through RetryOptions.
func (t *Telemetry) recordBackoff() {
	if t != nil {
		t.backoffs.Inc()
	}
}

// QueriesTotal returns the cumulative decided-request count across every
// outcome — a programmatic convenience mirroring the
// sepsp_server_queries_total family.
func (t *Telemetry) QueriesTotal() int64 {
	return t.reg.CounterValue("sepsp_server_queries_total")
}

// WriteMetrics writes every metric family in the Prometheus text
// exposition format — the same bytes the /metrics endpoint serves.
func (t *Telemetry) WriteMetrics(w io.Writer) error {
	return t.reg.WritePrometheus(w)
}

// WriteFlightRecorder writes the flight recorder's current contents as one
// JSON object {"capacity": N, "events": [...]}, events oldest-first — the
// same bytes the /flightrecorder endpoint serves.
func (t *Telemetry) WriteFlightRecorder(w io.Writer) error {
	payload := struct {
		Capacity int          `json:"capacity"`
		Events   []live.Event `json:"events"`
	}{Capacity: t.rec.Cap(), Events: t.rec.Snapshot()}
	if payload.Events == nil {
		payload.Events = []live.Event{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(payload)
}

// Handler returns an embeddable http.Handler exposing the serving
// telemetry:
//
//	/metrics         Prometheus text exposition (counters, histograms,
//	                 bucket-estimated p50/p90/p99/p999 quantile gauges)
//	/healthz         ServerHealth of the first attached server as JSON
//	/flightrecorder  recent query/failure/swap/cache events as JSON
//	/debug/pprof/    the standard runtime profiles
//
// Mount it on its own listener (cmd/sepsp serve -listen) or under a route
// of an existing mux.
func (t *Telemetry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = t.WriteMetrics(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		t.mu.Lock()
		var srv *Server
		if len(t.servers) > 0 {
			srv = t.servers[0]
		}
		t.mu.Unlock()
		if srv == nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":"no server attached"}`)
			return
		}
		h := srv.Healthz()
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(h)
	})
	mux.HandleFunc("/flightrecorder", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = t.WriteFlightRecorder(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
