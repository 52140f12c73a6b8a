package main

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"sepsp"
	"sepsp/internal/baseline"
	"sepsp/internal/core"
	"sepsp/internal/graph"
	"sepsp/internal/separator"
)

// Direct layer timings of the traced run.
const (
	layerSources = 200 // sources of the workload sequence timed per query layer
	layerBuilds  = 3   // standalone separator and E+ timings, and rebuilds without a writer
)

// scrape reads the telemetry exposition into series → value.
func scrape(tel *sepsp.Telemetry) map[string]float64 {
	var buf bytes.Buffer
	_ = tel.WriteMetrics(&buf) // writes to a bytes.Buffer cannot fail
	return parseExposition(buf.String())
}

// parseExposition parses Prometheus text samples ("name{labels} value")
// into a map keyed by the series as written; comments are skipped.
func parseExposition(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// family sums every series of one metric family.
func family(m map[string]float64, name string) float64 {
	var s float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}

// delta is a family's growth over the window.
func (r *passResult) delta(name string) float64 {
	return family(r.end.metrics, name) - family(r.start.metrics, name)
}

// tracedRun runs the workload untraced and then traced for half the
// window each, checking every answer of both, and reports the per-layer
// metrics. Right after the untraced pass it rebuilds the index, with no
// readers, on the weight versions that pass's writer swapped in.
func tracedRun(w *workload, seed int64, window time.Duration) (*report, error) {
	in := newInput(seed)
	b, err := setup(w, in, 1)
	if err != nil {
		return nil, err
	}
	half := max(time.Second, window/2)
	plain, problems, err := pass(w, in, b.srv, seed, half, nil, true)
	b.srv.Close()
	if err != nil {
		return nil, err
	}
	pf := figures(plain)
	rebuildS, err := rebuilds(in, b.ix, seed, plain.h.vs, pf.swapVers)
	if err != nil {
		return nil, err
	}

	tel := sepsp.NewTelemetry(nil)
	ob := sepsp.NewObserver()
	srv, err := sepsp.NewServer(b.ix, &sepsp.ServerOptions{CacheBytes: w.cacheBytes, Telemetry: tel, Observer: ob})
	if err != nil {
		return nil, fmt.Errorf("traced server: %w", err)
	}
	traced, tp, err := pass(w, in, srv, seed, half, tel, true)
	srv.Close()
	if err != nil {
		return nil, err
	}
	problems = append(problems, tp...)
	if err := reconcileTelemetry(traced, scrape(tel), ob); err != nil {
		problems = append(problems, err.Error())
	}

	rep := &report{correct: true}
	for _, p := range problems {
		rep.problem("%s", p)
	}
	tf := figures(traced)
	rep.attempted, rep.failed = tf.attempted, tf.failed
	for _, m := range []struct {
		name string
		f    readFigures
		r    *passResult
	}{{"untraced", pf, plain}, {"traced", tf, traced}} {
		sub := &report{}
		addReadMetrics(sub, m.f, m.r)
		for _, x := range append(sub.extra, sub.metrics...) {
			rep.info(m.name+"."+x.name, x.value, x.unit, x.note)
		}
	}
	if err := addLayerMetrics(rep, w, in, b.ix, seed, pf, tf, plain, traced, rebuildS); err != nil {
		return nil, err
	}
	return rep, nil
}

// rebuilds times Index.WithWeightsContext from ix, with no readers
// running, on each weight version of vs in vers; without a writer's
// versions it times layerBuilds fresh versions of the writer's sequence.
func rebuilds(in *input, ix *sepsp.Index, seed int64, vs *versions, vers []int) ([]float64, error) {
	var ws [][]float64
	for _, k := range vers {
		ws = append(ws, vs.at(k))
	}
	if len(ws) == 0 {
		fresh := newVersions(in, seed)
		for range layerBuilds {
			ws = append(ws, fresh.next())
		}
	}
	var secs []float64
	for _, wt := range ws {
		g := in.publicGraph(wt)
		t0 := time.Now()
		if _, err := ix.WithWeightsContext(context.Background(), g); err != nil {
			return nil, fmt.Errorf("rebuild: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return secs, nil
}

// reconcileTelemetry checks that the traced server's telemetry and
// Observer counters agree with its Healthz and with the harness.
func reconcileTelemetry(r *passResult, m map[string]float64, ob *sepsp.Observer) error {
	hz := r.final
	c := r.h.counts()
	var errs []string
	check := func(what string, got, want int64) {
		if got != want {
			errs = append(errs, fmt.Sprintf("%s: telemetry %d != %d", what, got, want))
		}
	}
	check("cache hits", int64(family(m, "sepsp_cache_hits_total")), hz.CacheHits)
	check("cache misses", int64(family(m, "sepsp_cache_misses_total")), hz.CacheMisses)
	check("cache shared", int64(family(m, "sepsp_cache_singleflight_shared_total")), hz.CacheShared)
	check("admission sheds", int64(family(m, "sepsp_admission_shed_total")), hz.Rejected)
	check("retry backoffs", int64(family(m, "sepsp_retry_backoffs_total")), c.calls-c.rounds)
	check("observer admitted requests", ob.CounterValue("server.requests"), hz.Requests)
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("telemetry mismatch: %v", errs)
}

// addLayerMetrics reports the per-layer metrics: counters of the traced
// pass, and direct timings of each layer on the workload's inputs with no
// traffic running.
func addLayerMetrics(rep *report, w *workload, in *input, ix *sepsp.Index, seed int64, pf, tf readFigures, pr, tr *passResult, rbS []float64) error {
	s, e := tr.start.health, tr.end.health
	st := ix.Stats()

	// distcache
	hits, misses := e.CacheHits-s.CacheHits, e.CacheMisses-s.CacheMisses
	rep.add("distcache.hit_ratio", frac(hits, hits+misses), "fraction", fmt.Sprintf("hits=%d misses=%d", hits, misses))
	rep.add("distcache.hits", float64(hits), "count", "")
	rep.add("distcache.misses", float64(misses), "count", "")
	rep.add("distcache.shared", float64(e.CacheShared-s.CacheShared), "count", "single-flight waiters")
	rep.add("distcache.evictions", float64(e.CacheEvictions-s.CacheEvictions), "count", "")
	rep.add("distcache.resident_mb", float64(e.CacheBytes)/mib, "MiB", "at window end")

	// admission
	calls := tr.end.calls - tr.start.calls
	rejected := e.Rejected - s.Rejected
	rep.add("admission.rejected_frac", frac(rejected, calls), "fraction", fmt.Sprintf("%d rejections of %d calls", rejected, calls))
	rep.add("admission.calls", float64(calls), "count", "Server.SSSP/Dist calls, retries included")
	rep.add("admission.retries_per_read", float64(calls-tf.attempted)/float64(max(1, tf.attempted)),
		"retries/read", fmt.Sprintf("%d calls for %d reads", calls, tf.attempted))
	rep.add("admission.evicted", float64(e.Evicted-s.Evicted), "count", "")
	rep.add("admission.brownouts", float64(e.Brownouts-s.Brownouts), "count", "")
	rep.add("admission.limit_min", float64(tr.limitMin), "count", fmt.Sprintf("lowest EffectiveLimit, Healthz every %v", limitProbe))

	// server
	qwN, qwS := tr.delta("sepsp_server_queue_wait_seconds_count"), tr.delta("sepsp_server_queue_wait_seconds_sum")
	cpN, cpS := tr.delta("sepsp_server_compute_seconds_count"), tr.delta("sepsp_server_compute_seconds_sum")
	requests, waves := e.Requests-s.Requests, e.Waves-s.Waves
	rep.add("server.queue_wait_ms", 1e3*qwS/max(1, qwN), "ms", fmt.Sprintf("mean of %.0f admitted requests", qwN))
	rep.add("server.compute_ms", 1e3*cpS/max(1, cpN), "ms", fmt.Sprintf("mean of %.0f served requests (their wave's compute)", cpN))
	rep.add("server.wave_size_mean", float64(requests)/float64(max(1, waves)), "requests/wave", fmt.Sprintf("%d requests in %d waves", requests, waves))
	overhead := (tf.latSumMs - 1e3*(qwS+cpS)) / float64(max(1, tf.answered))
	rep.add("server.overhead_ms", overhead, "ms", fmt.Sprintf("residual per answered read: read latency minus queue wait minus compute, n=%d", tf.answered))
	cpu := pr.end.cpu - pr.start.cpu
	rep.add("server.cpu_ms_per_read", ms(cpu)/float64(max(1, pf.answered)), "ms",
		fmt.Sprintf("process user+system CPU %v over %d answered reads, untraced pass, harness and answer checks included", cpu.Round(time.Millisecond), pf.answered))
	rep.add("server.cpu_util", cpu.Seconds()/pr.window.Seconds(), "cores", "process CPU seconds per window second, untraced pass")
	allocs := tr.end.mallocs - tr.start.mallocs
	rep.add("server.allocs_per_read", float64(allocs)/float64(max(1, tf.answered)), "allocs/read", fmt.Sprintf("%d mallocs, harness included", allocs))

	// core
	perm := popularity(seed, in.n)
	next := clientSources(w, seed, perm, 0)
	srcs := make([]int, layerSources)
	for i := range srcs {
		srcs[i] = next()
	}
	ctx := context.Background()
	var coreMs []float64
	for _, src := range srcs {
		t0 := time.Now()
		if _, err := ix.SSSPContext(ctx, src); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		coreMs = append(coreMs, ms(time.Since(t0)))
	}
	lanes := tr.delta("sepsp_server_wave_size_sum")
	avoided := tr.delta("sepsp_query_relaxations_avoided_total")
	rep.add("core.sssp_ms", median(coreMs), "ms", fmt.Sprintf("median Index.SSSPContext over %d workload sources, one goroutine", len(coreMs)))
	rep.add("core.work_per_query", float64(st.QueryWork), "count", "Stats.QueryWork")
	rep.add("core.phases", float64(st.QueryPhases), "count", "Stats.QueryPhases")
	rep.add("core.pruned_frac", avoided/max(1, lanes*float64(st.QueryWork)), "fraction",
		fmt.Sprintf("%.0f relaxations avoided of %.0f scheduled over %.0f wave lanes", avoided, lanes*float64(st.QueryWork), lanes))

	// baseline
	dg := in.digraph(in.baseWeights())
	var dijMs []float64
	for _, src := range srcs {
		t0 := time.Now()
		if _, err := baseline.Dijkstra(dg, src, nil); err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		dijMs = append(dijMs, ms(time.Since(t0)))
	}
	rep.add("baseline.dijkstra_ms", median(dijMs), "ms", fmt.Sprintf("median over the same %d sources", len(dijMs)))

	// separator and augment: standalone builds on the set-up input.
	sk := graph.NewSkeleton(dg)
	var sepS, augS []float64
	var tree *separator.Tree
	for range layerBuilds {
		t0 := time.Now()
		t, err := separator.Build(sk, &separator.CoordinateFinder{Coord: in.coord}, separator.Options{})
		if err != nil {
			return fmt.Errorf("separator: %w", err)
		}
		sepS = append(sepS, time.Since(t0).Seconds())
		tree = t
	}
	for range layerBuilds {
		t0 := time.Now()
		if _, err := core.NewEngine(dg, tree, core.Config{}); err != nil {
			return fmt.Errorf("augment: %w", err)
		}
		augS = append(augS, time.Since(t0).Seconds())
	}
	rep.add("separator.build_s", median(sepS), "s", "median separator.Build "+fmtList(sepS))
	rep.add("augment.build_s", median(augS), "s", "median core.NewEngine "+fmtList(augS))
	rep.add("separator.tree_height", float64(st.TreeHeight), "count", "Stats.TreeHeight")
	rep.add("separator.max_separator", float64(st.MaxSeparator), "count", "Stats.MaxSeparator")
	rep.add("augment.prep_work", float64(st.PrepWork), "count", "Stats.PrepWork")
	rep.add("augment.shortcuts", float64(st.Shortcuts), "count", "Stats.Shortcuts")

	// manager: the untraced pass's swaps against rebuilds of the same
	// weight versions, timed right after that pass with no readers.
	rebuild := median(rbS)
	rep.add("augment.rebuild_s", rebuild, "s", "median Index.WithWeightsContext, no readers "+fmtList(rbS))
	rep.add("manager.swaps", float64(pf.swaps), "count", "Server.Reweight calls in the untraced window")
	if pf.swaps > 0 {
		rep.add("manager.reweight_s", pf.reweightS, "s", fmt.Sprintf("untraced pass, median of %d Server.Reweight calls", pf.swaps))
		rep.add("manager.swap_overhead_s", pf.reweightS-rebuild, "s", "manager.reweight_s minus augment.rebuild_s on the same versions")
	} else {
		rep.add("manager.reweight_s", 0, "s", "not applicable: no writer")
		rep.add("manager.swap_overhead_s", 0, "s", "not applicable: no writer")
	}

	// harness
	lag := summarize(tr.h.t.lagMs, 0.99)
	lagNote := "client gap between an answer and the next send"
	if w.rate > 0 {
		lagNote = "open-loop generator lateness"
	}
	rep.add("harness.gen_lag_p99_ms", lag.Upper.Value, "ms", lagNote+" "+lag.Upper.String())
	over := 1 - tf.throughput/pf.throughput
	overNote := fmt.Sprintf("throughput_rps traced %.4g vs untraced %.4g", tf.throughput, pf.throughput)
	if w.rate > 0 { // an open loop's throughput is its rate: compare latency
		over = tf.latency.Median.Value/pf.latency.Median.Value - 1
		overNote = fmt.Sprintf("read_p50_ms traced %.4g vs untraced %.4g", tf.latency.Median.Value, pf.latency.Median.Value)
	}
	rep.add("harness.trace_overhead_frac", over, "fraction", overNote+"; both passes check every answer on a background goroutine")
	rep.add("harness.throughput_rps", pf.throughput, "1/s", "untraced pass, median over "+throughputSlice.String()+" slices")
	rep.add("harness.read_p99_ms", pf.latency.Upper.Value, "ms", "untraced pass "+pf.latency.Upper.String())
	if pf.swaps > 0 {
		rep.add("harness.read_p99_during_reweight_ms", pf.during.Upper.Value, "ms", "untraced pass "+pf.during.Upper.String())
	} else {
		rep.add("harness.read_p99_during_reweight_ms", 0, "ms", "not applicable: no writer")
	}
	rep.add("harness.failed_frac", frac(tf.failed, tf.attempted), "fraction", fmt.Sprintf("%d of %d reads; by class %s", tf.failed, tf.attempted, fmtFails(tf.failedBy)))
	rep.add("harness.resent_frac", frac(tf.resent, tf.attempted), "fraction", fmt.Sprintf("%d of %d reads sent again after a shed retry round; shed rounds by class %s", tf.resent, tf.attempted, fmtFails(tf.shedBy)))
	rep.add("harness.read_samples", float64(tf.answered), "count", "answered reads in the traced window")
	rep.add("harness.answers_checked", float64(tr.checked), "count", "every answer of the traced pass, warm-up and tail included; the untraced pass checked "+fmt.Sprint(pr.checked))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
