// Command perfbench is the serving benchmark of sepsp: it builds a grid
// workload from a seed, serves it through the public API (sepsp.Build,
// NewServer, Server.SSSP, Server.Dist, Server.Reweight) under one of three
// traffic mixes, checks the answers, and prints every metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// telemetry off. With -trace 1 the same workload runs twice, untraced and
// then with Telemetry and an Observer attached, and the metrics are the
// per-layer ones: counters read from the traced server plus direct timings
// of each layer's functions on the same inputs.
//
//	go build -o perfbench . && ./perfbench -workload uniform-closed -seed 1 -seconds 30 -trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"sepsp"
)

// workload is one traffic mix over the common input.
type workload struct {
	name       string
	cacheBytes int64
	zipf       bool    // Zipf(zipfS) sources; otherwise uniform
	rate       float64 // open-loop requests per second; 0 = closed loop
	mixedReads bool    // alternate Server.SSSP and Server.Dist reads
	writer     bool    // Server.Reweight beside the reads, throughout the window
}

// clients is the closed-loop reader count: one per CPU, less one for the
// writer when there is one.
func (w *workload) clients() int {
	p := runtime.GOMAXPROCS(0)
	if w.writer {
		return max(1, p-1)
	}
	return p
}

// workloads are the benchmark's traffic mixes; README.md records why each
// was chosen, and why BENCHMARK.json gates all but zipf-open.
var workloads = []*workload{
	{
		// Nearly every read misses the small cache: kernel, wave path
		// and admission do all the work.
		name:       "uniform-closed",
		cacheBytes: 2 * mib,
	},
	{
		// Above uncached capacity: servable only because the cache
		// absorbs most of the load.
		name:       "zipf-open",
		cacheBytes: 8 * mib,
		zipf:       true,
		rate:       400,
	},
	{
		// Writes beside reads: the only mix where the Manager rebuilds
		// within the measured window.
		name:       "reweight-mix",
		cacheBytes: 8 * mib,
		zipf:       true,
		mixedReads: true,
		writer:     true,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// setupRuns is how many times a timed run builds the index and server
// before its traffic. setup_s is the median of their process CPU times,
// which time withheld by the host does not inflate; the median wall time
// is printed beside it. Every set-up starts from the same live heap (the
// input only), so that each runs the same garbage collections.
const setupRuns = 9

// throughputSlice is the length of the slices of the window whose median
// answered-read rate is throughput_rps.
const throughputSlice = 2 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: uniform-closed, zipf-open or reweight-mix")
	seed := fs.Int64("seed", 1, "seed of the graph, the sources and the writer's weights")
	seconds := fs.Int("seconds", 30, "length of the measured window (split in two halves with -trace 1)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, telemetry off; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || *trace < 0 || *trace > 1 || *seed < 0 {
		fmt.Fprintln(stderr, "perfbench: need -workload uniform-closed|zipf-open|reweight-mix, -seed >= 0, -seconds >= 1, -trace 0|1")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	fmt.Fprintf(stdout, "workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d\n",
		w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))

	var rep *report
	var err error
	if *trace == 0 {
		rep, err = timedRun(w, *seed, time.Duration(*seconds)*time.Second)
	} else {
		rep, err = tracedRun(w, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.print(stdout)
	return 0
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // base counts and levels, printed but not in the JSON
}

// report is one run's outcome.
type report struct {
	correct           bool
	problems          []string
	attempted, failed int64
	metrics           []metric // the JSON set, in order
	extra             []metric // printed only
}

// add records a metric of the JSON set. A figure the run could not
// measure (no samples) fails the run rather than printing a placeholder.
func (r *report) add(name string, v float64, unit, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problem("%s: no measurement", name)
		v = 0
	}
	r.metrics = append(r.metrics, metric{name, v, unit, note})
}

func (r *report) info(name string, v float64, unit, note string) {
	r.extra = append(r.extra, metric{name, v, unit, note})
}

func (r *report) problem(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) print(w io.Writer) {
	for _, p := range r.problems {
		fmt.Fprintln(w, "FAIL:", p)
	}
	for _, set := range [][]metric{r.extra, r.metrics} {
		for _, m := range set {
			fmt.Fprintf(w, "%-34s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
		}
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = val{m.value, m.unit}
	}
	// Every value is finite (add replaces the rest), so Marshal cannot fail.
	out, _ := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	fmt.Fprintln(w, string(out))
}

// built is the set-up product: the index and the server over it.
type built struct {
	ix       *sepsp.Index
	srv      *sepsp.Server
	setupS   []float64 // wall seconds of each Build + NewServer
	setupCPU []float64 // process CPU seconds of each
	heapMiB  float64   // live heap after the last set-up and a forced GC
}

// setup builds the index and a server runs times, keeping the last pair.
func setup(w *workload, in *input, runs int) (*built, error) {
	g := in.publicGraph(in.baseWeights())
	opt := &sepsp.Options{
		Decomposition: sepsp.GridDecomposition(in.coord),
		Fallback:      sepsp.FallbackBaseline,
	}
	b := &built{}
	for i := range runs {
		runtime.GC()
		t0, c0 := time.Now(), processCPU()
		ix, err := sepsp.Build(g, opt)
		if err != nil {
			return nil, fmt.Errorf("build: %w", err)
		}
		srv, err := sepsp.NewServer(ix, &sepsp.ServerOptions{CacheBytes: w.cacheBytes})
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		b.setupS = append(b.setupS, time.Since(t0).Seconds())
		b.setupCPU = append(b.setupCPU, (processCPU() - c0).Seconds())
		if ix.Degraded() {
			srv.Close()
			return nil, errors.New("build: index degraded to the fallback engine")
		}
		if i < runs-1 {
			srv.Close()
			continue
		}
		b.ix, b.srv = ix, srv
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.heapMiB = float64(ms.HeapAlloc) / mib
	return b, nil
}

// pass serves the workload on srv for one window and checks it: kept
// answers, streamed answers (checkAll) and the failure accounting.
func pass(w *workload, in *input, srv *sepsp.Server, seed int64, window time.Duration, tel *sepsp.Telemetry, checkAll bool) (*passResult, []string, error) {
	h := newHarness(w, in, srv, seed)
	h.tel = tel
	h.checkAll = checkAll
	var checked sync.WaitGroup
	if checkAll {
		h.checkQ = make(chan sample, checkQueue)
		checked.Add(1)
		go func() {
			defer checked.Done()
			h.checker()
		}()
	}
	snap := func() snapshot {
		s := snapshot{health: srv.Healthz(), calls: h.calls.Load()}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.mallocs = ms.Mallocs
		s.cpu = processCPU()
		if tel != nil {
			s.metrics = scrape(tel)
		}
		return s
	}
	res, err := h.drive(context.Background(), window, snap)
	if checkAll { // drive has stopped every client
		close(h.checkQ)
		checked.Wait()
	}
	if err != nil {
		return nil, nil, err
	}
	var problems []string
	n, err := h.checkSamples()
	if err != nil {
		problems = append(problems, "wrong answer: "+err.Error())
	}
	res.checked = n + int(h.live.Load())
	if h.wrong != nil {
		problems = append(problems, "wrong answer: "+h.wrong.Error())
	}
	if err := reconcile(h.counts(), res.final); err != nil {
		problems = append(problems, err.Error())
	}
	return res, problems, nil
}

// readFigures are the end-to-end read and reweight figures of one pass.
type readFigures struct {
	attempted, answered, failed int64
	failedBy                    [numFail]int64
	resent                      int64          // reads sent again after a shed retry round
	shedBy                      [numFail]int64 // their shed rounds, by class
	throughput                  float64
	latency                     summary // answered window reads, ms
	lower                       quant   // their first quartile
	tail                        quant   // their highest percentile with minBeyond samples beyond
	sloFrac                     float64
	reweightS                   float64 // median in-window Server.Reweight call; NaN without a writer
	swaps                       int     // in-window Server.Reweight calls
	swapVers                    []int   // the weight versions they installed
	during                      summary // reads overlapping an in-window reweight, ms
	latSumMs                    float64
}

func figures(res *passResult) readFigures {
	h := res.h
	t := &h.t
	f := readFigures{
		attempted: t.reads[phaseWindow],
		answered:  t.answered[phaseWindow],
		failed:    t.failedIn(phaseWindow),
		failedBy:  t.failed[phaseWindow],
		resent:    t.resent[phaseWindow],
		shedBy:    t.shed[phaseWindow],
	}
	f.throughput = sliceRate(t.spans[phaseWindow], h.winStart, h.winEnd, max(1, int(res.window/throughputSlice)))
	lat := make([]float64, 0, len(t.spans[phaseWindow]))
	var inSLO int64
	for _, s := range t.spans[phaseWindow] {
		ms := s.ms()
		lat = append(lat, ms)
		f.latSumMs += ms
		if ms <= float64(sloLimit)/1e6 {
			inSLO++
		}
	}
	f.latency = summarize(lat, 0.99)
	f.lower = quant{0.25, rank(lat, 0.25), len(lat)} // lat is sorted now
	f.tail = summarize(lat, 1).Upper
	if f.attempted > 0 {
		f.sloFrac = float64(inSLO) / float64(f.attempted)
	}

	// The writer's swaps that started in the window.
	var rwS []float64
	var rw []span
	for _, r := range h.rw {
		if r.ph == phaseWindow {
			rwS = append(rwS, float64(r.end-r.start)/1e9)
			rw = append(rw, r.span)
			f.swapVers = append(f.swapVers, r.ver)
		}
	}
	f.swaps = len(rwS)
	f.reweightS = median(rwS)
	var during []float64
	for _, ph := range []phase{phaseWindow, phaseTail} {
		for _, s := range t.spans[ph] {
			for _, r := range rw {
				if s.start < r.end && s.end > r.start {
					during = append(during, s.ms())
					break
				}
			}
		}
	}
	f.during = summarize(during, 0.99)
	return f
}

// timedRun measures the end-to-end metrics with telemetry off.
func timedRun(w *workload, seed int64, window time.Duration) (*report, error) {
	in := newInput(seed)
	b, err := setup(w, in, setupRuns)
	if err != nil {
		return nil, err
	}
	res, problems, err := pass(w, in, b.srv, seed, window, nil, false)
	b.srv.Close()
	if err != nil {
		return nil, err
	}
	rep := &report{correct: true}
	for _, p := range problems {
		rep.problem("%s", p)
	}
	f := figures(res)
	rep.attempted, rep.failed = f.attempted, f.failed
	addReadMetrics(rep, f, res)
	rep.info("setup_wall_s", median(b.setupS), "s", "median wall time of the same set-ups "+fmtList(b.setupS))
	rep.add("setup_s", median(b.setupCPU), "s", fmt.Sprintf("median process CPU time of %d Build+NewServer before the traffic %s",
		len(b.setupCPU), fmtList(b.setupCPU)))
	rep.add("heap_mb", b.heapMiB, "MiB", "live heap after set-up and a forced GC")
	return rep, nil
}

// addReadMetrics adds the end-to-end read metrics of f and prints the
// tails, failures and reweight figures beside them.
func addReadMetrics(rep *report, f readFigures, res *passResult) {
	rep.info("window_s", res.window.Seconds(), "s", "")
	cpu := res.end.cpu - res.start.cpu
	rep.info("cpu_util", cpu.Seconds()/res.window.Seconds(), "cores", "process CPU seconds per window second")
	rep.info("failed_frac", frac(f.failed, f.attempted), "fraction", fmt.Sprintf("%d of %d reads; by class %s", f.failed, f.attempted, fmtFails(f.failedBy)))
	s, e := res.start.health, res.end.health
	hits, misses := e.CacheHits-s.CacheHits, e.CacheMisses-s.CacheMisses
	rep.info("hit_ratio", frac(hits, hits+misses), "fraction", fmt.Sprintf("cache hits=%d misses=%d shared=%d in the window", hits, misses, e.CacheShared-s.CacheShared))
	if f.swaps > 0 {
		rep.info("reads_per_swap", float64(f.attempted)/float64(f.swaps), "count", fmt.Sprintf("%d reads, %d swaps in the window", f.attempted, f.swaps))
	}
	rep.info("resent_frac", frac(f.resent, f.attempted), "fraction", fmt.Sprintf("%d of %d reads sent again after a shed retry round; shed rounds by class %s", f.resent, f.attempted, fmtFails(f.shedBy)))
	rep.info("answers_checked", float64(res.checked), "count", "")
	rep.info("read_p99_ms", f.latency.Upper.Value, "ms", f.latency.Upper.String())
	rep.info("read_tail_ms", f.tail.Value, "ms", f.tail.String())
	if f.swaps > 0 {
		rep.info("read_p99_during_reweight_ms", f.during.Upper.Value, "ms", f.during.Upper.String())
		rep.info("reweight_s", f.reweightS, "s", fmt.Sprintf("median of %d Server.Reweight calls", f.swaps))
	}
	rep.info("throughput_rps", f.throughput, "1/s", fmt.Sprintf("median over %v slices; %d answered reads in %.3fs",
		throughputSlice, f.answered, res.window.Seconds()))
	rep.add("reads_per_cpu_s", float64(f.answered)/cpu.Seconds(), "1/cpu-s", fmt.Sprintf("%d answered reads over %.3f process CPU seconds in the window",
		f.answered, cpu.Seconds()))
	rep.info("read_p50_ms", f.latency.Median.Value, "ms", f.latency.Median.String())
	rep.add("read_p25_ms", f.lower.Value, "ms", f.lower.String())
	rep.add("slo_attain_frac", f.sloFrac, "fraction", fmt.Sprintf("reads answered within %v of send/due time, of %d attempted", sloLimit, f.attempted))
}

// processCPU is the user+system CPU time of the whole process so far. It
// excludes time the host withheld from the process, which wall time does
// not.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func fmtFails(by [numFail]int64) string {
	parts := make([]string, 0, numFail)
	for c, n := range by {
		parts = append(parts, fmt.Sprintf("%s=%d", failNames[c], n))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}
