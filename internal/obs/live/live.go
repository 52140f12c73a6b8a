// Package live is the serving-time half of the observability layer: metric
// primitives designed for per-query hot-path updates under heavy
// concurrency, plus a Prometheus text exposition writer, so operators can
// watch queue depth, admission, fallback engagement, and tail latency
// while the server is live (the offline sibling, internal/obs, snapshots
// after a run finishes).
//
// Everything here is lock-free on the write path:
//
//   - Counter shards its cells across cache lines so concurrent Inc calls
//     from many goroutines do not serialize on one hot word.
//   - Gauge is one atomic float64 word.
//   - Histogram buckets observations by power-of-two magnitude with one
//     atomic add per observation and estimates quantiles from the bucket
//     counts at scrape time (shared estimator: obs.HistogramSnapshot).
//   - Recorder (flight recorder) is a fixed-size per-slot-seqlock ring that
//     captures the last N query/wave/failure events for postmortems.
//
// The package follows the repository's nil-collector idiom: a nil
// *Counter, *Gauge, *Histogram, or *Recorder is valid and every method on
// it is a no-op, so instrumented call sites cost one predictable branch
// when live telemetry is off.
package live

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"sepsp/internal/obs"
)

// nShards is the number of counter cells: the next power of two at or above
// GOMAXPROCS at init, capped at 64. More shards than processors buys
// nothing; fewer re-serializes hot counters.
var nShards = func() int {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < 64 {
		n <<= 1
	}
	return n
}()

// shardIdx picks a cell for the calling goroutine. Goroutine identity is
// deliberately inaccessible in Go, so we hash the address of a stack
// variable: stacks are goroutine-private and at least 1KiB apart, which
// spreads concurrent writers across cells. The index only affects which
// cell absorbs the add — any value is correct.
func shardIdx() int {
	var b byte
	p := uintptr(unsafe.Pointer(&b))
	return int((p>>10)^(p>>17)) & (nShards - 1)
}

// pad64 keeps each shard cell on its own cache line (64B on the targets we
// care about), so counters touched by different processors do not falsely
// share a line.
type pad64 struct {
	n atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing integer safe for per-query
// hot-path increments from many goroutines: adds land on per-goroutine
// cells, reads sum the cells. Reads are O(nShards) — scrape-time only.
type Counter struct{ cells []pad64 }

func newCounter() *Counter { return &Counter{cells: make([]pad64, nShards)} }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.cells[shardIdx()].n.Add(n)
	}
}

// Value sums the cells (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.cells {
		total += c.cells[i].n.Load()
	}
	return total
}

// Gauge is a settable float64; one atomic word, safe for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set records v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last set value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram bucketing: bounds are 2^histMinExp … 2^histMaxExp. With values
// in seconds that spans sub-nanosecond to ~272 years; with values in plain
// counts (wave sizes) it spans 1 … 2^33. Everything below the first bound
// lands in bucket 0, everything above the last in the top bucket.
const (
	histMinExp  = -30
	histMaxExp  = 33
	histBuckets = histMaxExp - histMinExp + 1
)

// Histogram accumulates observations into log2-spaced buckets with one
// atomic add per bucket, plus an atomic count, a CAS-accumulated sum and
// CAS-tracked minimum and maximum — no lock anywhere on the observe path.
// Quantiles are estimated from the bucket counts at scrape time and
// clamped to the observed range; the estimate is exact at bucket
// boundaries and off by at most one power-of-two bucket width inside one,
// which is the right trade for latency telemetry (a p99 of "1.6ms,
// somewhere in (1ms, 2ms]" is as actionable as an exact order statistic,
// and the observe path stays wait-free).
type Histogram struct {
	count   atomic.Int64
	sumBits atomic.Uint64
	minBits atomic.Uint64 // +Inf until the first observation
	maxBits atomic.Uint64 // -Inf until the first observation
	buckets [histBuckets]atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// bucketIndex maps v to its bucket: the index of the smallest bound ≥ v,
// computed from the floating-point exponent instead of a bounds search.
func bucketIndex(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	f, e := math.Frexp(v) // v = f × 2^e, f ∈ [0.5, 1)
	if f == 0.5 {
		e-- // exact powers of two belong to the bound they equal
	}
	i := e - histMinExp
	if i < 0 {
		return 0
	}
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// Observe records one sample. Wait-free: two atomic adds and one CAS loop
// on the sum word.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Snapshot freezes the histogram into the offline snapshot type, which
// carries the shared Quantile/Mean estimators. The snapshot count is
// derived from the bucket counts so count and buckets always agree (the
// exposition's +Inf bucket must equal _count even mid-scrape); the sum may
// lag by the handful of in-flight observations — fine for telemetry,
// never torn.
func (h *Histogram) Snapshot() obs.HistogramSnapshot {
	s := obs.HistogramSnapshot{Bounds: histBounds}
	if h == nil {
		return s
	}
	counts := make([]int64, histBuckets+1) // +1: empty overflow bucket
	var total int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	s.Counts = counts
	s.Count = total
	s.Sum = math.Float64frombits(h.sumBits.Load())
	// Like the sum, the range may lag the buckets by the in-flight
	// observations; before the first range update it is unset and the
	// snapshot is estimated from the buckets alone.
	lo, hi := math.Float64frombits(h.minBits.Load()), math.Float64frombits(h.maxBits.Load())
	if lo <= hi {
		s.Min, s.Max, s.Ranged = lo, hi, true
	}
	return s
}

// histBounds is the shared bound slice every snapshot references (the
// bounds are static, so one allocation serves all scrapes).
var histBounds = obs.Log2Bounds(histMinExp, histMaxExp)

// Quantile estimates the q-quantile of the observations so far.
func (h *Histogram) Quantile(q float64) float64 { return h.Snapshot().Quantile(q) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Metric family types, as exposed in the Prometheus TYPE comment.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// series is one labeled instance within a family: exactly one of c, g, fn,
// h is set.
type series struct {
	labels string // rendered label pairs, e.g. `outcome="ok"`, or ""
	c      *Counter
	g      *Gauge
	fn     func() float64
	h      *Histogram
}

// family groups the series sharing one metric name.
type family struct {
	name, help, typ string
	series          []*series
}

// Registry is a named collection of live instruments plus the scrape-time
// exposition writer. Instrument registration takes a lock and happens at
// setup; the returned instruments are lock-free thereafter. All methods
// are safe for concurrent use; a nil *Registry hands out nil instruments.
type Registry struct {
	mu    sync.Mutex
	fams  []*family
	index map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*family)}
}

// ErrCollision reports a metric registered twice with a different type or
// duplicate label set — a programming error surfaced as a panic, matching
// the Prometheus client convention.
func (r *Registry) getFamily(name, help, typ string) *family {
	f := r.index[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.fams = append(r.fams, f)
		r.index[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("live: metric %q registered as both %s and %s", name, f.typ, typ))
	}
	return f
}

func (r *Registry) add(name, help, typ, labels string, s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, typ)
	for _, old := range f.series {
		if old.labels == labels {
			panic(fmt.Sprintf("live: metric %q{%s} registered twice", name, labels))
		}
	}
	s.labels = labels
	f.series = append(f.series, s)
}

// Counter registers (or creates) the labeled counter series. labels is a
// rendered Prometheus label list without braces (`outcome="ok"`), or ""
// for an unlabeled series.
func (r *Registry) Counter(name, help, labels string) *Counter {
	if r == nil {
		return nil
	}
	c := newCounter()
	r.add(name, help, typeCounter, labels, &series{c: c})
	return c
}

// Gauge registers the labeled gauge series.
func (r *Registry) Gauge(name, help, labels string) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{}
	r.add(name, help, typeGauge, labels, &series{g: g})
	return g
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// the shape for values that already live elsewhere (queue depth, worker
// busy counters) and should not be double-maintained.
func (r *Registry) GaugeFunc(name, help, labels string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.add(name, help, typeGauge, labels, &series{fn: fn})
}

// Histogram registers the labeled histogram series.
func (r *Registry) Histogram(name, help, labels string) *Histogram {
	if r == nil {
		return nil
	}
	h := newHistogram()
	r.add(name, help, typeHistogram, labels, &series{h: h})
	return h
}

// CounterValue returns the summed value of every series of the named
// counter family (0 if absent) — a convenience for tests and health
// summaries.
func (r *Registry) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	f := r.index[name]
	r.mu.Unlock()
	if f == nil || f.typ != typeCounter {
		return 0
	}
	var total int64
	for _, s := range f.series {
		total += s.c.Value()
	}
	return total
}

// quantiles are the tail percentiles every histogram family also exposes
// as a gauge family named <name>_quantile with a q label.
var quantiles = []struct {
	q     float64
	label string
}{{0.5, "0.5"}, {0.9, "0.9"}, {0.99, "0.99"}, {0.999, "0.999"}}

// WritePrometheus writes every family in registration order in the
// Prometheus text exposition format (version 0.0.4): HELP/TYPE comments,
// then one sample line per series; histograms expand to cumulative
// _bucket{le=...} samples plus _sum and _count, and additionally emit a
// <name>_quantile gauge family carrying p50/p90/p99/p999 estimated from
// the buckets, since plain Prometheus histograms defer quantiles to the
// scraper.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		writeHeader(&b, f.name, f.help, f.typ)
		for _, s := range f.series {
			switch {
			case s.c != nil:
				writeSample(&b, f.name, s.labels, float64(s.c.Value()))
			case s.g != nil:
				writeSample(&b, f.name, s.labels, s.g.Value())
			case s.fn != nil:
				writeSample(&b, f.name, s.labels, s.fn())
			case s.h != nil:
				writeHistogram(&b, f.name, s.labels, s.h.Snapshot())
			}
		}
		for _, s := range f.series {
			if s.h != nil {
				writeQuantiles(&b, f.name, s.labels, s.h.Snapshot())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeHeader(b *strings.Builder, name, help, typ string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func writeSample(b *strings.Builder, name, labels string, v float64) {
	b.WriteString(name)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	b.WriteByte('\n')
}

// joinLabels appends extra to base with the comma the format requires.
func joinLabels(base, extra string) string {
	if base == "" {
		return extra
	}
	return base + "," + extra
}

func writeHistogram(b *strings.Builder, name string, labels string, s obs.HistogramSnapshot) {
	// Cumulative buckets; empty buckets are elided (the cumulative counts
	// stay monotone without them) except the mandatory +Inf, keeping
	// 64-bucket histograms readable.
	var cum int64
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		if s.Counts[i] == 0 {
			continue
		}
		le := strconv.FormatFloat(bound, 'g', -1, 64)
		writeSample(b, name+"_bucket", joinLabels(labels, `le="`+le+`"`), float64(cum))
	}
	writeSample(b, name+"_bucket", joinLabels(labels, `le="+Inf"`), float64(s.Count))
	writeSample(b, name+"_sum", labels, s.Sum)
	writeSample(b, name+"_count", labels, float64(s.Count))
}

func writeQuantiles(b *strings.Builder, name, labels string, s obs.HistogramSnapshot) {
	qname := name + "_quantile"
	writeHeader(b, qname, "Bucket-estimated quantiles of "+name+".", typeGauge)
	for _, q := range quantiles {
		writeSample(b, qname, joinLabels(labels, `q="`+q.label+`"`), s.Quantile(q.q))
	}
}

// SortedNames returns the registered family names sorted — a stable view
// for tests.
func (r *Registry) SortedNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.fams))
	for _, f := range r.fams {
		names = append(names, f.name)
	}
	sort.Strings(names)
	return names
}
