// Package live is the repository's one metrics registry: metric
// primitives designed for per-query hot-path updates under heavy
// concurrency, point-in-time snapshots with JSON and text exporters, and a
// Prometheus text exposition writer. The public Observer (through
// obs.Sink) and the serving Telemetry are both views over a Registry, so
// operators can watch queue depth, admission, fallback engagement, and
// tail latency while the server is live, and offline runs can export the
// same counters after they finish.
//
// Everything here is lock-free on the write path:
//
//   - Counter shards its cells across cache lines so concurrent Inc calls
//     from many goroutines do not serialize on one hot word.
//   - Gauge is one atomic float64 word.
//   - Histogram buckets observations by power-of-two magnitude with one
//     atomic add per observation and estimates quantiles from the bucket
//     counts at scrape time (HistogramSnapshot.Quantile).
//   - CounterFunc and GaugeFunc expose counts and values another component
//     already owns, read at snapshot time, so no event is counted twice.
//   - Recorder (flight recorder) is a fixed-size per-slot-seqlock ring that
//     captures the last N query/failure/swap/cache events for postmortems.
//
// The package follows the repository's nil-collector idiom: a nil
// *Counter, *Gauge, *Histogram, *Registry, or *Recorder is valid and every
// method on it is a no-op, so instrumented call sites cost one
// predictable branch when telemetry is off.
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

// NewCounter returns a counter outside any registry, for a count whose
// owner outlives the registries that expose it (through CounterFunc).
func NewCounter() *Counter { return &Counter{cells: make([]pad64, nShards)} }

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

// Snapshot freezes the histogram into a HistogramSnapshot, which carries
// the Quantile/Mean estimators. The snapshot count is derived from the
// bucket counts so count and buckets always agree (the exposition's +Inf
// bucket must equal _count even mid-scrape); the sum may lag by the
// handful of in-flight observations — fine for telemetry, never torn.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Bounds: histBounds}
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
var histBounds = Log2Bounds(histMinExp, histMaxExp)

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

// series is one labeled instance within a family: exactly one of c, cfn,
// g, gfn, h is set.
type series struct {
	labels string // rendered label pairs, e.g. `outcome="ok"`, or ""
	c      *Counter
	cfn    func() int64
	g      *Gauge
	gfn    func() float64
	h      *Histogram
}

func (s *series) counterValue() int64 {
	if s.cfn != nil {
		return s.cfn()
	}
	return s.c.Value()
}

func (s *series) gaugeValue() float64 {
	if s.gfn != nil {
		return s.gfn()
	}
	return s.g.Value()
}

// family groups the series sharing one metric name.
type family struct {
	name, help, typ string
	series          []*series
}

// Registry is a named collection of instruments plus the snapshot and
// scrape-time exposition writers. Registration takes a lock; the returned
// instruments are lock-free thereafter. All methods are safe for
// concurrent use; a nil *Registry hands out nil instruments.
type Registry struct {
	mu    sync.Mutex
	fams  []*family
	index map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*family)}
}

// register returns the (name, labels) series, creating it with mk when
// absent. An instrument registered again under the same type is shared:
// the existing series is returned. A name registered under two types, and
// any duplicate involving a func-backed series, is a programming error
// surfaced as a panic, matching the Prometheus client convention.
func (r *Registry) register(name, help, typ, labels string, isFunc bool, mk func() *series) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.index[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.fams = append(r.fams, f)
		r.index[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("live: metric %q registered as both %s and %s", name, f.typ, typ))
	}
	for _, old := range f.series {
		if old.labels == labels {
			if isFunc || old.cfn != nil || old.gfn != nil {
				panic(fmt.Sprintf("live: metric %q{%s} registered twice", name, labels))
			}
			return old
		}
	}
	s := mk()
	s.labels = labels
	f.series = append(f.series, s)
	return s
}

// families copies the family list under the lock; each copy's series
// slice is the prefix registered so far.
func (r *Registry) families() []family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]family, len(r.fams))
	for i, f := range r.fams {
		out[i] = *f
	}
	return out
}

// Counter returns the labeled counter series, creating it on first use.
// labels is a rendered Prometheus label list without braces
// (`outcome="ok"`), or "" for an unlabeled series.
func (r *Registry) Counter(name, help, labels string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, typeCounter, labels, false, func() *series { return &series{c: NewCounter()} }).c
}

// CounterFunc registers a counter whose value is read at snapshot and
// scrape time — the shape for counts a component already owns, so a
// registry exposes them instead of counting them a second time. fn must
// be monotone.
func (r *Registry) CounterFunc(name, help, labels string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.register(name, help, typeCounter, labels, true, func() *series { return &series{cfn: fn} })
}

// Gauge returns the labeled gauge series, creating it on first use.
func (r *Registry) Gauge(name, help, labels string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, typeGauge, labels, false, func() *series { return &series{g: &Gauge{}} }).g
}

// GaugeFunc registers a gauge whose value is computed at snapshot and
// scrape time — the shape for values that already live elsewhere (queue
// depth, worker busy counters) and should not be double-maintained.
func (r *Registry) GaugeFunc(name, help, labels string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.register(name, help, typeGauge, labels, true, func() *series { return &series{gfn: fn} })
}

// Histogram returns the labeled histogram series, creating it on first
// use.
func (r *Registry) Histogram(name, help, labels string) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, typeHistogram, labels, false, func() *series { return &series{h: newHistogram()} }).h
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
	var ss []*series
	if f != nil && f.typ == typeCounter {
		ss = f.series
	}
	r.mu.Unlock()
	var total int64
	for _, s := range ss {
		total += s.counterValue()
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
	var b strings.Builder
	for _, f := range r.families() {
		writeHeader(&b, f.name, f.help, f.typ)
		for _, s := range f.series {
			switch f.typ {
			case typeCounter:
				writeSample(&b, f.name, s.labels, float64(s.counterValue()))
			case typeGauge:
				writeSample(&b, f.name, s.labels, s.gaugeValue())
			case typeHistogram:
				writeHistogram(&b, f.name, s.labels, s.h.Snapshot())
			}
		}
		if f.typ == typeHistogram {
			for _, s := range f.series {
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

func writeHistogram(b *strings.Builder, name string, labels string, s HistogramSnapshot) {
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

func writeQuantiles(b *strings.Builder, name, labels string, s HistogramSnapshot) {
	qname := name + "_quantile"
	writeHeader(b, qname, "Bucket-estimated quantiles of "+name+".", typeGauge)
	for _, q := range quantiles {
		writeSample(b, qname, joinLabels(labels, `q="`+q.label+`"`), s.Quantile(q.q))
	}
}

// SortedNames returns the registered family names sorted — a stable view
// for tests.
func (r *Registry) SortedNames() []string {
	var names []string
	for _, f := range r.families() {
		names = append(names, f.name)
	}
	sort.Strings(names)
	return names
}
