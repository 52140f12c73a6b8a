package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a named collection of counters, gauges, and histograms.
// Instruments are created on first use and live for the registry's lifetime;
// all operations are safe for concurrent use. A nil *Registry hands out nil
// instruments, whose methods are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with DefaultBuckets if
// needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(DefaultBuckets)
		r.hists[name] = h
	}
	return h
}

// CounterValue returns the named counter's value, 0 if it was never touched.
func (r *Registry) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	c := r.counters[name]
	r.mu.Unlock()
	return c.Value()
}

// Counter is a monotonically increasing integer.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64.
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

// DefaultBuckets is the default histogram bucketing: powers of four from 1,
// wide enough for the per-node |E+| contribution and per-phase relaxation
// count distributions the engine records.
var DefaultBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536}

// Histogram accumulates observations into cumulative ≤-bound buckets and
// tracks the observed range.
type Histogram struct {
	mu       sync.Mutex
	bounds   []float64
	counts   []int64 // counts[i]: observations ≤ bounds[i]; counts[len(bounds)]: overflow
	sum      float64
	n        int64
	min, max float64 // valid once n > 0
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.mu.Unlock()
}

// HistogramSnapshot is a histogram's frozen state. Min and Max are the
// smallest and largest observation when Ranged is set (the recording
// histograms always set it); a snapshot built without them — by hand, or
// decoded from an older export — is estimated from the buckets alone.
type HistogramSnapshot struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // parallel to Bounds, plus one overflow bucket
	Min    float64   `json:"min,omitempty"`
	Max    float64   `json:"max,omitempty"`
	Ranged bool      `json:"ranged,omitempty"`
}

// Mean returns the observation mean (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) of the recorded
// distribution: the owning bucket is located by rank and the estimate
// interpolates linearly between the bucket's lower and upper bound — the
// standard bucketed-histogram estimator, shared by the offline snapshots
// here and the live serving histograms (internal/obs/live) — then clamped
// to the observed range [Min, Max] when the snapshot carries it. The
// estimate therefore always lies inside the observed range (a constant
// distribution returns the constant), is exact at bucket boundaries, and
// is off by at most one bucket width inside a bucket. Without a range,
// observations past the last bound are clamped to it. Returns 0 when the
// histogram is empty.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	v := h.bucketQuantile(q)
	if h.Ranged && h.Count > 0 {
		v = math.Min(math.Max(v, h.Min), h.Max)
	}
	return v
}

// bucketQuantile is Quantile's bucket estimate before range clamping.
func (h HistogramSnapshot) bucketQuantile(q float64) float64 {
	if h.Count <= 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += c
		if cum < rank {
			continue
		}
		if i >= len(h.Bounds) {
			// Overflow bucket: no upper bound to interpolate toward.
			return h.Bounds[len(h.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		hi := h.Bounds[i]
		return lo + (hi-lo)*float64(rank-prev)/float64(c)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Log2Bounds returns geometric bucket upper bounds 2^minExp … 2^maxExp —
// the bucketing shared by the live lock-free histogram (which indexes them
// with math.Frexp instead of a search) and any offline histogram that wants
// log-spaced buckets.
func Log2Bounds(minExp, maxExp int) []float64 {
	b := make([]float64, 0, maxExp-minExp+1)
	for e := minExp; e <= maxExp; e++ {
		b = append(b, math.Ldexp(1, e))
	}
	return b
}

// Snapshot is a stable point-in-time copy of a registry, the unit the JSON
// and text exporters consume.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot freezes the registry. A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		h.mu.Lock()
		s.Histograms[name] = HistogramSnapshot{
			Count:  h.n,
			Sum:    h.sum,
			Bounds: append([]float64(nil), h.bounds...),
			Counts: append([]int64(nil), h.counts...),
			Min:    h.min,
			Max:    h.max,
			Ranged: h.n > 0,
		}
		h.mu.Unlock()
	}
	return s
}

// SumCounters returns the sum of all counters whose name starts with prefix
// — e.g. SumCounters("query.work.") is the total relaxation count across
// phase kinds, the quantity tests reconcile against pram.Stats.
func (s Snapshot) SumCounters(prefix string) int64 {
	var total int64
	for name, v := range s.Counters {
		if strings.HasPrefix(name, prefix) {
			total += v
		}
	}
	return total
}

// WriteJSON writes the snapshot as one indented JSON object.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText writes the snapshot as sorted "name value" lines, histograms as
// count/mean summaries.
func (s Snapshot) WriteText(w io.Writer) error {
	var lines []string
	for name, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("counter %s %d", name, v))
	}
	for name, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("gauge %s %g", name, v))
	}
	for name, h := range s.Histograms {
		lines = append(lines, fmt.Sprintf("histogram %s count=%d sum=%g mean=%g", name, h.Count, h.Sum, h.Mean()))
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}
