package live

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// HistogramSnapshot is a histogram's frozen state. Min and Max are the
// smallest and largest observation when Ranged is set (a recording
// histogram sets it from its first observation on); a snapshot built
// without them — by hand, or decoded from an older export — is estimated
// from the buckets alone.
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
// standard bucketed-histogram estimator — then clamped to the observed
// range [Min, Max] when the snapshot carries it. The estimate therefore
// always lies inside the observed range (a constant distribution returns
// the constant), is exact at bucket boundaries, and is off by at most one
// bucket width inside a bucket. Without a range, observations past the
// last bound are clamped to it. Returns 0 when the histogram is empty.
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
// the histogram bucketing, which Observe indexes with math.Frexp instead
// of a search.
func Log2Bounds(minExp, maxExp int) []float64 {
	b := make([]float64, 0, maxExp-minExp+1)
	for e := minExp; e <= maxExp; e++ {
		b = append(b, math.Ldexp(1, e))
	}
	return b
}

// Snapshot is a stable point-in-time copy of a registry, the unit the JSON
// and text exporters consume. Unlabeled series are keyed by their bare
// name, labeled ones by name{labels}.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot freezes the registry, evaluating func-backed series. A nil
// registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for _, f := range r.families() {
		for _, ser := range f.series {
			key := f.name
			if ser.labels != "" {
				key += "{" + ser.labels + "}"
			}
			switch f.typ {
			case typeCounter:
				s.Counters[key] = ser.counterValue()
			case typeGauge:
				s.Gauges[key] = ser.gaugeValue()
			case typeHistogram:
				s.Histograms[key] = ser.h.Snapshot()
			}
		}
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

// WriteText writes the snapshot as sorted "type name value" lines,
// histograms as count/mean summaries.
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
