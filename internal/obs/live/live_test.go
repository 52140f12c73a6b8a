package live

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestCounterConcurrentSum hammers one sharded counter from many
// goroutines and checks nothing is lost.
func TestCounterConcurrentSum(t *testing.T) {
	c := NewCounter()
	const workers, per = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("Value = %d, want %d", got, workers*per)
	}
}

// TestNilInstrumentsAreNoOps pins the nil-collector idiom.
func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Recorder
	var reg *Registry
	c.Inc()
	c.Add(3)
	g.Set(1)
	h.Observe(1)
	r.Record(Event{})
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || r.Snapshot() != nil || r.Cap() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	if reg.Counter("x", "", "") != nil || reg.Histogram("x", "", "") != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	if err := reg.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

// TestBucketIndex pins the log2 bucketing at its boundaries: exact powers
// of two belong to the bound they equal, everything else rounds up.
func TestBucketIndex(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0},
		{-1, 0},
		{math.NaN(), 0},
		{math.Ldexp(1, histMinExp-5), 0}, // below the first bound
		{math.Ldexp(1, histMinExp), 0},   // exactly the first bound
		{1, -histMinExp},                 // 2^0
		{1.5, -histMinExp + 1},           // (1, 2] bucket
		{2, -histMinExp + 1},
		{math.Ldexp(1, histMaxExp+9), histBuckets - 1}, // clamped high
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%g) = %d, want %d", c.v, got, c.want)
		}
	}
	for _, c := range cases {
		if c.v <= 0 || math.IsNaN(c.v) {
			continue
		}
		// A value must never land in a bucket whose bound is below it
		// (that would make quantile estimates optimistic).
		if b := histBounds[bucketIndex(c.v)]; b < c.v && bucketIndex(c.v) < histBuckets-1 {
			t.Errorf("value %g landed under bound %g", c.v, b)
		}
	}
}

// TestHistogramQuantiles checks the bucket-interpolated estimates against
// a known distribution: estimates must land within one bucket of truth.
func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram()
	// 1000 observations uniform on (0, 1] seconds.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000)
	}
	for _, tc := range []struct{ q, truth float64 }{
		{0.5, 0.5}, {0.9, 0.9}, {0.99, 0.99},
	} {
		got := h.Quantile(tc.q)
		// Log2 buckets around x have width ≤ x, so the estimate is within
		// a factor of two of the truth.
		if got < tc.truth/2 || got > tc.truth*2 {
			t.Errorf("p%g = %g, want within 2x of %g", tc.q*100, got, tc.truth)
		}
	}
	if n := h.Count(); n != 1000 {
		t.Fatalf("Count = %d, want 1000", n)
	}
	s := h.Snapshot()
	if math.Abs(s.Sum-500.5) > 1e-6 {
		t.Fatalf("Sum = %g, want 500.5", s.Sum)
	}
}

// TestHistogramConcurrentObserve checks count/sum/buckets agree after a
// concurrent storm.
func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram()
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w + 1))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("Count = %d, want %d", s.Count, workers*per)
	}
	var bucketTotal int64
	for _, c := range s.Counts {
		bucketTotal += c
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, s.Count)
	}
	wantSum := float64(per) * (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8)
	if math.Abs(s.Sum-wantSum) > 1e-6 {
		t.Fatalf("Sum = %g, want %g", s.Sum, wantSum)
	}
}

// TestRecorderWrap fills the ring past capacity and checks the snapshot
// holds exactly the newest events in order.
func TestRecorderWrap(t *testing.T) {
	r := NewRecorder(16)
	if r.Cap() != 16 {
		t.Fatalf("Cap = %d, want 16", r.Cap())
	}
	for i := 1; i <= 40; i++ {
		r.Record(Event{Source: int32(i), Wave: int64(i)})
	}
	events := r.Snapshot()
	if len(events) != 16 {
		t.Fatalf("got %d events, want 16", len(events))
	}
	for i, e := range events {
		wantSeq := uint64(25 + i)
		if e.Seq != wantSeq || e.Source != int32(wantSeq) {
			t.Fatalf("event %d = seq %d source %d, want seq %d", i, e.Seq, e.Source, wantSeq)
		}
	}
}

// TestRecorderSwapEventsSurviveTrafficFlood: lifecycle events live in
// their own ring, so a traffic burst orders of magnitude larger than the
// main ring must not evict them, and the merged snapshot stays seq-ordered
// with the swaps spliced where they happened.
func TestRecorderSwapEventsSurviveTrafficFlood(t *testing.T) {
	r := NewRecorder(16)
	r.Record(Event{Kind: KindSwap, Epoch: 2, Source: -1})
	for i := 0; i < 10_000; i++ {
		r.Record(Event{Kind: KindQuery, Source: int32(i)})
	}
	r.Record(Event{Kind: KindSwap, Epoch: 3, Source: -1})
	for i := 0; i < 10_000; i++ {
		r.Record(Event{Kind: KindFailure, Source: -1})
	}
	events := r.Snapshot()
	var swaps []Event
	lastSeq := uint64(0)
	for _, e := range events {
		if e.Seq <= lastSeq {
			t.Fatalf("snapshot out of order: seq %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		if e.Kind == KindSwap {
			swaps = append(swaps, e)
		}
	}
	if len(swaps) != 2 {
		t.Fatalf("got %d swap events after the flood, want 2 (snapshot len %d)", len(swaps), len(events))
	}
	if swaps[0].Epoch != 2 || swaps[0].Seq != 1 {
		t.Fatalf("first swap = seq %d epoch %d, want seq 1 epoch 2", swaps[0].Seq, swaps[0].Epoch)
	}
	if swaps[1].Epoch != 3 || swaps[1].Seq != 10_002 {
		t.Fatalf("second swap = seq %d epoch %d, want seq 10002 epoch 3", swaps[1].Seq, swaps[1].Epoch)
	}
	// Lifecycle ring wrap: only the newest lifecycleSlots swaps remain.
	for i := 0; i < 40; i++ {
		r.Record(Event{Kind: KindSwap, Epoch: uint64(10 + i), Source: -1})
	}
	swaps = swaps[:0]
	for _, e := range r.Snapshot() {
		if e.Kind == KindSwap {
			swaps = append(swaps, e)
		}
	}
	if len(swaps) != lifecycleSlots {
		t.Fatalf("got %d swap events after wrap, want %d", len(swaps), lifecycleSlots)
	}
	if first := swaps[0].Epoch; first != uint64(10+40-lifecycleSlots) {
		t.Fatalf("oldest surviving swap epoch = %d, want %d", first, 10+40-lifecycleSlots)
	}
}

// TestRecorderFieldRoundTrip checks every packed field survives.
func TestRecorderFieldRoundTrip(t *testing.T) {
	r := NewRecorder(16)
	in := Event{
		Time: 123456789, Kind: KindFailure, Outcome: OutcomeTimeout,
		Source: -1, Wave: 7, Batch: 12, QueueNanos: 1000, ComputeNanos: 2000,
		Degraded: true,
	}
	r.Record(in)
	got := r.Snapshot()
	if len(got) != 1 {
		t.Fatalf("got %d events", len(got))
	}
	in.Seq = 1
	if got[0] != in {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got[0], in)
	}
}

// TestRecorderConcurrent races writers against snapshot readers; under
// -race this is the memory-safety check, and every returned event must be
// internally consistent (source == wave id by construction).
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(64)
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				v := int64(w*per + i)
				r.Record(Event{Source: int32(v), Wave: v, QueueNanos: v})
			}
		}(w)
	}
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, e := range r.Snapshot() {
					if int64(e.Source) != e.Wave || e.QueueNanos != e.Wave {
						t.Errorf("torn event: %+v", e)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := len(r.Snapshot()); got != 64 {
		t.Fatalf("final snapshot %d events, want 64", got)
	}
}

// TestWritePrometheus checks the exposition: HELP/TYPE ordering, label
// rendering, cumulative histogram buckets, and the quantile companion
// family.
func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	ok := reg.Counter("test_queries_total", "Queries.", `outcome="ok"`)
	bad := reg.Counter("test_queries_total", "Queries.", `outcome="bad"`)
	g := reg.Gauge("test_depth", "Depth.", "")
	reg.GaugeFunc("test_workers", "Workers.", `worker="0"`, func() float64 { return 3 })
	h := reg.Histogram("test_latency_seconds", "Latency.", "")
	ok.Add(5)
	bad.Inc()
	g.Set(2.5)
	for i := 0; i < 100; i++ {
		h.Observe(0.001)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE test_queries_total counter",
		`test_queries_total{outcome="ok"} 5`,
		`test_queries_total{outcome="bad"} 1`,
		"# TYPE test_depth gauge",
		"test_depth 2.5",
		`test_workers{worker="0"} 3`,
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="+Inf"} 100`,
		"test_latency_seconds_count 100",
		"# TYPE test_latency_seconds_quantile gauge",
		`test_latency_seconds_quantile{q="0.99"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if reg.CounterValue("test_queries_total") != 6 {
		t.Fatalf("CounterValue = %d, want 6", reg.CounterValue("test_queries_total"))
	}
}

// TestRegistryCollisionPanics pins the registration contract: a name
// registered under two types panics, as does a duplicate func-backed
// series, while a same-type instrument duplicate returns the existing
// instance.
func TestRegistryCollisionPanics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("x_total", "", "")
	if again := reg.Counter("x_total", "", ""); again != c {
		t.Fatal("same-type duplicate counter is a new instance")
	}
	if reg.Counter("x_total", "", `k="v"`) == c {
		t.Fatal("a different label set shares the unlabeled instance")
	}
	h := reg.Histogram("h", "", "")
	if reg.Histogram("h", "", "") != h {
		t.Fatal("same-type duplicate histogram is a new instance")
	}
	reg.CounterFunc("f_total", "", "", func() int64 { return 1 })
	for name, f := range map[string]func(){
		"type":           func() { reg.Gauge("x_total", "", "") },
		"func duplicate": func() { reg.CounterFunc("f_total", "", "", func() int64 { return 2 }) },
		"func over inst": func() { reg.CounterFunc("x_total", "", "", func() int64 { return 2 }) },
		"inst over func": func() { reg.Counter("f_total", "", "") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s collision did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestRegistrySnapshot checks the snapshot view: func-backed series are
// read at snapshot time, unlabeled series are keyed by bare name, labeled
// ones by name{labels}, and CounterValue sums instruments and funcs alike.
func TestRegistrySnapshot(t *testing.T) {
	reg := NewRegistry()
	var owned int64 = 7
	reg.CounterFunc("owned_total", "", "", func() int64 { return owned })
	reg.Counter("owned_total", "", `k="a"`).Add(3)
	reg.GaugeFunc("depth", "", "", func() float64 { return 2.5 })
	reg.Histogram("h", "", "").Observe(4)
	owned = 9
	s := reg.Snapshot()
	if s.Counters["owned_total"] != 9 || s.Counters[`owned_total{k="a"}`] != 3 {
		t.Fatalf("counters = %v", s.Counters)
	}
	if s.Gauges["depth"] != 2.5 {
		t.Fatalf("gauges = %v", s.Gauges)
	}
	if hs := s.Histograms["h"]; hs.Count != 1 || hs.Sum != 4 {
		t.Fatalf("histogram = %+v", hs)
	}
	if got := reg.CounterValue("owned_total"); got != 12 {
		t.Fatalf("CounterValue = %d, want 12", got)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "owned_total 9\n") {
		t.Fatalf("exposition misses the func-backed counter:\n%s", b.String())
	}
	var nilReg *Registry
	if s := nilReg.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot non-empty")
	}
}

// TestRegistryConcurrentGetOrCreate: goroutines racing to create the same
// series get one instance and lose no adds, while snapshots and scrapes
// run alongside.
func TestRegistryConcurrentGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	const workers, per = 8, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			reg.Snapshot()
			_ = reg.WritePrometheus(&strings.Builder{})
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				reg.Counter("shared_total", "", "").Inc()
				reg.Counter("per_worker_total", "", `w="`+string(rune('a'+w))+`"`).Inc()
				reg.Histogram("h", "", "").Observe(1)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-scraped
	s := reg.Snapshot()
	if got := s.Counters["shared_total"]; got != workers*per {
		t.Fatalf("shared_total = %d, want %d", got, workers*per)
	}
	if got := reg.CounterValue("per_worker_total"); got != workers*per {
		t.Fatalf("per_worker_total = %d, want %d", got, workers*per)
	}
	if got := s.Histograms["h"].Count; got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile = %g, want 0", got)
	}
	// Boundary exactness: all mass in one bucket interpolates across it.
	s := HistogramSnapshot{
		Count:  4,
		Bounds: []float64{1, 2, 4},
		Counts: []int64{0, 4, 0, 0},
	}
	if got := s.Quantile(1); got != 2 {
		t.Fatalf("Quantile(1) = %g, want upper bound 2", got)
	}
	if got := s.Quantile(0.5); got != 1.5 {
		t.Fatalf("Quantile(0.5) = %g, want midpoint 1.5", got)
	}
	// Overflow-bucket mass clamps to the last bound.
	over := HistogramSnapshot{
		Count:  2,
		Bounds: []float64{1, 2},
		Counts: []int64{0, 0, 2},
	}
	if got := over.Quantile(0.99); got != 2 {
		t.Fatalf("overflow Quantile = %g, want 2", got)
	}
}

func TestLog2Bounds(t *testing.T) {
	b := Log2Bounds(-2, 3)
	want := []float64{0.25, 0.5, 1, 2, 4, 8}
	if len(b) != len(want) {
		t.Fatalf("len = %d, want %d", len(b), len(want))
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("b[%d] = %g, want %g", i, b[i], want[i])
		}
	}
}

// TestHistogramQuantileClampedToObservedRange: the live histogram's
// estimates stay inside the observed range, so a constant latency is
// reported exactly at every quantile instead of somewhere in its log2
// bucket.
func TestHistogramQuantileClampedToObservedRange(t *testing.T) {
	for _, v := range []float64{1, 0.0013, 3} {
		h := newHistogram()
		for i := 0; i < 500; i++ {
			h.Observe(v)
		}
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
			if got := h.Quantile(q); got != v {
				t.Errorf("constant %g: p%g = %g, want %g", v, q*100, got, v)
			}
		}
	}
	h := newHistogram()
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000)
	}
	if got := h.Quantile(0.0001); got < 0.001 {
		t.Errorf("p0.01 = %g, below the smallest observation 0.001", got)
	}
	if got := h.Quantile(1); got > 1 {
		t.Errorf("p100 = %g, above the largest observation 1", got)
	}
	if h.Snapshot().Ranged != true {
		t.Error("snapshot of a recording histogram carries no range")
	}
	if s := newHistogram().Snapshot(); s.Ranged || s.Quantile(0.5) != 0 {
		t.Errorf("empty histogram: ranged=%v p50=%g, want unranged 0", s.Ranged, s.Quantile(0.5))
	}
}
