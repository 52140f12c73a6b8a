package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sepsp"
)

// phase tags when a read was issued (for the open loop: when it was due).
type phase int32

const (
	phaseWarm   phase = iota // traffic runs; nothing is measured
	phaseWindow              // the measured window
	phaseTail                // after the window: traffic continues while the writer finishes its swap
	phaseDone                // clients stop issuing
	numPhases
)

// failClass is the typed reason a read failed after its retries.
type failClass int

const (
	failOverloaded failClass = iota // ErrServerOverloaded with retries exhausted
	failBrownout                    // ErrBrownout (shed with no fallback answer)
	failTimeout                     // ErrQueueTimeout
	failOther
	numFail
)

var failNames = [numFail]string{"overloaded", "brownout", "queue_timeout", "other"}

func classify(err error) failClass {
	switch {
	case errors.Is(err, sepsp.ErrBrownout): // wraps ErrServerOverloaded: test first
		return failBrownout
	case errors.Is(err, sepsp.ErrServerOverloaded):
		return failOverloaded
	case errors.Is(err, sepsp.ErrQueueTimeout):
		return failTimeout
	}
	return failOther
}

// Load-shape constants shared by every workload.
const (
	warmup      = 2 * time.Second       // traffic before the window opens
	sloLimit    = 50 * time.Millisecond // latency limit of slo_attain_frac
	writerReads = 600                   // reads answered after each swap before the next
	writerPoll  = 2 * time.Millisecond  // how often the waiting writer looks at the read count
	retryBase   = 50 * time.Microsecond // RetryOptions.BaseDelay, as `sepsp serve` sets it
	maxRounds   = 1000                  // a closed-loop read gives up after this many shed retry rounds
	sampleEvery = 32                    // timed runs keep 2 of every 32 answers per client for checking
	maxSamples  = 512                   // cap on kept SSSP answers (32 KiB each)
	checkQueue  = 64                    // SSSP answers waiting for the background checker (32 KiB each)
	limitProbe  = 10 * time.Millisecond // Healthz sampling period of the traced run
)

// query is one read: an SSSP vector (dst < 0) or a Dist point read.
type query struct{ src, dst int }

// span is one answered read: issue (open loop: due) and answer times in
// nanoseconds since the harness started.
type span struct{ start, end int64 }

func (s span) ms() float64 { return float64(s.end-s.start) / 1e6 }

// tally is what the harness counts about reads, by the phase they were
// issued in.
type tally struct {
	reads    [numPhases]int64
	answered [numPhases]int64
	failed   [numPhases][numFail]int64
	resent   [numPhases]int64          // closed-loop reads sent again after a shed retry round
	shed     [numPhases][numFail]int64 // those shed rounds, by the error that ended them
	spans    [numPhases][]span         // answered reads
	lagMs    []float64                 // window reads: open-loop lateness, closed-loop client gap
}

func (t *tally) failedIn(ph phase) int64 {
	var n int64
	for _, c := range t.failed[ph] {
		n += c
	}
	return n
}

// reweightRec is one timed Server.Reweight call; it installed weight
// version ver.
type reweightRec struct {
	span
	ph  phase
	ver int
}

// sample is a kept answer, checked after the traffic stops. lo and hi
// bound the weight versions the answer may reflect: lo swaps had
// returned when the read started, hi had started when it ended.
type sample struct {
	q      query
	dist   []float64 // SSSP answer
	d      float64   // Dist answer
	lo, hi int
}

// harness drives one Server with one workload's traffic.
type harness struct {
	w        *workload
	in       *input
	srv      *sepsp.Server
	vs       *versions
	seed     int64
	tel      *sepsp.Telemetry // counts retry backoffs in the traced pass
	checkAll bool             // traced run: every answer is checked
	checkQ   chan sample      // checkAll: SSSP answers for the background checker
	t0       time.Time

	winStart, winEnd int64 // the measured window, in harness nanoseconds

	phase      atomic.Int32
	verDone    atomic.Int64 // Reweight calls returned
	verStarted atomic.Int64 // Reweight calls started
	calls      atomic.Int64 // Server.SSSP/Dist calls, retries included
	rounds     atomic.Int64 // sepsp.RetryValue rounds, re-sends included
	overCalls  atomic.Int64 // calls answered ErrServerOverloaded (brownout included)
	timeouts   atomic.Int64 // calls answered ErrQueueTimeout
	live       atomic.Int64 // answers checked by the background checker
	answeredN  atomic.Int64 // reads answered so far, every phase

	mu       sync.Mutex
	t        tally
	samples  []sample
	keptSSSP int
	rw       []reweightRec
	wrong    error // first wrong answer found by the background checker
}

func newHarness(w *workload, in *input, srv *sepsp.Server, seed int64) *harness {
	return &harness{w: w, in: in, srv: srv, vs: newVersions(in, seed), seed: seed, t0: time.Now()}
}

func (h *harness) now() int64 { return time.Since(h.t0).Nanoseconds() }

func (h *harness) current() phase { return phase(h.phase.Load()) }

// read issues one query through sepsp.RetryValue, as `sepsp serve`
// clients do, records its outcome, and keeps the answer for checking, or
// hands it to the background checker, outside the timed section. issued
// is the send time (open loop: the due time). A closed-loop client waits
// for its answer: when a retry round ends shed (overloaded, brownout or
// queue timeout) it counts the round and sends the read again, so that
// shedding shows as latency and as resent reads rather than as a failed
// read. An open-loop read is not sent again.
func (h *harness) read(ctx context.Context, retry *sepsp.RetryOptions, q query, issued int64, ph phase, seq int) {
	lo := int(h.verDone.Load())
	var (
		dist []float64
		d    float64
		err  error
		shed [numFail]int64
	)
	for round := 1; ; round++ {
		h.rounds.Add(1)
		if q.dst < 0 {
			dist, err = sepsp.RetryValue(ctx, retry, func() ([]float64, error) {
				r, err := h.srv.SSSP(ctx, q.src)
				h.noteCall(err)
				return r, err
			})
		} else {
			d, err = sepsp.RetryValue(ctx, retry, func() (float64, error) {
				r, err := h.srv.Dist(ctx, q.src, q.dst)
				h.noteCall(err)
				return r, err
			})
		}
		if err == nil || h.w.rate > 0 || round == maxRounds {
			break
		}
		c := classify(err)
		if c == failOther {
			break
		}
		shed[c]++
	}
	end := h.now()
	hi := int(h.verStarted.Load())

	h.mu.Lock()
	h.t.reads[ph]++
	if shed != [numFail]int64{} {
		h.t.resent[ph]++
		for c, n := range shed {
			h.t.shed[ph][c] += n
		}
	}
	if err != nil {
		h.t.failed[ph][classify(err)]++
		h.mu.Unlock()
		return
	}
	h.t.answered[ph]++
	h.answeredN.Add(1)
	h.t.spans[ph] = append(h.t.spans[ph], span{issued, end})
	// Timed runs keep two consecutive reads of every sampleEvery, so that
	// a client alternating SSSP and Dist has both kinds sampled. The
	// traced run keeps every Dist answer and streams every SSSP answer to
	// the background checker.
	s := sample{q: q, dist: dist, d: d, lo: lo, hi: hi}
	keep := seq%sampleEvery < 2 && (q.dst >= 0 || h.keptSSSP < maxSamples)
	if h.checkAll {
		keep = q.dst >= 0
	}
	if keep {
		h.samples = append(h.samples, s)
		if q.dst < 0 {
			h.keptSSSP++
		}
	}
	h.mu.Unlock()

	if h.checkAll && q.dst < 0 {
		h.checkQ <- s
	}
}

// checker verifies streamed SSSP answers until checkQ is closed. It runs
// on a goroutine of its own, so a client never waits for a check, and it
// runs in both passes of the traced run, so their difference is the cost
// of telemetry alone.
func (h *harness) checker() {
	for s := range h.checkQ {
		if err := h.checkSSSP(s.q.src, s.dist, s.lo, s.hi); err != nil {
			h.mu.Lock()
			if h.wrong == nil {
				h.wrong = err
			}
			h.mu.Unlock()
		}
		h.live.Add(1)
	}
}

func (h *harness) noteCall(err error) {
	h.calls.Add(1)
	switch {
	case errors.Is(err, sepsp.ErrServerOverloaded):
		h.overCalls.Add(1)
	case errors.Is(err, sepsp.ErrQueueTimeout):
		h.timeouts.Add(1)
	}
}

func (h *harness) lag(d time.Duration) {
	h.mu.Lock()
	h.t.lagMs = append(h.t.lagMs, float64(d)/1e6)
	h.mu.Unlock()
}

func (h *harness) retryOptions(id int64) *sepsp.RetryOptions {
	return &sepsp.RetryOptions{Seed: h.seed*1_000_003 + id + 1, BaseDelay: retryBase, Telemetry: h.tel}
}

// closedClient is one closed-loop reader: it sends its next read only
// after the previous one is answered or has failed.
func (h *harness) closedClient(ctx context.Context, id int, next sourceFn) {
	retry := h.retryOptions(int64(id))
	dst := rand.New(rand.NewSource(h.seed ^ int64(id+1)*0x9e37))
	var prevEnd int64 = -1
	for seq := 0; ; seq++ {
		ph := h.current()
		if ph == phaseDone {
			return
		}
		q := query{src: next(), dst: -1}
		if h.w.mixedReads && seq%2 == 1 {
			q.dst = dst.Intn(h.in.n)
		}
		start := h.now()
		if ph == phaseWindow && prevEnd >= 0 {
			h.lag(time.Duration(start - prevEnd))
		}
		h.read(ctx, retry, q, start, ph, seq)
		prevEnd = h.now()
	}
}

// openLoop launches one read per period from this goroutine, each at its
// due time whether or not earlier reads were answered, and waits for all
// of them once the traffic stops.
func (h *harness) openLoop(ctx context.Context, rate float64, next sourceFn) {
	period := time.Duration(float64(time.Second) / rate)
	var wg sync.WaitGroup
	start := h.now()
	for i := 0; ; i++ {
		due := start + int64(i)*int64(period)
		if d := time.Duration(due - h.now()); d > 0 {
			time.Sleep(d)
		}
		ph := h.current()
		if ph == phaseDone {
			break
		}
		if ph == phaseWindow {
			h.lag(time.Duration(h.now() - due))
		}
		q := query{src: next(), dst: -1}
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.read(ctx, h.retryOptions(int64(i)), q, due, ph, i)
		}()
	}
	wg.Wait()
}

// reweight swaps in the next weight version and records the call.
func (h *harness) reweight(ctx context.Context) error {
	g := h.in.publicGraph(h.vs.next())
	ph := h.current()
	ver := int(h.verStarted.Add(1)) // the writer is the only caller of next
	start := h.now()
	_, err := h.srv.Reweight(ctx, g)
	end := h.now()
	if err != nil {
		return fmt.Errorf("reweight: %w", err)
	}
	h.verDone.Add(1)
	h.mu.Lock()
	h.rw = append(h.rw, reweightRec{span{start, end}, ph, ver})
	h.mu.Unlock()
	return nil
}

// writer reweights until stop is closed, and after each swap waits until
// the readers have answered writerReads more reads. Pacing by reads
// rather than by wall time keeps the mix of reads and writes, and so the
// share of reads that find a cold cache after a swap, the same however
// fast the host runs.
func (h *harness) writer(ctx context.Context, stop <-chan struct{}) error {
	tick := time.NewTicker(writerPoll)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		if err := h.reweight(ctx); err != nil {
			return err
		}
		for due := h.answeredN.Load() + writerReads; h.answeredN.Load() < due; {
			select {
			case <-stop:
				return nil
			case <-tick.C:
			}
		}
	}
}

// snapshot is the server and process state at a window boundary.
type snapshot struct {
	health  sepsp.ServerHealth
	metrics map[string]float64 // telemetry exposition; nil untraced
	mallocs uint64
	calls   int64         // harness calls so far
	cpu     time.Duration // process user+system CPU time so far
}

// passResult is what one server lifetime under the workload produced.
type passResult struct {
	h          *harness
	window     time.Duration
	start, end snapshot
	final      sepsp.ServerHealth // after all traffic stopped
	limitMin   int                // lowest EffectiveLimit sampled in the window (traced)
	checked    int                // kept answers checked after the traffic stopped
}

// drive runs the workload against h.srv: warm-up, a measured window of
// the given length, then the tail while the writer finishes its swap, and
// returns once every client has stopped.
func (h *harness) drive(ctx context.Context, window time.Duration, snap func() snapshot) (*passResult, error) {
	res := &passResult{h: h, limitMin: -1}
	var traffic sync.WaitGroup
	perm := popularity(h.seed, h.in.n)
	sources := func(id int) sourceFn { return clientSources(h.w, h.seed, perm, id) }
	if h.w.rate > 0 {
		traffic.Add(1)
		go func() {
			defer traffic.Done()
			h.openLoop(ctx, h.w.rate, sources(0))
		}()
	} else {
		for id := range h.w.clients() {
			traffic.Add(1)
			go func() {
				defer traffic.Done()
				h.closedClient(ctx, id, sources(id))
			}()
		}
	}
	time.Sleep(warmup)
	res.start = snap()
	h.winStart = h.now()
	h.phase.Store(int32(phaseWindow))

	var aux sync.WaitGroup
	stop := make(chan struct{})
	var writerErr error
	if h.w.writer {
		aux.Add(1)
		go func() {
			defer aux.Done()
			writerErr = h.writer(ctx, stop)
		}()
	}
	if h.checkAll {
		aux.Add(1)
		go func() {
			defer aux.Done()
			res.limitMin = h.sampleLimit(stop)
		}()
	}
	time.Sleep(window)
	h.winEnd = h.now()
	h.phase.Store(int32(phaseTail))
	res.window = time.Duration(h.winEnd - h.winStart)
	res.end = snap()
	close(stop)
	aux.Wait()
	h.phase.Store(int32(phaseDone))
	traffic.Wait()
	if writerErr != nil {
		return nil, writerErr
	}
	res.final = h.srv.Healthz()
	return res, nil
}

// sampleLimit polls Healthz until stop closes and returns the lowest
// effective admission limit it saw.
func (h *harness) sampleLimit(stop <-chan struct{}) int {
	low := h.srv.Healthz().EffectiveLimit
	tick := time.NewTicker(limitProbe)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return low
		case <-tick.C:
			low = min(low, h.srv.Healthz().EffectiveLimit)
		}
	}
}
