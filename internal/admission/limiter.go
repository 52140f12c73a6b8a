// Package admission is the serving stack's adaptive overload-control
// toolkit: a gradient concurrency limiter that sizes the effective
// in-flight window from measured latency, a priority queue with
// LIFO-within-class shedding, a brownout detector that decides when
// low-priority traffic should be answered degraded instead of refused, and
// a circuit breaker for operations that fail repeatedly.
//
// Everything here is deliberately clock-free or clock-injectable: the
// limiter's state is a pure function of the samples fed to it, and it
// reads time only through an injectable clock (LimiterConfig.Now) when a
// caller stamps a request; the brownout detector is clock-free; and the
// breaker takes an injectable `now` — so every state transition is
// unit-testable with a deterministic schedule.
package admission

import (
	"math"
	"sync"
	"time"
)

// LimiterConfig tunes NewLimiter. The zero value uses the defaults noted on
// each field.
type LimiterConfig struct {
	// Initial is the starting limit (default Max, i.e. the limiter begins
	// wide open and only narrows when latency says so).
	Initial int
	// Min and Max bound the limit. Max is the hard ceiling the adaptive
	// limit can never exceed (default 1024); Min keeps a trickle of
	// admission alive so the limiter can observe recovery (default 2).
	Min, Max int
	// Smoothing is the exponential step toward each newly computed limit,
	// in (0, 1] (default 0.2). Smaller is steadier, larger is twitchier.
	Smoothing float64
	// Tolerance is how much the short-window RTT may exceed the no-load
	// baseline before the gradient starts shrinking the limit (default
	// 1.5: 50% latency growth is absorbed as normal jitter).
	Tolerance float64
	// DropBackoff is the multiplicative decrease applied per observed drop
	// (shed, eviction, or queue timeout), in (0, 1) (default 0.95).
	DropBackoff float64
	// Now is the clock callers stamp requests with (Limiter.Now) to measure
	// the round-trip times they feed to Observe (default time.Now). Tests
	// inject a virtual clock so measured latency is a function of the
	// simulated service time, not of the host's scheduling.
	Now func() time.Time
}

func (c LimiterConfig) withDefaults() LimiterConfig {
	if c.Max <= 0 {
		c.Max = 1024
	}
	if c.Min <= 0 {
		c.Min = 2
	}
	if c.Min > c.Max {
		c.Min = c.Max
	}
	if c.Initial <= 0 {
		c.Initial = c.Max
	}
	if c.Initial < c.Min {
		c.Initial = c.Min
	}
	if c.Initial > c.Max {
		c.Initial = c.Max
	}
	if c.Smoothing <= 0 || c.Smoothing > 1 {
		c.Smoothing = 0.2
	}
	if c.Tolerance < 1 {
		c.Tolerance = 1.5
	}
	if c.DropBackoff <= 0 || c.DropBackoff >= 1 {
		c.DropBackoff = 0.95
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Limiter adapts an effective concurrency limit from observed request
// round-trip times, in the spirit of gradient/AIMD congestion control: it
// maintains a slow-moving no-load RTT baseline and a fast-moving recent
// RTT, and scales the limit by their ratio. When recent latency stays
// within Tolerance of the baseline the limit grows additively (probing for
// headroom); when latency inflates — the queueing signal of saturation —
// the limit shrinks multiplicatively. Drops (sheds, timeouts) apply an
// immediate multiplicative backoff, so the limiter reacts to refusals even
// before their latency shows up in a sample.
//
// The limit is a pure function of the Observe/OnDrop call sequence, so
// tests can drive it with a deterministic RTT schedule; callers measure
// those RTTs on the limiter's own clock (Now), which tests can replace. All
// methods are safe for concurrent use.
type Limiter struct {
	cfg LimiterConfig

	mu       sync.Mutex
	limit    float64
	shortRTT float64 // fast EWMA of recent samples (seconds)
	longRTT  float64 // slow EWMA tracking the no-load floor (seconds)
	samples  int64
	drops    int64
}

// NewLimiter returns a limiter starting at cfg.Initial.
func NewLimiter(cfg LimiterConfig) *Limiter {
	cfg = cfg.withDefaults()
	return &Limiter{cfg: cfg, limit: float64(cfg.Initial)}
}

// Now reads the limiter's clock (LimiterConfig.Now). Callers stamp a
// request's admission with it and feed Now().Sub(stamp) to Observe when
// the request is answered.
func (l *Limiter) Now() time.Time { return l.cfg.Now() }

// Limit returns the current effective limit, in [Min, Max].
func (l *Limiter) Limit() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.limit)
}

// Observe feeds one measured round-trip time (queue wait + compute of one
// served request) and recomputes the limit. It is ObserveShared(rtt, 1):
// the sample stands for a whole round trip.
func (l *Limiter) Observe(rtt time.Duration) { l.ObserveShared(rtt, 1) }

// ObserveShared feeds the round-trip time of one of inFlight requests that
// were being served together when it was answered. Such a window yields
// about inFlight samples per round trip, so each earns 1/inFlight of the
// upward probe: the limit grows by the same amount per round trip whether
// requests are served one at a time or many at once.
func (l *Limiter) ObserveShared(rtt time.Duration, inFlight int) {
	if rtt <= 0 {
		return
	}
	if inFlight < 1 {
		inFlight = 1
	}
	s := rtt.Seconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.samples++
	if l.samples == 1 {
		l.shortRTT, l.longRTT = s, s
	} else {
		l.shortRTT += 0.4 * (s - l.shortRTT)
		// The baseline chases the no-load floor: it follows improvements
		// quickly and degradations slowly, so sustained queueing cannot
		// talk the limiter into accepting inflated latency as the new
		// normal within one overload episode.
		alpha := 0.002
		if s < l.longRTT {
			alpha = 0.5
		}
		l.longRTT += alpha * (s - l.longRTT)
	}
	// Gradient step: ratio of tolerated baseline to recent latency, clamped
	// so one outlier cannot collapse the window. A healthy limiter
	// (gradient at 1) also earns a sqrt queue allowance per round trip to
	// probe upward, shared among the samples of that round trip; a
	// congested one must not, or the allowance would hold the limit above
	// Min forever.
	gradient := l.cfg.Tolerance * l.longRTT / l.shortRTT
	if gradient > 1 {
		gradient = 1
	}
	if gradient < 0.5 {
		gradient = 0.5
	}
	next := l.limit * gradient
	if gradient >= 1 {
		next += math.Sqrt(l.limit) / float64(inFlight)
	}
	l.limit += l.cfg.Smoothing * (next - l.limit)
	l.clampLocked()
}

// OnDrop records one shed, eviction, or queue timeout and applies the
// multiplicative backoff.
func (l *Limiter) OnDrop() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.drops++
	l.limit *= l.cfg.DropBackoff
	l.clampLocked()
}

func (l *Limiter) clampLocked() {
	if l.limit < float64(l.cfg.Min) {
		l.limit = float64(l.cfg.Min)
	}
	if l.limit > float64(l.cfg.Max) {
		l.limit = float64(l.cfg.Max)
	}
}

// Baseline returns the smoothed no-load RTT estimate (0 before the first
// sample).
func (l *Limiter) Baseline() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return time.Duration(l.longRTT * float64(time.Second))
}

// RecentRTT returns the fast-window RTT estimate (0 before the first
// sample).
func (l *Limiter) RecentRTT() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return time.Duration(l.shortRTT * float64(time.Second))
}

// Samples returns how many RTT observations have been fed.
func (l *Limiter) Samples() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.samples
}

// Drops returns how many drop events have been fed.
func (l *Limiter) Drops() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.drops
}
