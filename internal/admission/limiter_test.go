package admission

import (
	"testing"
	"time"
)

func TestLimiterDefaults(t *testing.T) {
	l := NewLimiter(LimiterConfig{})
	if got := l.Limit(); got != 1024 {
		t.Fatalf("default initial limit = %d, want 1024 (Max)", got)
	}
	l = NewLimiter(LimiterConfig{Initial: 8, Min: 2, Max: 64})
	if got := l.Limit(); got != 8 {
		t.Fatalf("initial limit = %d, want 8", got)
	}
}

func TestLimiterGrowsUnderSteadyLatency(t *testing.T) {
	l := NewLimiter(LimiterConfig{Initial: 4, Min: 2, Max: 256})
	// Steady RTTs at the no-load floor: gradient stays 1, the sqrt term
	// probes upward.
	for i := 0; i < 400; i++ {
		l.Observe(time.Millisecond)
	}
	if got := l.Limit(); got <= 4 {
		t.Fatalf("limit after steady low latency = %d, want > 4", got)
	}
}

func TestLimiterShrinksUnderInflatedLatency(t *testing.T) {
	l := NewLimiter(LimiterConfig{Initial: 64, Min: 2, Max: 256})
	// Establish a 1ms baseline.
	for i := 0; i < 50; i++ {
		l.Observe(time.Millisecond)
	}
	start := l.Limit()
	// Then sustained 10x inflation: gradient pins at 0.5 and the limit
	// decays toward Min.
	for i := 0; i < 200; i++ {
		l.Observe(10 * time.Millisecond)
	}
	got := l.Limit()
	if got >= start {
		t.Fatalf("limit after inflation = %d, want < starting %d", got, start)
	}
	if got != 2 {
		t.Fatalf("limit after sustained 10x inflation = %d, want Min=2", got)
	}
}

func TestLimiterRecoversAfterLoadDrops(t *testing.T) {
	l := NewLimiter(LimiterConfig{Initial: 64, Min: 2, Max: 256})
	for i := 0; i < 50; i++ {
		l.Observe(time.Millisecond)
	}
	for i := 0; i < 200; i++ {
		l.Observe(10 * time.Millisecond)
	}
	low := l.Limit()
	// Latency returns to the floor: the limit climbs back.
	for i := 0; i < 400; i++ {
		l.Observe(time.Millisecond)
	}
	if got := l.Limit(); got <= low {
		t.Fatalf("limit after recovery = %d, want > %d", got, low)
	}
}

func TestLimiterBaselineChasesFloor(t *testing.T) {
	l := NewLimiter(LimiterConfig{Initial: 16})
	for i := 0; i < 20; i++ {
		l.Observe(8 * time.Millisecond)
	}
	// A faster sample pulls the baseline down quickly (alpha 0.5 on
	// improvement)...
	l.Observe(2 * time.Millisecond)
	fast := l.Baseline()
	if fast >= 6*time.Millisecond {
		t.Fatalf("baseline after fast sample = %v, want < 6ms", fast)
	}
	// ...while slow samples barely drag it back up (alpha 0.02 on
	// degradation).
	l.Observe(20 * time.Millisecond)
	if got := l.Baseline(); got > fast+time.Millisecond {
		t.Fatalf("baseline after one slow sample = %v, want near %v", got, fast)
	}
}

func TestLimiterDropBackoff(t *testing.T) {
	l := NewLimiter(LimiterConfig{Initial: 100, Min: 2, Max: 256, DropBackoff: 0.5})
	l.OnDrop()
	if got := l.Limit(); got != 50 {
		t.Fatalf("limit after one drop = %d, want 50", got)
	}
	for i := 0; i < 20; i++ {
		l.OnDrop()
	}
	if got := l.Limit(); got != 2 {
		t.Fatalf("limit after repeated drops = %d, want Min=2", got)
	}
	if got := l.Drops(); got != 21 {
		t.Fatalf("Drops() = %d, want 21", got)
	}
}

func TestLimiterClampsAtMax(t *testing.T) {
	l := NewLimiter(LimiterConfig{Initial: 8, Min: 2, Max: 10})
	for i := 0; i < 1000; i++ {
		l.Observe(time.Millisecond)
	}
	if got := l.Limit(); got != 10 {
		t.Fatalf("limit = %d, want clamped at Max=10", got)
	}
}

func TestLimiterIgnoresNonPositiveRTT(t *testing.T) {
	l := NewLimiter(LimiterConfig{Initial: 8})
	l.Observe(0)
	l.Observe(-time.Second)
	if got := l.Samples(); got != 0 {
		t.Fatalf("samples = %d, want 0", got)
	}
}

// TestLimiterSharedSamplesProbePerRoundTrip: k samples that each stand for
// 1/k of a round trip grow the limit by about as much as one whole-round-
// trip sample, so serving requests concurrently does not make the limiter
// probe upward k times faster.
func TestLimiterSharedSamplesProbePerRoundTrip(t *testing.T) {
	solo := NewLimiter(LimiterConfig{Initial: 16, Min: 2, Max: 256})
	shared := NewLimiter(LimiterConfig{Initial: 16, Min: 2, Max: 256})
	for i := 0; i < 10; i++ {
		solo.Observe(time.Millisecond)
		for j := 0; j < 8; j++ {
			shared.ObserveShared(time.Millisecond, 8)
		}
	}
	s, c := solo.Limit(), shared.Limit()
	if c <= 16 {
		t.Fatalf("shared samples at the baseline did not grow the limit: %d", c)
	}
	if c > s+2 {
		t.Fatalf("8 shared samples per round trip grew the limit to %d, one sample per round trip to %d", c, s)
	}
}
