// Package faultinject is a deterministic, seed-driven fault-injection
// harness for the serving stack. Instrumented layers (the pram executor's
// worker boundaries, the engine's Bellman-Ford phase boundaries, the
// server's per-request boundary) call Fire at named sites; the injector decides —
// purely as a function of (seed, site, per-site call sequence) — whether to
// inject a panic, a delay, or to signal that the call site should cancel a
// context.
//
// Production pays nothing: call sites hold a nil Injector interface and the
// hook is one predictable nil-check branch. Decisions are deterministic per
// (seed, site, sequence) regardless of goroutine interleaving, so a chaos
// run's fault mix is reproducible even though which request absorbs which
// fault depends on scheduling.
package faultinject

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Fault is the action decided for one Fire call.
type Fault uint8

const (
	// None: no fault; the call proceeds normally.
	None Fault = iota
	// Panic: Fire panics with a *Injected value.
	Panic
	// Delay: Fire sleeps the configured delay before returning.
	Delay
	// Cancel: returned to the call site, which owns the context to cancel
	// (Fire cannot cancel what it cannot see).
	Cancel
)

func (f Fault) String() string {
	switch f {
	case None:
		return "none"
	case Panic:
		return "panic"
	case Delay:
		return "delay"
	case Cancel:
		return "cancel"
	}
	return fmt.Sprintf("fault(%d)", uint8(f))
}

// Canonical site names of the instrumented boundaries.
const (
	// SitePramWorker fires at the start of each executor worker chunk.
	SitePramWorker = "pram.worker"
	// SiteQueryPhase fires between Bellman-Ford phases of a query.
	SiteQueryPhase = "core.phase"
	// SiteServerWave fires once per served request, on the requester's
	// goroutine inside its serving slot, just before the query runs.
	SiteServerWave = "server.wave"
	// SiteManagerRebuild fires at the start of a Manager reweighting
	// rebuild — an injected panic there must latch the rebuild-failure
	// path while the old epoch keeps serving.
	SiteManagerRebuild = "manager.rebuild"
	// SiteClientCancel is consulted by load generators to decide which
	// requests to cancel while queued.
	SiteClientCancel = "client.cancel"
)

// Injector is the hook interface held by instrumented layers. A nil
// Injector is the production no-op (call sites guard with one nil check).
type Injector interface {
	// Fire applies the decided fault for the next call at site: it panics
	// with a *Injected for Panic, sleeps for Delay, and returns the
	// decision in all cases (Cancel is returned, never applied — the call
	// site owns the context).
	Fire(site string) Fault
}

// Injected is the panic value raised by injected panics, so recovery layers
// can distinguish injected faults from real bugs.
type Injected struct {
	Site string // site that fired
	Seq  uint64 // per-site call sequence number that drew the fault
}

func (i *Injected) Error() string {
	return fmt.Sprintf("faultinject: injected panic at %s (seq %d)", i.Site, i.Seq)
}

// IsInjected reports whether a recovered panic value originated from this
// package.
func IsInjected(v any) bool {
	_, ok := v.(*Injected)
	return ok
}

// SiteConfig is the per-site fault mix in permille of Fire calls. The three
// rates are evaluated in order panic, delay, cancel over one uniform draw,
// so their sum must be ≤ 1000.
type SiteConfig struct {
	PanicPerMille  uint32
	DelayPerMille  uint32
	CancelPerMille uint32
	// Delay overrides Config.Delay for this site when positive — e.g. a
	// long stall at the wave boundary to drive an overload drill while the
	// rebuild site keeps its short default.
	Delay time.Duration
}

// Config configures a seeded injector.
type Config struct {
	// Seed drives every decision; equal seeds reproduce equal per-site
	// decision sequences.
	Seed int64
	// Delay is the sleep applied when a Delay fault fires (default 50µs).
	Delay time.Duration
	// Sites maps site names to their fault mix; sites absent from the map
	// never fault.
	Sites map[string]SiteConfig
}

// Seeded is the deterministic Injector implementation. It is safe for
// concurrent use; the decision for the n-th Fire call at a site depends only
// on (seed, site, n).
type Seeded struct {
	seed  int64
	delay time.Duration
	sites map[string]*siteState
}

type siteState struct {
	cfg  SiteConfig
	hash uint64
	seq  atomic.Uint64
	// fired counters, indexed by Fault, for assertions and summaries.
	fired [4]atomic.Uint64
}

// NewSeeded returns a deterministic injector for the configured sites.
func NewSeeded(cfg Config) *Seeded {
	delay := cfg.Delay
	if delay <= 0 {
		delay = 50 * time.Microsecond
	}
	s := &Seeded{seed: cfg.Seed, delay: delay, sites: make(map[string]*siteState, len(cfg.Sites))}
	for name, sc := range cfg.Sites {
		s.sites[name] = &siteState{cfg: sc, hash: fnv64(name)}
	}
	return s
}

// Fire implements Injector.
func (s *Seeded) Fire(site string) Fault {
	st := s.sites[site]
	if st == nil {
		return None
	}
	seq := st.seq.Add(1)
	f := decide(uint64(s.seed), st.hash, seq, st.cfg)
	st.fired[f].Add(1)
	switch f {
	case Panic:
		panic(&Injected{Site: site, Seq: seq})
	case Delay:
		d := s.delay
		if st.cfg.Delay > 0 {
			d = st.cfg.Delay
		}
		time.Sleep(d)
	}
	return f
}

// Decide returns the fault the n-th Fire call at site will draw, without
// side effects — the pure decision function, exposed so tests and load
// generators can predict or replay a schedule.
func (s *Seeded) Decide(site string, seq uint64) Fault {
	st := s.sites[site]
	if st == nil {
		return None
	}
	return decide(uint64(s.seed), st.hash, seq, st.cfg)
}

// Fired returns how many faults of each kind have fired at site.
func (s *Seeded) Fired(site string) (panics, delays, cancels uint64) {
	st := s.sites[site]
	if st == nil {
		return 0, 0, 0
	}
	return st.fired[Panic].Load(), st.fired[Delay].Load(), st.fired[Cancel].Load()
}

// Calls returns the number of Fire calls observed at site.
func (s *Seeded) Calls(site string) uint64 {
	st := s.sites[site]
	if st == nil {
		return 0
	}
	return st.seq.Load()
}

// Toggle wraps an Injector with per-site runtime switches, so a drill can
// move between phases (inject wave latency now, rebuild failures later)
// over one shared injector without rebuilding the call sites' references.
// Sites start enabled; a disabled site's Fire returns None without
// consuming a sequence draw from the wrapped injector. Safe for concurrent
// use.
type Toggle struct {
	inner    Injector
	disabled sync.Map // site name → struct{} while disabled
}

// NewToggle wraps inner (which must be non-nil) with all sites enabled.
func NewToggle(inner Injector) *Toggle {
	return &Toggle{inner: inner}
}

// Enable re-enables faults at site.
func (t *Toggle) Enable(site string) { t.disabled.Delete(site) }

// Disable suppresses faults at site until Enable.
func (t *Toggle) Disable(site string) { t.disabled.Store(site, struct{}{}) }

// Fire implements Injector.
func (t *Toggle) Fire(site string) Fault {
	if _, off := t.disabled.Load(site); off {
		return None
	}
	return t.inner.Fire(site)
}

// decide draws uniformly in [0,1000) from a splitmix64 hash of
// (seed, site, seq) and buckets it by the configured rates.
func decide(seed, siteHash, seq uint64, cfg SiteConfig) Fault {
	u := splitmix64(seed ^ siteHash ^ (seq * 0x9e3779b97f4a7c15))
	draw := uint32(u % 1000)
	if draw < cfg.PanicPerMille {
		return Panic
	}
	draw -= cfg.PanicPerMille
	if draw < cfg.DelayPerMille {
		return Delay
	}
	draw -= cfg.DelayPerMille
	if draw < cfg.CancelPerMille {
		return Cancel
	}
	return None
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func fnv64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
