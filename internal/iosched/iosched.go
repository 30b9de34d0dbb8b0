// Package iosched implements the request-scheduling policies of §4.4 of
// the paper: tail-latency tracking and the hedging rule — "measure the
// latency of each request and use Reed-Solomon to reconstruct requested
// data whenever a request takes longer than our 95th percentile latency".
// The busy-drive avoidance half of §4.4 lives in the layout reader (it
// needs stripe geometry); this package supplies the adaptive thresholds.
package iosched

import (
	"sort"
	"sync"
	"sync/atomic"

	"purity/internal/sim"
)

// Tracker keeps a sliding window of recent request latencies and answers
// percentile queries against it. The window's observations are also kept
// sorted, updated in place on every Record (one binary-searched delete of
// the evicted sample, one insert), so a percentile is an index. Safe for
// concurrent use.
type Tracker struct {
	mu     sync.Mutex
	window []sim.Time // ring of the latest observations
	pos    int        // next ring slot to overwrite
	sorted []sim.Time // the ring's observations, ascending
}

// NewTracker returns a tracker over a window of n observations.
func NewTracker(n int) *Tracker {
	if n <= 0 {
		n = 1024
	}
	return &Tracker{window: make([]sim.Time, n), sorted: make([]sim.Time, 0, n)}
}

// Record adds a request latency, evicting the oldest once the window is
// full.
func (t *Tracker) Record(d sim.Time) {
	t.mu.Lock()
	s := t.sorted
	if len(s) < len(t.window) {
		// Filling: insert d after any equal samples.
		j := sort.Search(len(s), func(j int) bool { return s[j] > d })
		s = append(s, 0)
		copy(s[j+1:], s[j:])
		s[j] = d
		t.sorted = s
	} else {
		// Full: the evicted sample's slot moves to d's place, shifting only
		// the samples between them.
		old := t.window[t.pos]
		i := sort.Search(len(s), func(i int) bool { return s[i] >= old })
		if d >= old {
			j := sort.Search(len(s), func(j int) bool { return s[j] > d })
			copy(s[i:j-1], s[i+1:j])
			s[j-1] = d
		} else {
			j := sort.Search(i, func(j int) bool { return s[j] > d })
			copy(s[j+1:i+1], s[j:i])
			s[j] = d
		}
	}
	t.window[t.pos] = d
	t.pos++
	if t.pos == len(t.window) {
		t.pos = 0
	}
	t.mu.Unlock()
}

// Percentile returns the p-th percentile of the window (0 when empty).
func (t *Tracker) Percentile(p float64) sim.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.sorted)
	if n == 0 {
		return 0
	}
	idx := int(p / 100 * float64(n))
	if idx >= n {
		idx = n - 1
	}
	return t.sorted[idx]
}

// Count returns the number of observations in the window.
func (t *Tracker) Count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.sorted)
}

// Policy bundles the read-path scheduling decisions.
type Policy struct {
	// AvoidBusy treats drives mid-program as failed and reconstructs
	// around them.
	AvoidBusy bool
	// HedgePercentile (>0 enables hedging): when a direct read's latency
	// exceeds this percentile of recent reads, reissue it as a
	// reconstruction and take the earlier completion.
	HedgePercentile float64
	// MinHedgeSamples gates hedging until the tracker has context.
	MinHedgeSamples int
	// SLOHedgePercentile (>0 enables the SLO tweak): when the tail-latency
	// governor reports the p99.9 budget threatened, foreground reads hedge
	// at this lower percentile instead of HedgePercentile — trading extra
	// reconstruction reads for pulling the tail back under the SLO.
	SLOHedgePercentile float64
}

// DefaultPolicy mirrors the paper: busy avoidance on, hedge at p95, and
// hedge earlier (p90) while the tail SLO is threatened.
func DefaultPolicy() Policy {
	return Policy{AvoidBusy: true, HedgePercentile: 95, MinHedgeSamples: 64, SLOHedgePercentile: 90}
}

// ShouldHedge reports whether a read that took `latency` warrants a
// reconstruction race, given recent history.
func (p Policy) ShouldHedge(t *Tracker, latency sim.Time) bool {
	return p.ShouldHedgeUnder(t, latency, false)
}

// ShouldHedgeUnder is ShouldHedge with the governor's view folded in: while
// the tail SLO is threatened (and the policy opts in via
// SLOHedgePercentile), hedging triggers at the lower percentile so
// foreground reads outrank whatever is congesting the drives.
func (p Policy) ShouldHedgeUnder(t *Tracker, latency sim.Time, sloThreatened bool) bool {
	hp := p.HedgePercentile
	if sloThreatened && p.SLOHedgePercentile > 0 && p.SLOHedgePercentile < hp {
		hp = p.SLOHedgePercentile
	}
	if hp <= 0 || t.Count() < p.MinHedgeSamples {
		return false
	}
	return latency > t.Percentile(hp)
}

// Governor tracks foreground read latencies against the paper's tail SLO
// (§4.4: 99.9% of I/O under 1 ms) and arbitrates foreground vs. background
// work: while the recent p99.9 exceeds the budget, background operations
// (scrub steps, low-priority front-end queues) yield to foreground reads.
// Safe for concurrent use.
type Governor struct {
	budget     sim.Time
	minSamples int
	tracker    *Tracker
	deferrals  atomic.Int64
}

// NewGovernor returns a governor over a sliding window of `window` reads
// with the given p99.9 latency budget. A non-positive budget disables it
// (Threatened is always false).
func NewGovernor(budget sim.Time, window int) *Governor {
	return &Governor{budget: budget, minSamples: 64, tracker: NewTracker(window)}
}

// Budget returns the configured p99.9 latency budget.
func (g *Governor) Budget() sim.Time {
	if g == nil {
		return 0
	}
	return g.budget
}

// RecordRead adds one foreground read latency observation.
func (g *Governor) RecordRead(lat sim.Time) {
	if g == nil || g.budget <= 0 {
		return
	}
	g.tracker.Record(lat)
}

// Threatened reports whether the recent p99.9 read latency exceeds the
// budget. It stays false until the window has minimum context, so a cold
// array never starves its background work.
func (g *Governor) Threatened() bool {
	if g == nil || g.budget <= 0 || g.tracker.Count() < g.minSamples {
		return false
	}
	return g.tracker.Percentile(99.9) > g.budget
}

// P999 returns the current p99.9 of the window (0 when empty).
func (g *Governor) P999() sim.Time {
	if g == nil {
		return 0
	}
	return g.tracker.Percentile(99.9)
}

// NoteDeferral counts one background operation deferred in favor of
// foreground reads.
func (g *Governor) NoteDeferral() {
	if g != nil {
		g.deferrals.Add(1)
	}
}

// Deferrals returns how many background operations the governor deferred.
func (g *Governor) Deferrals() int64 {
	if g == nil {
		return 0
	}
	return g.deferrals.Load()
}
