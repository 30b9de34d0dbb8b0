package iosched

import (
	"sort"
	"testing"

	"purity/internal/sim"
)

func TestTrackerPercentile(t *testing.T) {
	tr := NewTracker(100)
	if tr.Percentile(95) != 0 {
		t.Fatal("empty tracker nonzero")
	}
	for i := 1; i <= 100; i++ {
		tr.Record(sim.Time(i))
	}
	if got := tr.Percentile(95); got != 96 {
		t.Fatalf("p95 = %v, want 96", got)
	}
	if got := tr.Percentile(0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if tr.Count() != 100 {
		t.Fatalf("Count = %d", tr.Count())
	}
}

func TestTrackerSlidingWindow(t *testing.T) {
	tr := NewTracker(10)
	for i := 0; i < 10; i++ {
		tr.Record(1000)
	}
	// New regime: window slides, old values age out.
	for i := 0; i < 10; i++ {
		tr.Record(1)
	}
	if got := tr.Percentile(95); got != 1 {
		t.Fatalf("p95 after regime change = %v", got)
	}
	if tr.Count() != 10 {
		t.Fatalf("Count = %d", tr.Count())
	}
}

func TestPolicyShouldHedge(t *testing.T) {
	p := DefaultPolicy()
	tr := NewTracker(128)
	// Not enough samples: never hedge.
	tr.Record(100)
	if p.ShouldHedge(tr, sim.Second) {
		t.Fatal("hedged without history")
	}
	for i := 0; i < 128; i++ {
		tr.Record(100 * sim.Microsecond)
	}
	if p.ShouldHedge(tr, 90*sim.Microsecond) {
		t.Fatal("hedged a fast read")
	}
	if !p.ShouldHedge(tr, 5*sim.Millisecond) {
		t.Fatal("did not hedge a slow read")
	}
	// Hedging disabled.
	off := Policy{HedgePercentile: 0}
	if off.ShouldHedge(tr, sim.Second) {
		t.Fatal("disabled policy hedged")
	}
}

func TestPolicyShouldHedgeUnderSLO(t *testing.T) {
	// Window: 93 fast reads, 7 slow reads — p90 lands in the fast tier,
	// p95 in the slow one. A latency between them hedges only while the
	// SLO is threatened.
	p := Policy{HedgePercentile: 95, SLOHedgePercentile: 90, MinHedgeSamples: 64}
	tr := NewTracker(100)
	for i := 0; i < 93; i++ {
		tr.Record(100 * sim.Microsecond)
	}
	for i := 0; i < 7; i++ {
		tr.Record(10 * sim.Millisecond)
	}
	lat := 1 * sim.Millisecond // above p90 (100µs), below p95 (10ms)
	if p.ShouldHedgeUnder(tr, lat, false) {
		t.Fatal("hedged below p95 with SLO healthy")
	}
	if !p.ShouldHedgeUnder(tr, lat, true) {
		t.Fatal("did not hedge above p90 with SLO threatened")
	}
	// Without the SLO percentile the threatened bit changes nothing.
	plain := Policy{HedgePercentile: 95, MinHedgeSamples: 64}
	if plain.ShouldHedgeUnder(tr, lat, true) {
		t.Fatal("policy without SLOHedgePercentile hedged early")
	}
}

func TestGovernor(t *testing.T) {
	g := NewGovernor(sim.Millisecond, 256)
	if g.Threatened() {
		t.Fatal("cold governor threatened")
	}
	// Below the minimum sample count: never threatened, even if slow.
	for i := 0; i < 63; i++ {
		g.RecordRead(10 * sim.Millisecond)
	}
	if g.Threatened() {
		t.Fatal("threatened without minimum context")
	}
	g.RecordRead(10 * sim.Millisecond)
	if !g.Threatened() {
		t.Fatal("p99.9 over budget not reported")
	}
	if g.P999() <= sim.Millisecond {
		t.Fatalf("P999 = %v", g.P999())
	}
	// Fast reads age the slow regime out of the window.
	for i := 0; i < 256; i++ {
		g.RecordRead(100 * sim.Microsecond)
	}
	if g.Threatened() {
		t.Fatal("still threatened after recovery")
	}
	g.NoteDeferral()
	g.NoteDeferral()
	if g.Deferrals() != 2 {
		t.Fatalf("Deferrals = %d", g.Deferrals())
	}
}

func TestGovernorDisabledAndNil(t *testing.T) {
	off := NewGovernor(-1, 16)
	for i := 0; i < 128; i++ {
		off.RecordRead(sim.Second)
	}
	if off.Threatened() {
		t.Fatal("disabled governor threatened")
	}
	var nilGov *Governor
	nilGov.RecordRead(sim.Second)
	nilGov.NoteDeferral()
	if nilGov.Threatened() || nilGov.Deferrals() != 0 || nilGov.Budget() != 0 || nilGov.P999() != 0 {
		t.Fatal("nil governor not inert")
	}
}

// refPercentile is the sort-based definition the incremental tracker must
// reproduce: index the sorted window at p/100 · n.
func refPercentile(sorted []sim.Time, p float64) sim.Time {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p / 100 * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// TestTrackerMatchesSortedReference drives random streams with many
// duplicates through trackers of several window sizes and checks every
// percentile the read path asks for against a full sort, while the window
// fills and across several wrap-arounds.
func TestTrackerMatchesSortedReference(t *testing.T) {
	ps := []float64{0, 50, 90, 95, 99.9, 100}
	for _, window := range []int{1, 2, 7, 100, 1024} {
		r := sim.NewRand(uint64(window))
		tr := NewTracker(window)
		var samples []sim.Time
		for i := 0; i < 3*window+50; i++ {
			// Few distinct values, so duplicates are common; an occasional
			// wide value exercises long shifts.
			d := sim.Time(r.Intn(12)) * sim.Microsecond
			if r.Intn(10) == 0 {
				d = sim.Time(r.Intn(1 << 20))
			}
			tr.Record(d)
			samples = append(samples, d)
			sorted := append([]sim.Time(nil), samples[max(0, len(samples)-window):]...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			if got := tr.Count(); got != len(sorted) {
				t.Fatalf("window %d after %d: Count = %d, want %d", window, i+1, got, len(sorted))
			}
			for _, p := range ps {
				if got, want := tr.Percentile(p), refPercentile(sorted, p); got != want {
					t.Fatalf("window %d after %d samples: p%v = %v, want %v", window, i+1, p, got, want)
				}
			}
		}
	}
}

// BenchmarkTrackerRecordPercentile is the read path's per-read tracker
// cost: one Record and the two percentile queries (hedge check and
// governor) against a full 1024-sample window.
func BenchmarkTrackerRecordPercentile(b *testing.B) {
	tr := NewTracker(1024)
	r := sim.NewRand(1)
	lats := make([]sim.Time, 4096)
	for i := range lats {
		lats[i] = sim.Time(50+r.Intn(200)) * sim.Microsecond
	}
	for _, d := range lats[:1024] {
		tr.Record(d)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Record(lats[i%len(lats)])
		_ = tr.Percentile(95)
		_ = tr.Percentile(99.9)
	}
}
