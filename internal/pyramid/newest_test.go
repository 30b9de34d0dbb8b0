package pyramid

import (
	"testing"

	"purity/internal/elide"
	"purity/internal/sim"
	"purity/internal/tuple"
)

// suffixCases are the memtable shapes the brute-force lookup tests query:
// fully sorted, an unsorted suffix that readers filter linearly, and a
// suffix past memSuffixMax, which the first reader re-sorts.
var suffixCases = []struct {
	name string
	n    int
}{
	{"sorted", 0},
	{"suffix", memSuffixMax / 2},
	{"oversuffix", memSuffixMax + 1},
}

// reshapeMem sorts the memtable, then calls insert(n), leaving exactly n
// unsorted facts behind the sorted prefix.
func reshapeMem(t *testing.T, p *Pyramid, n int, insert func(n int)) {
	t.Helper()
	p.mu.Lock()
	p.sortMemLocked()
	p.mu.Unlock()
	insert(n)
	p.mu.Lock()
	got := len(p.mem) - p.sortedLen
	p.mu.Unlock()
	if got != n {
		t.Fatalf("memtable suffix holds %d facts, want %d", got, n)
	}
}

// newestByScan is the brute-force reference for Newest: the first
// highest-seq fact ScanVersions emits for which match holds.
func newestByScan(t *testing.T, p *Pyramid, lo, hi []uint64, match func(tuple.Fact) bool) (tuple.Fact, bool) {
	t.Helper()
	var best tuple.Fact
	found := false
	if _, err := p.ScanVersions(0, lo, hi, func(f tuple.Fact) bool {
		if (!found || f.Seq > best.Seq) && match(f) {
			best, found = f, true
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return best, found
}

// TestNewestMatchesBruteForce checks Newest against the max-seq match over
// ScanVersions on a pyramid with four patches of several pages, a key whose
// versions run longer than a page, elided ranges, and re-placed facts:
// equal-seq copies, in the memtable, of facts in the oldest patch whose
// patch copy match rejects (as the address map rejects an entry pointing
// at a segment lost in a crash), plus equal-seq facts at other keys. Every
// query runs against each memtable shape in suffixCases, with bounds shaped
// like the address map's covering lookup and open ones.
func TestNewestMatchesBruteForce(t *testing.T) {
	et := elide.NewTable()
	p, _ := newScanPyramid(t, et, 4)
	r := sim.NewRand(21)
	seq := tuple.Seq(0)
	insertFact := func(f tuple.Fact) {
		if err := p.Insert([]tuple.Fact{f}); err != nil {
			t.Fatal(err)
		}
	}
	insert := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			sector := uint64(r.Intn(90))
			if r.Intn(4) == 0 {
				sector = 7 // a version run longer than a page
			}
			insertFact(tuple.Fact{Seq: seq, Cols: []uint64{uint64(r.Intn(2)), sector, r.Uint64() &^ 1}})
		}
	}
	for patch := 0; patch < 4; patch++ {
		insert(150)
		if patch == 0 {
			// Sectors 90–99 are written only here, so their facts in the
			// oldest patch stay the newest versions of their keys.
			for i := 0; i < 40; i++ {
				seq++
				insertFact(tuple.Fact{Seq: seq, Cols: []uint64{uint64(i % 2), 90 + uint64(r.Intn(10)), r.Uint64() &^ 1}})
			}
		}
		if _, err := p.Flush(0, seq); err != nil {
			t.Fatal(err)
		}
		if patch == 1 {
			et.Add(elide.Predicate{Col: 1, Lo: 20, Hi: 29, MaxSeq: seq})
		}
	}
	patches := p.Patches()
	if len(patches) < 4 {
		t.Fatalf("built %d patches, want ≥ 4", len(patches))
	}

	// Re-place the oldest patch's facts at sectors 90–99: the memtable
	// copy keeps key and seq with a new value, and the match below rejects
	// the patch copy as stale. Every fourth one instead lands at another
	// key with the same seq, a cross-key tie.
	stale := map[tuple.Seq]uint64{}
	oldest := patches[len(patches)-1]
	replaced := 0
	if _, err := p.ScanVersions(0, nil, nil, func(f tuple.Fact) bool {
		if f.Seq <= oldest.SeqHi && f.Cols[1] >= 90 {
			replaced++
			cols := append([]uint64(nil), f.Cols...)
			if replaced%4 == 0 {
				cols[1] = 90 + uint64(r.Intn(10))
			} else {
				stale[f.Seq] = f.Cols[2]
			}
			cols[2] = r.Uint64() &^ 1
			insertFact(tuple.Fact{Seq: f.Seq, Cols: cols})
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(stale) < 5 {
		t.Fatalf("re-placed %d facts, want ≥ 5", len(stale))
	}
	// A second elided range, over memtable facts too: there the newest
	// versions are elided, until a query's inserts rewrite them.
	insert(60)
	et.Add(elide.Predicate{Col: 1, Lo: 40, Hi: 49, MaxSeq: seq})

	queries := 150
	if testing.Short() {
		queries = 60
	}
	matchAll := func(tuple.Fact) bool { return true }
	for _, sc := range suffixCases {
		t.Run(sc.name, func(t *testing.T) {
			replacedWins := 0
			for q := 0; q < queries; q++ {
				reshapeMem(t, p, sc.n, insert)
				med := uint64(r.Intn(2))
				sector := uint64(r.Intn(110))
				if q%3 == 0 {
					sector = 98 + uint64(r.Intn(12)) // a window within 90–109
				}
				lo, hi := []uint64{med, 0}, []uint64{med, sector}
				if sector >= 8 {
					lo[1] = sector - 8
				}
				switch q % 10 {
				case 0:
					lo = nil
				case 1:
					hi = nil
				case 2:
					lo, hi = hi, lo // inverted
				}
				// Shaped like the address map's lookup: the entry must
				// reach the sector and must not be a stale copy.
				cover := r.Intn(5)
				match := func(f tuple.Fact) bool {
					if v, ok := stale[f.Seq]; ok && v == f.Cols[2] {
						return false
					}
					return f.Cols[2]%5 != uint64(cover)
				}
				for _, m := range []func(tuple.Fact) bool{match, matchAll} {
					want, wantOK := newestByScan(t, p, lo, hi, m)
					got, ok, _, err := p.Newest(0, lo, hi, m)
					if err != nil {
						t.Fatal(err)
					}
					if ok != wantOK || (ok && !sameFacts([]tuple.Fact{got}, []tuple.Fact{want})) {
						t.Fatalf("query %d [%v, %v]: got %v %v, want %v %v", q, lo, hi, got, ok, want, wantOK)
					}
					if _, ok := stale[got.Seq]; ok && got.Seq <= oldest.SeqHi {
						replacedWins++
					}
				}
			}
			if replacedWins == 0 {
				t.Fatal("no query resolved to a re-placed fact; the equal-seq case went untested")
			}
		})
	}
}

// TestNewestEqualSeqTies pins the tie rule across sources: of two matches
// with the same seq, the lesser key wins even when it sits in a patch whose
// SeqHi only equals the memtable match's seq; at the same key the memtable
// copy wins, and within the memtable the copy inserted first.
func TestNewestEqualSeqTies(t *testing.T) {
	p, _ := newScanPyramid(t, nil, 4)
	if err := p.Insert([]tuple.Fact{{Seq: 1, Cols: []uint64{1, 5, 0}}, {Seq: 2, Cols: []uint64{1, 6, 0}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Flush(0, 2); err != nil {
		t.Fatal(err)
	}
	// Re-placed copies at seq 2: one at a greater key, one at the same key.
	if err := p.Insert([]tuple.Fact{{Seq: 2, Cols: []uint64{1, 8, 1}}, {Seq: 2, Cols: []uint64{1, 6, 1}}}); err != nil {
		t.Fatal(err)
	}
	all := func(tuple.Fact) bool { return true }
	notAt6 := func(f tuple.Fact) bool { return f.Cols[1] != 6 }
	for _, c := range []struct {
		lo, hi uint64
		match  func(tuple.Fact) bool
		want   []uint64
	}{
		{6, 8, all, []uint64{1, 6, 1}},    // same key: the memtable copy
		{7, 8, all, []uint64{1, 8, 1}},    // only the memtable's greater key
		{5, 8, notAt6, []uint64{1, 8, 1}}, // seq 2 beats the patch's seq 1
	} {
		got, ok, _, err := p.Newest(0, []uint64{1, c.lo}, []uint64{1, c.hi}, c.match)
		want, _ := newestByScan(t, p, []uint64{1, c.lo}, []uint64{1, c.hi}, c.match)
		if err != nil || !ok || tuple.CompareKeys(got.Cols, c.want, 3) != 0 || !sameFacts([]tuple.Fact{got}, []tuple.Fact{want}) {
			t.Fatalf("Newest [%d, %d] = %v %v %v, want %v (ScanVersions: %v)", c.lo, c.hi, got, ok, err, c.want, want)
		}
	}
	// Equal key and seq inside the memtable: the copy inserted first wins,
	// as in a stable sort, with one copy sorted and the other not.
	if err := p.Insert([]tuple.Fact{{Seq: 3, Cols: []uint64{1, 9, 0}}}); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	p.sortMemLocked()
	p.mu.Unlock()
	if err := p.Insert([]tuple.Fact{{Seq: 3, Cols: []uint64{1, 9, 1}}}); err != nil {
		t.Fatal(err)
	}
	got, ok, _, err := p.Newest(0, []uint64{1, 9}, []uint64{1, 9}, all)
	if err != nil || !ok || got.Cols[2] != 0 {
		t.Fatalf("in-memtable tie = %v %v %v, want the first-inserted copy", got, ok, err)
	}
	if got, _, _, _ := p.Get(0, []uint64{1, 9}); got.Cols[2] != 0 {
		t.Fatalf("Get in-memtable tie = %v, want the first-inserted copy", got)
	}

	// The patch's seq-2 fact at key 6 ties the memtable's seq-2 fact at key
	// 8 and wins on the lesser key, though the patch's SeqHi is only equal.
	onlyPatch6 := func(f tuple.Fact) bool { return f.Cols[1] != 6 || f.Cols[2] == 0 }
	got, ok, _, err = p.Newest(0, []uint64{1, 6}, []uint64{1, 8}, onlyPatch6)
	if err != nil || !ok || got.Cols[1] != 6 || got.Cols[2] != 0 {
		t.Fatalf("cross-source tie = %v %v %v, want the patch fact at key 6", got, ok, err)
	}
}

// TestNewestSkipsOlderPatches pins the SeqHi pruning: every patch holds
// every key, yet once the memtable or the newest patch holds a match,
// Newest opens no page of an older patch.
func TestNewestSkipsOlderPatches(t *testing.T) {
	p, store := newScanPyramid(t, nil, 1)
	seq := tuple.Seq(0)
	const patches, keys = 4, 400
	for i := 0; i < patches; i++ {
		var facts []tuple.Fact
		for s := uint64(0); s < keys; s++ {
			seq++
			facts = append(facts, tuple.Fact{Seq: seq, Cols: []uint64{3, s, uint64(i)}})
		}
		if err := p.Insert(facts); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Flush(0, seq); err != nil {
			t.Fatal(err)
		}
	}
	all := func(tuple.Fact) bool { return true }
	pages := func(lo, hi uint64) (int, tuple.Fact) {
		t.Helper()
		before := store.Reads
		f, ok, _, err := p.Newest(0, []uint64{3, lo}, []uint64{3, hi}, all)
		if err != nil || !ok {
			t.Fatalf("Newest [%d, %d]: ok=%v err=%v", lo, hi, ok, err)
		}
		return store.Reads - before, f
	}
	for _, lo := range []uint64{0, 15, 16, 17, 200, 390, 395} {
		hi := lo + 4
		// The top patch covers the range: at most the two pages the range
		// can span in that patch, and the newest version comes from it.
		opened, f := pages(lo, hi)
		if opened > 2 {
			t.Fatalf("Newest [%d, %d] with the top patch covering read %d pages, want ≤ 2", lo, hi, opened)
		}
		if f.Cols[2] != patches-1 {
			t.Fatalf("Newest [%d, %d] = %v, want a fact of the newest patch", lo, hi, f)
		}
	}
	// A memtable match opens no page at all.
	seq++
	if err := p.Insert([]tuple.Fact{{Seq: seq, Cols: []uint64{3, 202, 99}}}); err != nil {
		t.Fatal(err)
	}
	opened, f := pages(200, 204)
	if opened != 0 || f.Cols[2] != 99 {
		t.Fatalf("memtable match: read %d pages, got %v; want 0 pages and the memtable fact", opened, f)
	}
	// A match only in the oldest patch still resolves, reading every patch.
	oldestOnly := func(f tuple.Fact) bool { return f.Cols[2] == 0 }
	before := store.Reads
	f, ok, _, err := p.Newest(0, []uint64{3, 100}, []uint64{3, 104}, oldestOnly)
	if err != nil || !ok || f.Cols[1] != 104 || f.Cols[2] != 0 {
		t.Fatalf("oldest-only match = %v %v %v, want sector 104 of patch 0", f, ok, err)
	}
	if opened := store.Reads - before; opened < patches {
		t.Fatalf("oldest-only match read %d pages, want ≥ %d", opened, patches)
	}
}

// TestMemtableSortsOnlyPastSuffixBound pins the shared reader idiom: Get,
// Scan, GetCeil, GetFloor and Newest leave an unsorted memtable suffix of
// up to memSuffixMax facts in place, and the first of them to see a longer
// suffix re-sorts the whole memtable.
func TestMemtableSortsOnlyPastSuffixBound(t *testing.T) {
	p, _ := newScanPyramid(t, nil, 4)
	seq := tuple.Seq(0)
	insert := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			if err := p.Insert([]tuple.Fact{{Seq: seq, Cols: []uint64{1, uint64(seq) * 7 % 200, 0}}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	suffix := func() int {
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.mem) - p.sortedLen
	}
	readers := map[string]func() error{
		"Get": func() error { _, _, _, err := p.Get(0, []uint64{1, 7}); return err },
		"Scan": func() error {
			_, err := p.Scan(0, []uint64{1, 0}, []uint64{1, 50}, func(tuple.Fact) bool { return true })
			return err
		},
		"GetCeil":  func() error { _, _, _, err := p.GetCeil(0, []uint64{1}, 40); return err },
		"GetFloor": func() error { _, _, _, err := p.GetFloor(0, []uint64{1}, 40); return err },
		"Newest": func() error {
			_, _, _, err := p.Newest(0, []uint64{1, 0}, []uint64{1, 50}, func(tuple.Fact) bool { return true })
			return err
		},
	}
	insert(100)
	for name, read := range readers {
		reshapeMem(t, p, memSuffixMax, insert)
		if err := read(); err != nil {
			t.Fatal(err)
		}
		if n := suffix(); n != memSuffixMax {
			t.Fatalf("%s with a %d-fact suffix left %d unsorted, want no re-sort", name, memSuffixMax, n)
		}
		insert(1)
		if err := read(); err != nil {
			t.Fatal(err)
		}
		if n := suffix(); n != 0 {
			t.Fatalf("%s with a %d-fact suffix left %d unsorted, want a re-sort", name, memSuffixMax+1, n)
		}
	}
}
