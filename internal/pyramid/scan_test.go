package pyramid

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"purity/internal/elide"
	"purity/internal/sim"
	"purity/internal/tuple"
)

// scanSchema has a two-column key, the address map's shape: (medium,
// sector) → value.
var scanSchema = tuple.Schema{Cols: 3, KeyCols: 2}

func newScanPyramid(t testing.TB, et *elide.Table, cachePages int) (*Pyramid, *MemStore) {
	t.Helper()
	store := NewMemStore()
	p, err := New(Config{ID: 9, Name: "scan", Schema: scanSchema, PageRows: 16, CachePages: cachePages}, store, et)
	if err != nil {
		t.Fatal(err)
	}
	return p, store
}

// scanModel is the brute-force reference: every fact ever inserted.
type scanModel struct {
	facts []tuple.Fact
	et    *elide.Table
}

func inRange(f tuple.Fact, lo, hi []uint64) bool {
	return (lo == nil || tuple.CompareKeys(f.Cols, lo, 2) >= 0) &&
		(hi == nil || tuple.CompareKeys(f.Cols, hi, 2) <= 0)
}

// scan returns what Scan (allVersions false) or ScanVersions must return:
// facts in range sorted (key asc, seq desc), elided versions dropped and,
// for Scan, only the newest surviving version of each key.
func (m *scanModel) scan(lo, hi []uint64, allVersions bool) []tuple.Fact {
	var in []tuple.Fact
	for _, f := range m.facts {
		if inRange(f, lo, hi) {
			in = append(in, f)
		}
	}
	sort.Slice(in, func(i, j int) bool { return tuple.Less(in[i], in[j], 2) })
	var out []tuple.Fact
	for _, f := range in {
		if m.et.Elided(f) {
			continue
		}
		if !allVersions && len(out) > 0 && tuple.CompareKeys(out[len(out)-1].Cols, f.Cols, 2) == 0 {
			continue
		}
		out = append(out, f)
	}
	return out
}

func collect(t *testing.T, p *Pyramid, lo, hi []uint64, allVersions bool) []tuple.Fact {
	t.Helper()
	var got []tuple.Fact
	fn := func(f tuple.Fact) bool { got = append(got, f); return true }
	var err error
	if allVersions {
		_, err = p.ScanVersions(0, lo, hi, fn)
	} else {
		_, err = p.Scan(0, lo, hi, fn)
	}
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func sameFacts(a, b []tuple.Fact) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || tuple.CompareKeys(a[i].Cols, b[i].Cols, 3) != 0 {
			return false
		}
	}
	return true
}

// TestScanMatchesBruteForce checks bounded and unbounded Scan and
// ScanVersions against a sorted model over a pyramid with several
// multi-page patches, many versions per key (runs longer than a page),
// elided ranges, and a memtable in each shape of suffixCases: sorted, a
// sorted prefix with an unsorted suffix, and a suffix past memSuffixMax.
// Bounds fall on page KeyMins, just inside and between them, outside the
// key space, open (nil), and inverted (lo > hi).
func TestScanMatchesBruteForce(t *testing.T) {
	et := elide.NewTable()
	p, _ := newScanPyramid(t, et, 4)
	m := &scanModel{et: et}
	r := sim.NewRand(12)
	seq := tuple.Seq(0)
	insert := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			// Two media; sectors clustered so many keys carry many
			// versions, a few keys more versions than a page holds.
			sector := uint64(r.Intn(90))
			if r.Intn(4) == 0 {
				sector = 7
			}
			f := tuple.Fact{Seq: seq, Cols: []uint64{uint64(r.Intn(2)), sector, r.Uint64()}}
			if err := p.Insert([]tuple.Fact{f}); err != nil {
				t.Fatal(err)
			}
			m.facts = append(m.facts, f)
		}
	}
	for patch := 0; patch < 4; patch++ {
		insert(150)
		if _, err := p.Flush(0, seq); err != nil {
			t.Fatal(err)
		}
		if patch == 1 {
			// Elide a sector range of medium 1 as of now: older versions
			// vanish, later writes to the range survive.
			et.Add(elide.Predicate{Col: 1, Lo: 20, Hi: 29, MaxSeq: seq})
		}
	}
	if n := len(p.Patches()); n < 3 {
		t.Fatalf("built %d patches, want ≥ 3", n)
	}
	insert(100)

	// Candidate bound keys: every page KeyMin, its neighbours, and the
	// edges of the key space.
	var cands [][]uint64
	for _, patch := range p.Patches() {
		for _, pm := range patch.Pages {
			k := pm.KeyMin
			cands = append(cands, []uint64{k[0], k[1]})
			cands = append(cands, []uint64{k[0], k[1] + 1})
			if k[1] > 0 {
				cands = append(cands, []uint64{k[0], k[1] - 1})
			}
		}
	}
	cands = append(cands, []uint64{0, 0}, []uint64{1, 89}, []uint64{2, 0}, []uint64{0, 1000})
	pick := func() []uint64 {
		switch r.Intn(8) {
		case 0:
			return nil
		case 1:
			return []uint64{uint64(r.Intn(2)), uint64(r.Intn(95))}
		default:
			return cands[r.Intn(len(cands))]
		}
	}

	queries := 100
	if testing.Short() {
		queries = 40
	}
	for _, sc := range suffixCases {
		for q := 0; q < queries; q++ {
			reshapeMem(t, p, sc.n, insert)
			lo, hi := pick(), pick()
			if q%10 == 0 && lo != nil && hi != nil {
				lo, hi = hi, lo // often inverted
			}
			for _, all := range []bool{false, true} {
				want := m.scan(lo, hi, all)
				got := collect(t, p, lo, hi, all)
				if !sameFacts(got, want) {
					t.Fatalf("%s: query %d [%v, %v] allVersions=%v: got %d facts, want %d\ngot  %v\nwant %v",
						sc.name, q, lo, hi, all, len(got), len(want), got, want)
				}
			}
		}
	}
}

// TestBoundedScanOpensFewPages pins the seek: a ScanVersions over a range
// narrower than a page opens at most two pages per patch (the page the
// range starts in and its successor), whatever the patch size. A scan that
// walked each patch from page 0 would open dozens.
func TestBoundedScanOpensFewPages(t *testing.T) {
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
	if pages := len(p.Patches()[0].Pages); pages < 20 {
		t.Fatalf("patch has %d pages; the bound is only meaningful for long patches", pages)
	}
	for _, lo := range []uint64{0, 15, 16, 17, 200, 207, 208, 390, 399, 400} {
		hi := lo + 4
		before := store.Reads
		n := 0
		if _, err := p.ScanVersions(0, []uint64{3, lo}, []uint64{3, hi}, func(tuple.Fact) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		opened := store.Reads - before
		if opened > 2*patches {
			t.Fatalf("scan [%d, %d] read %d pages, want ≤ %d (2 per patch)", lo, hi, opened, 2*patches)
		}
		want := 0
		if lo < keys {
			want = patches * int(min(hi, keys-1)-lo+1)
		}
		if n != want {
			t.Fatalf("scan [%d, %d] returned %d versions, want %d", lo, hi, n, want)
		}
	}
	// A range wholly below every patch opens nothing.
	before := store.Reads
	if _, err := p.ScanVersions(0, []uint64{2, 0}, []uint64{2, 99}, func(tuple.Fact) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if opened := store.Reads - before; opened != 0 {
		t.Fatalf("scan below every patch read %d pages, want 0", opened)
	}
}

// TestConcurrentScanInsert runs inserts, flushes, merges, scans and point
// lookups on one pyramid at once (run under -race). Every scan must come
// back sorted, and every key written before the readers started must stay
// visible to Scan, Get, GetFloor and GetCeil throughout. The memtable is
// sorted in place into reused buffers, so a lookup that read it outside
// the lock would race with a concurrent scan's sort.
func TestConcurrentScanInsert(t *testing.T) {
	p, _ := newScanPyramid(t, nil, 8)
	const keys = 64
	// inserted is the highest sequence number whose fact is in the
	// memtable: the flush watermark, as NVRAM persistence is for the engine.
	var inserted atomic.Uint64
	seq := uint64(0)
	var base []tuple.Fact
	for s := uint64(0); s < keys; s++ {
		seq++
		base = append(base, tuple.Fact{Seq: tuple.Seq(seq), Cols: []uint64{1, s * 4, 0}})
	}
	if err := p.Insert(base); err != nil {
		t.Fatal(err)
	}
	inserted.Store(seq)
	rounds := 400
	if testing.Short() {
		rounds = 150
	}

	errs := make(chan string, 16)
	fail := func(msg string) {
		select {
		case errs <- msg:
		default:
		}
	}
	var stop atomic.Bool
	var writers sync.WaitGroup
	writers.Add(2)
	go func() { // inserter: unsorted batches, as a commit applies them
		defer writers.Done()
		r := sim.NewRand(1)
		for !stop.Load() {
			batch := make([]tuple.Fact, 8)
			for j := range batch {
				seq++
				batch[j] = tuple.Fact{Seq: tuple.Seq(seq), Cols: []uint64{1, uint64(r.Intn(keys)) * 4, seq}}
			}
			if err := p.Insert(batch); err != nil {
				fail(err.Error())
				return
			}
			inserted.Store(seq)
			runtime.Gosched()
		}
	}()
	go func() { // flusher and merger: the memtable sorts many times between flushes
		defer writers.Done()
		flushed := inserted.Load()
		for !stop.Load() {
			if now := inserted.Load(); now-flushed >= 256 {
				if _, err := p.Flush(0, tuple.Seq(now)); err != nil {
					fail(err.Error())
					return
				}
				if _, err := p.Maintain(0, 3); err != nil {
					fail(err.Error())
					return
				}
				flushed = now
			}
			runtime.Gosched()
		}
	}()
	var readers sync.WaitGroup
	readers.Add(2)
	go func() { // scanner: a scan re-sorts the memtable once 64 facts pile up
		defer readers.Done()
		r := sim.NewRand(10)
		for i := 0; i < rounds; i++ {
			lo := uint64(r.Intn(keys * 4))
			var got []tuple.Fact
			if _, err := p.Scan(0, []uint64{1, lo}, []uint64{1, lo + 16}, func(f tuple.Fact) bool {
				got = append(got, f)
				return true
			}); err != nil {
				fail(err.Error())
				return
			}
			for j := 1; j < len(got); j++ {
				if tuple.CompareKeys(got[j-1].Cols, got[j].Cols, 2) >= 0 {
					fail("scan out of order")
					return
				}
			}
			if want := int(min(lo+16, keys*4-1)/4 - (lo+3)/4 + 1); len(got) != want {
				fail("scan lost a key")
				return
			}
		}
	}()
	go func() { // point lookups
		defer readers.Done()
		r := sim.NewRand(11)
		for i := 0; i < rounds*4; i++ {
			key := uint64(r.Intn(keys)) * 4
			if _, ok, _, err := p.Get(0, []uint64{1, key}); err != nil || !ok {
				fail("Get lost a key")
				return
			}
			f, ok, _, err := p.GetFloor(0, []uint64{1}, key+3)
			if err != nil || !ok || f.Cols[1] != key {
				fail("GetFloor lost a key")
				return
			}
			f, ok, _, err = p.GetCeil(0, []uint64{1}, key)
			if err != nil || !ok || f.Cols[1] != key {
				fail("GetCeil lost a key")
				return
			}
		}
	}()
	readers.Wait()
	stop.Store(true)
	writers.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestLookupsDuringMemtableSort pins the memtable's locking (run under
// -race). Sorts reuse the memtable's buffers in place, so a Get, GetFloor,
// GetCeil or Newest that searched the memtable after dropping the lock would race
// with a scan's sort. The race detector sees such a read only when no lock
// orders it before the write, so each lookup runs in a goroutine that
// exits straight after, while the scanner sorts new batches.
func TestLookupsDuringMemtableSort(t *testing.T) {
	p, _ := newScanPyramid(t, nil, 8)
	seq := tuple.Seq(0)
	insert := func(n int) {
		batch := make([]tuple.Fact, n)
		for i := range batch {
			seq++
			batch[i] = tuple.Fact{Seq: seq, Cols: []uint64{1, uint64(seq) * 7919 % 500, 0}}
		}
		if err := p.Insert(batch); err != nil {
			t.Fatal(err)
		}
	}
	insert(100)
	for round := 0; round < 100; round++ {
		insert(10)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, _, err := p.Get(0, []uint64{1, 3}); err != nil {
				t.Error(err)
			}
			if _, _, _, err := p.GetFloor(0, []uint64{1}, 250); err != nil {
				t.Error(err)
			}
			if _, _, _, err := p.GetCeil(0, []uint64{1}, 250); err != nil {
				t.Error(err)
			}
			if _, _, _, err := p.Newest(0, []uint64{1, 200}, []uint64{1, 263}, func(tuple.Fact) bool { return true }); err != nil {
				t.Error(err)
			}
		}()
		for i := 0; i < 3; i++ {
			insert(memSuffixMax + 1) // past the bound: the scan re-sorts
			if _, err := p.Scan(0, []uint64{1, 0}, []uint64{1, 1}, func(tuple.Fact) bool { return true }); err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
	}
}
