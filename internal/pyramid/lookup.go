package pyramid

import (
	"sort"

	"purity/internal/pagecodec"
	"purity/internal/sim"
	"purity/internal/tuple"
)

func seqOf(v uint64) tuple.Seq { return tuple.Seq(v) }

// Get returns the newest non-elided fact with exactly this key. Patches
// hold disjoint, ordered sequence ranges, so the first source (memtable,
// then patches newest-first) containing the key holds its newest version.
// memSuffixMax bounds how many unsorted memtable facts Get will scan
// linearly before forcing a (incremental) re-sort. Point lookups — the
// dedup index is probed once per 512 B block of every write — would
// otherwise pay a full memtable merge after every insert batch.
const memSuffixMax = 64

func (p *Pyramid) Get(at sim.Time, key []uint64) (tuple.Fact, bool, sim.Time, error) {
	k := p.cfg.Schema.KeyCols
	done := at

	// The memtable is sorted in place and its buffers are reused, so it is
	// searched under the lock. The patch list is copy-on-write
	// (installPatchLocked builds a fresh slice), so the header snapshot
	// needs no copy.
	p.mu.Lock()
	if len(p.mem)-p.sortedLen > memSuffixMax {
		p.sortMemLocked()
	}
	f, found := p.getMemLocked(key)
	patches := p.patches
	p.mu.Unlock()
	if found {
		return f.Clone(), true, done, nil
	}

	if k == 1 {
		key0 := key[0]
		for _, patch := range patches {
			f, found, d, err := p.getFromPatch1(done, patch, key0)
			done = d
			if err != nil {
				return tuple.Fact{}, false, done, err
			}
			if found {
				return f, true, done, nil
			}
		}
		return tuple.Fact{}, false, done, nil
	}
	for _, patch := range patches {
		f, found, d, err := p.getFromPatch(done, patch, key)
		done = d
		if err != nil {
			return tuple.Fact{}, false, done, err
		}
		if found {
			return f, true, done, nil
		}
	}
	return tuple.Fact{}, false, done, nil
}

// getMemLocked returns the memtable's newest non-elided fact with exactly
// this key. The sorted prefix is binary-searched; facts inserted since the
// last sort (a bounded suffix) are scanned linearly. The two match streams
// are merged in (seq desc, insertion asc) order — exactly the order a full
// stable sort would produce — and the first non-elided match is the newest
// version. Caller holds mu.
func (p *Pyramid) getMemLocked(key []uint64) (tuple.Fact, bool) {
	k := p.cfg.Schema.KeyCols
	mem := p.mem
	prefix := mem[:p.sortedLen]
	var i int
	if k == 1 {
		// Single-column keys (the dedup index) take a hand-rolled search:
		// no closure, no generic key compare.
		key0 := key[0]
		lo, hi := 0, len(prefix)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if prefix[mid].Cols[0] < key0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		i = lo
	} else {
		i = sort.Search(len(prefix), func(i int) bool {
			return tuple.CompareKeys(prefix[i].Cols, key, k) >= 0
		})
	}
	var sm []tuple.Fact // suffix matches, insertion order
	if k == 1 {
		key0 := key[0]
		for _, f := range mem[p.sortedLen:] {
			if f.Cols[0] == key0 {
				sm = append(sm, f)
			}
		}
	} else {
		for _, f := range mem[p.sortedLen:] {
			if tuple.CompareKeys(f.Cols, key, k) == 0 {
				sm = append(sm, f)
			}
		}
	}
	if len(sm) > 1 {
		sort.SliceStable(sm, func(a, b int) bool { return sm[a].Seq > sm[b].Seq })
	}
	si := 0
	for {
		havePre := i < len(prefix) && tuple.CompareKeys(prefix[i].Cols, key, k) == 0
		haveSuf := si < len(sm)
		if !havePre && !haveSuf {
			return tuple.Fact{}, false
		}
		// Ties take the prefix fact: it was inserted earlier, matching the
		// stable-sort order.
		if havePre && (!haveSuf || prefix[i].Seq >= sm[si].Seq) {
			if !p.elided(prefix[i]) {
				return prefix[i], true
			}
			i++
		} else {
			if !p.elided(sm[si]) {
				return sm[si], true
			}
			si++
		}
	}
}

// getFromPatch1 is getFromPatch specialized for single-column keys — the
// dedup index's shape, probed once per 512 B block of every write. Same
// result, same page-open sequence (so identical simulated time), but
// straight uint64 compares against the page's decoded key cache.
func (p *Pyramid) getFromPatch1(at sim.Time, patch *Patch, key0 uint64) (tuple.Fact, bool, sim.Time, error) {
	done := at
	pages := patch.Pages
	lo, hi := 0, len(pages)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pages[mid].KeyMin[0] <= key0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for pi := lo - 1; pi >= 0 && pi < len(pages); pi++ {
		if pages[pi].KeyMin[0] > key0 {
			break
		}
		pg, d, err := p.openPage(done, pages[pi].Ref)
		done = d
		if err != nil {
			return tuple.Fact{}, false, done, err
		}
		keys := pg.Keys()
		rlo, rhi := 0, len(keys)
		for rlo < rhi {
			mid := int(uint(rlo+rhi) >> 1)
			if keys[mid] < key0 {
				rlo = mid + 1
			} else {
				rhi = mid
			}
		}
		for ; rlo < len(keys); rlo++ {
			if keys[rlo] != key0 {
				return tuple.Fact{}, false, done, nil
			}
			f := pg.Fact(rlo)
			if !p.elided(f) {
				return f, true, done, nil
			}
		}
		// Key versions may continue on the next page.
	}
	return tuple.Fact{}, false, done, nil
}

// getFromPatch searches one patch for the newest non-elided version of key.
func (p *Pyramid) getFromPatch(at sim.Time, patch *Patch, key []uint64) (tuple.Fact, bool, sim.Time, error) {
	k := p.cfg.Schema.KeyCols
	done := at
	// Last page whose KeyMin ≤ key; versions of a key may spill into
	// following pages whose KeyMin equals the key.
	var pi int
	if k == 1 {
		key0 := key[0]
		lo, hi := 0, len(patch.Pages)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if patch.Pages[mid].KeyMin[0] <= key0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		pi = lo - 1
	} else {
		pi = sort.Search(len(patch.Pages), func(i int) bool {
			return tuple.CompareKeys(patch.Pages[i].KeyMin, key, k) > 0
		}) - 1
	}
	if pi < 0 {
		return tuple.Fact{}, false, done, nil
	}
	for ; pi < len(patch.Pages); pi++ {
		if tuple.CompareKeys(patch.Pages[pi].KeyMin, key, k) > 0 {
			break
		}
		pg, d, err := p.openPage(done, patch.Pages[pi].Ref)
		done = d
		if err != nil {
			return tuple.Fact{}, false, done, err
		}
		var buf []uint64
		for ri := pg.FirstGE(key); ri < pg.RowCount(); ri++ {
			buf = pg.Key(buf[:0], ri)
			if tuple.CompareKeys(buf, key, k) != 0 {
				return tuple.Fact{}, false, done, nil
			}
			f := pg.Fact(ri)
			if !p.elided(f) {
				return f, true, done, nil
			}
		}
		// Key versions may continue on the next page.
	}
	return tuple.Fact{}, false, done, nil
}

// --- Merged scans -------------------------------------------------------

// factSource is a sorted stream of facts (key asc, seq desc).
type factSource interface {
	// peek returns the current fact without consuming it.
	peek() (tuple.Fact, bool)
	// advance consumes the current fact; it may read pages (returns the
	// updated completion time).
	advance(at sim.Time) (sim.Time, error)
}

type memSource struct {
	facts []tuple.Fact
	pos   int
}

func (s *memSource) peek() (tuple.Fact, bool) {
	if s.pos >= len(s.facts) {
		return tuple.Fact{}, false
	}
	return s.facts[s.pos], true
}

func (s *memSource) advance(at sim.Time) (sim.Time, error) {
	s.pos++
	return at, nil
}

// patchSource streams one patch's rows, optionally bounded above by hiKey.
// seek positions it; pages open lazily, one at a time, and a page whose
// KeyMin lies beyond hiKey is never opened. Rows decode one at a time
// (Page.Fact), so a narrow scan decodes only the rows it visits.
type patchSource struct {
	p     *Pyramid
	patch *Patch
	hiKey []uint64 // inclusive upper bound; nil is open

	page int             // index of pg in patch.Pages
	pg   *pagecodec.Page // nil until seek opens a page
	row  int
	cur  tuple.Fact
	ok   bool
}

// seek positions the source at its first row with key ≥ loKey (nil: the
// first row). The candidate page is the last one whose KeyMin < loKey:
// every earlier page ends below it, and the strict < stays correct even if
// versions of loKey spill across a page boundary. An unbounded source
// (mergePatches, full scans) starts at page 0.
func (s *patchSource) seek(at sim.Time, loKey []uint64) (sim.Time, error) {
	pages := s.patch.Pages
	if len(pages) == 0 {
		return at, nil
	}
	k := s.p.cfg.Schema.KeyCols
	if loKey != nil {
		s.page = sort.Search(len(pages), func(i int) bool {
			return tuple.CompareKeys(pages[i].KeyMin, loKey, k) >= 0
		}) - 1
		if s.page < 0 {
			s.page = 0
		}
	}
	if s.hiKey != nil && tuple.CompareKeys(pages[s.page].KeyMin, s.hiKey, k) > 0 {
		return at, nil // the whole range lies below this patch
	}
	pg, done, err := s.p.openPage(at, pages[s.page].Ref)
	if err != nil {
		return done, err
	}
	s.pg = pg
	if loKey != nil {
		s.row = pg.FirstGE(loKey)
	}
	return s.settle(done)
}

// settle makes the row at (page, row) current, moving on to following
// pages while the open one is exhausted, and ends the stream at the first
// row beyond hiKey.
func (s *patchSource) settle(at sim.Time) (sim.Time, error) {
	k := s.p.cfg.Schema.KeyCols
	pages := s.patch.Pages
	for s.row >= s.pg.RowCount() {
		next := s.page + 1
		if next >= len(pages) || (s.hiKey != nil && tuple.CompareKeys(pages[next].KeyMin, s.hiKey, k) > 0) {
			s.ok = false
			return at, nil
		}
		pg, done, err := s.p.openPage(at, pages[next].Ref)
		at = done
		if err != nil {
			s.ok = false
			return at, err
		}
		s.page, s.pg, s.row = next, pg, 0
	}
	if s.hiKey != nil && tuple.CompareKeys(s.pg.Keys()[s.row*k:], s.hiKey, k) > 0 {
		s.ok = false
		return at, nil
	}
	s.cur, s.ok = s.pg.Fact(s.row), true
	return at, nil
}

func (s *patchSource) peek() (tuple.Fact, bool) { return s.cur, s.ok }

func (s *patchSource) advance(at sim.Time) (sim.Time, error) {
	s.row++
	return s.settle(at)
}

// Scan streams the newest non-elided version of every key in [loKey,
// hiKey] (inclusive; nil bounds are open) in key order. fn returning false
// stops the scan early.
func (p *Pyramid) Scan(at sim.Time, loKey, hiKey []uint64, fn func(tuple.Fact) bool) (sim.Time, error) {
	return p.scan(at, loKey, hiKey, false, fn)
}

// ScanVersions streams every non-elided fact version in the key range,
// newest first within each key. The garbage collector and debugging tools
// use this; normal readers want Scan.
func (p *Pyramid) ScanVersions(at sim.Time, loKey, hiKey []uint64, fn func(tuple.Fact) bool) (sim.Time, error) {
	return p.scan(at, loKey, hiKey, true, fn)
}

// scan merges the memtable and every patch over [loKey, hiKey]. Each
// source is positioned by binary search — the memtable's run by key, each
// patch by page KeyMin and then row (patchSource.seek) — so a bounded
// scan's cost follows the range it returns, not the pyramid's size.
func (p *Pyramid) scan(at sim.Time, loKey, hiKey []uint64, allVersions bool, fn func(tuple.Fact) bool) (sim.Time, error) {
	k := p.cfg.Schema.KeyCols
	done := at
	if loKey != nil && hiKey != nil && tuple.CompareKeys(loKey, hiKey, k) > 0 {
		return done, nil
	}

	// The memtable is sorted in place and its buffers are reused, so the
	// run in range is copied out under the lock. The patch list is
	// copy-on-write (installPatchLocked builds a fresh slice), so the header
	// snapshot needs no copy.
	p.mu.Lock()
	p.sortMemLocked()
	lo, hi := 0, len(p.mem)
	if loKey != nil {
		lo = sort.Search(len(p.mem), func(i int) bool {
			return tuple.CompareKeys(p.mem[i].Cols, loKey, k) >= 0
		})
	}
	if hiKey != nil {
		hi = sort.Search(len(p.mem), func(i int) bool {
			return tuple.CompareKeys(p.mem[i].Cols, hiKey, k) > 0
		})
	}
	memRun := append([]tuple.Fact(nil), p.mem[lo:hi]...)
	patches := p.patches
	p.mu.Unlock()

	sources := make([]factSource, 0, len(patches)+1)
	sources = append(sources, &memSource{facts: memRun})
	patchSources := make([]patchSource, len(patches))
	for i, patch := range patches {
		ps := &patchSources[i]
		ps.p, ps.patch, ps.hiKey = p, patch, hiKey
		var err error
		if done, err = ps.seek(done, loKey); err != nil {
			return done, err
		}
		sources = append(sources, ps)
	}

	var lastKey []uint64
	lastEmitted := false
	for {
		// Choose the least (key asc, seq desc) fact across sources.
		best := -1
		var bestFact tuple.Fact
		for i, s := range sources {
			f, ok := s.peek()
			if !ok {
				continue
			}
			if best < 0 || tuple.Less(f, bestFact, k) {
				best = i
				bestFact = f
			}
		}
		if best < 0 {
			return done, nil
		}
		var err error
		done, err = sources[best].advance(done)
		if err != nil {
			return done, err
		}

		newKey := lastKey == nil || tuple.CompareKeys(bestFact.Cols, lastKey, k) != 0
		if newKey {
			lastKey = append(lastKey[:0], bestFact.Cols[:k]...)
			lastEmitted = false
		}
		if !allVersions && lastEmitted {
			continue // newest version of this key already delivered
		}
		if p.elided(bestFact) {
			continue
		}
		lastEmitted = true
		if !fn(bestFact.Clone()) {
			return done, nil
		}
	}
}
