package pyramid

import (
	"cmp"
	"slices"
	"sort"

	"purity/internal/pagecodec"
	"purity/internal/sim"
	"purity/internal/tuple"
)

func seqOf(v uint64) tuple.Seq { return tuple.Seq(v) }

// memSuffixMax bounds the unsorted memtable suffix a reader filters
// linearly before it forces an (incremental) re-sort. Writes append to the
// memtable between reads, so a reader that sorted on every call would pay
// a merge of the whole memtable after each insert batch — the dedup index
// is probed once per 512 B block of every write, the address map once per
// read.
const memSuffixMax = 64

// memView is the memtable as every reader sees it: a prefix in stable
// (key asc, seq desc) order and an unsorted suffix of at most
// memSuffixMax facts inserted since the last sort. It aliases the
// memtable's buffers, which sorts reorder in place, so it is valid only
// while mu is held.
type memView struct {
	sorted, tail []tuple.Fact
	k            int
}

// memViewLocked returns the memtable view, re-sorting only when the
// unsorted suffix has outgrown memSuffixMax. Get, scan, GetCeil, GetFloor
// and Newest all read the memtable through it. Caller holds mu.
func (p *Pyramid) memViewLocked() memView {
	if len(p.mem)-p.sortedLen > memSuffixMax {
		p.sortMemLocked()
	}
	return memView{sorted: p.mem[:p.sortedLen], tail: p.mem[p.sortedLen:], k: p.cfg.Schema.KeyCols}
}

// search returns the first index of s, a run of the sorted prefix, whose
// key is ≥ key, or > key when after is set.
func (v memView) search(s []tuple.Fact, key []uint64, after bool) int {
	if v.k == 1 {
		// Single-column keys (the dedup index) take a hand-rolled search:
		// no closure, no generic key compare. "First > key" is "first ≥
		// key+1" (key+1 wraps only at the top of the key space).
		key0 := key[0]
		if after {
			if key0 == ^uint64(0) {
				return len(s)
			}
			key0++
		}
		lo, hi := 0, len(s)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if s[mid].Cols[0] < key0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	return sort.Search(len(s), func(i int) bool {
		c := tuple.CompareKeys(s[i].Cols, key, v.k)
		return c > 0 || (!after && c == 0)
	})
}

// appendRange appends every memtable fact with key in [lo, hi] (inclusive;
// nil bounds are open) to dst, in exactly the order a full stable sort of
// the memtable would put them: key asc, seq desc, ties in insertion order.
// The sorted prefix's run is found by binary search; the suffix is
// filtered linearly, and its few matches are merged in behind equal
// prefix facts, which were inserted earlier.
func (v memView) appendRange(dst []tuple.Fact, lo, hi []uint64) []tuple.Fact {
	k := v.k
	i, j := 0, len(v.sorted)
	if lo != nil {
		i = v.search(v.sorted, lo, false)
	}
	if hi != nil {
		// Runs are usually short (one key's versions, for Get): gallop
		// from i to bracket the end, then binary-search the last step.
		rest := v.sorted[i:]
		n := 1
		for n < len(rest) && tuple.CompareKeys(rest[n-1].Cols, hi, k) <= 0 {
			n *= 2
		}
		j = i + v.search(rest[:min(n, len(rest))], hi, true)
	}
	run := v.sorted[i:j]
	var tm []tuple.Fact
	if k == 1 {
		// The dedup index's shape, probed per 512 B block written: the
		// bounds live in registers and the loop body is one compare.
		l, h := uint64(0), ^uint64(0)
		if lo != nil {
			l = lo[0]
		}
		if hi != nil {
			h = hi[0]
		}
		for t := range v.tail {
			if c := v.tail[t].Cols[0]; c >= l && c <= h {
				tm = append(tm, v.tail[t])
			}
		}
	} else {
		for t := range v.tail {
			if cols := v.tail[t].Cols; (lo == nil || tuple.CompareKeys(cols, lo, k) >= 0) && (hi == nil || tuple.CompareKeys(cols, hi, k) <= 0) {
				tm = append(tm, v.tail[t])
			}
		}
	}
	if len(tm) == 0 {
		return append(dst, run...)
	}
	slices.SortStableFunc(tm, func(a, b tuple.Fact) int {
		if c := tuple.CompareKeys(a.Cols, b.Cols, k); c != 0 {
			return c
		}
		return cmp.Compare(b.Seq, a.Seq)
	})
	for len(run) > 0 && len(tm) > 0 {
		if tuple.Less(tm[0], run[0], k) {
			dst = append(dst, tm[0])
			tm = tm[1:]
		} else {
			dst = append(dst, run[0])
			run = run[1:]
		}
	}
	dst = append(dst, run...)
	return append(dst, tm...)
}

// Get returns the newest non-elided fact with exactly this key. Patches
// hold disjoint, ordered sequence ranges, so the first source (memtable,
// then patches newest-first) containing the key holds its newest version.
func (p *Pyramid) Get(at sim.Time, key []uint64) (tuple.Fact, bool, sim.Time, error) {
	k := p.cfg.Schema.KeyCols
	done := at

	// The memtable's buffers are reordered by sorts, so it is searched
	// under the lock. The patch list is copy-on-write (installPatchLocked
	// builds a fresh slice), so the header snapshot needs no copy.
	var buf [4]tuple.Fact
	p.mu.Lock()
	var f tuple.Fact
	found := false
	for _, v := range p.memViewLocked().appendRange(buf[:0], key, key) {
		if !p.elided(v) {
			f, found = v, true
			break
		}
	}
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
// KeyMin lies beyond hiKey is never opened. A row decodes (Page.Fact) only
// when peeked, so a narrow scan decodes only the rows it visits and Newest
// only the rows that could beat its best match.
type patchSource struct {
	p     *Pyramid
	patch *Patch
	hiKey []uint64 // inclusive upper bound; nil is open

	page    int             // index of pg in patch.Pages
	pg      *pagecodec.Page // nil until seek opens a page
	row     int
	cur     tuple.Fact
	decoded bool // cur holds row
	ok      bool
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
	s.ok, s.decoded = true, false
	return at, nil
}

func (s *patchSource) peek() (tuple.Fact, bool) {
	if s.ok && !s.decoded {
		s.cur, s.decoded = s.pg.Fact(s.row), true
	}
	return s.cur, s.ok
}

// seq and key read the current row's sequence number and key columns
// without decoding the row. Valid while ok.
func (s *patchSource) seq() tuple.Seq { return s.pg.Seq(s.row) }

func (s *patchSource) key() []uint64 {
	k := s.p.cfg.Schema.KeyCols
	return s.pg.Keys()[s.row*k : (s.row+1)*k]
}

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

	// The memtable's buffers are reordered by sorts, so the facts in range
	// are copied out under the lock. The patch list is copy-on-write
	// (installPatchLocked builds a fresh slice), so the header snapshot
	// needs no copy.
	p.mu.Lock()
	memRun := p.memViewLocked().appendRange(nil, loKey, hiKey)
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

// Newest returns the newest non-elided fact with key in [loKey, hiKey]
// (inclusive; nil bounds are open) for which match holds: the highest
// sequence number, ties going to the least key and then to the first
// source in the order memtable, patches newest first — the first such
// fact ScanVersions would emit. The memtable and each patch hold their
// own sequence ranges, so the sources are read newest first and every
// patch whose SeqHi is below the best match so far is skipped unopened:
// a key the memtable or a recent patch covers opens no page of an older
// patch. The skip tests SeqHi itself rather than relying on the patch
// order, and it keeps patches whose SeqHi equals the best match, which
// can hold an equal-seq copy of a fact re-placed after recovery.
//
// match runs without the pyramid's lock, only on facts that would beat
// the current best, and must not retain the fact.
func (p *Pyramid) Newest(at sim.Time, loKey, hiKey []uint64, match func(tuple.Fact) bool) (tuple.Fact, bool, sim.Time, error) {
	k := p.cfg.Schema.KeyCols
	done := at
	if loKey != nil && hiKey != nil && tuple.CompareKeys(loKey, hiKey, k) > 0 {
		return tuple.Fact{}, false, done, nil
	}

	var buf [16]tuple.Fact
	p.mu.Lock()
	mem := p.memViewLocked().appendRange(buf[:0], loKey, hiKey)
	patches := p.patches
	p.mu.Unlock()

	var best tuple.Fact
	found, fromMem := false, false
	beats := func(seq tuple.Seq, key []uint64) bool {
		return !found || seq > best.Seq || (seq == best.Seq && tuple.CompareKeys(key, best.Cols, k) < 0)
	}
	for _, f := range mem {
		if beats(f.Seq, f.Cols) && !p.elided(f) && match(f) {
			best, found, fromMem = f, true, true
		}
	}
	for _, patch := range patches {
		if found && patch.SeqHi < best.Seq {
			continue
		}
		s := patchSource{p: p, patch: patch, hiKey: hiKey}
		var err error
		if done, err = s.seek(done, loKey); err != nil {
			return tuple.Fact{}, false, done, err
		}
		for s.ok {
			if beats(s.seq(), s.key()) {
				if f, _ := s.peek(); !p.elided(f) && match(f) {
					best, found, fromMem = f, true, false
				}
			}
			if done, err = s.advance(done); err != nil {
				return tuple.Fact{}, false, done, err
			}
		}
	}
	if fromMem {
		// Memtable facts are shared with the pyramid; patch rows were
		// decoded for this call.
		best = best.Clone()
	}
	return best, found, done, nil
}
