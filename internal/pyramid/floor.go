package pyramid

import (
	"sort"

	"purity/internal/sim"
	"purity/internal/tuple"
)

// GetFloor returns the newest fact whose key is prefix++[c] with the
// largest c ≤ col — a floor lookup on the final key column within a fixed
// prefix. The address map uses it to find the cblock covering a sector
// (entries are keyed by starting sector) and the medium table to find the
// range covering an offset.
//
// Elide predicates in this system range over key columns, so within one key
// elision is monotone in sequence number: if a key's newest version is
// elided, every version is. A key whose newest version is elided is
// therefore dead, and GetFloor steps down to the next lower key.
func (p *Pyramid) GetFloor(at sim.Time, prefix []uint64, col uint64) (tuple.Fact, bool, sim.Time, error) {
	// Programmer-error guard, not data validation: prefixes are built by
	// engine code from compiled-in schemas, never from on-disk or replayed
	// bytes, so a mismatch here is a caller bug and panicking is correct.
	// (Contrast Insert's SchemaError, which IS reachable from corrupt data.)
	if len(prefix)+1 != p.cfg.Schema.KeyCols {
		panic("pyramid: GetFloor prefix must cover all but the last key column")
	}
	done := at

	target := col
	for {
		// Per-source floor candidates; the global floor key is their max,
		// and its newest version is the max-seq fact among sources
		// reporting that key.
		var best tuple.Fact
		found := false
		consider := func(f tuple.Fact) {
			if !found {
				best = f
				found = true
				return
			}
			c := tuple.CompareKeys(f.Cols, best.Cols, p.cfg.Schema.KeyCols)
			if c > 0 || (c == 0 && f.Seq > best.Seq) {
				best = f
			}
		}

		// The memtable's buffers are reordered by sorts, so it is searched
		// under the lock; the copy-on-write patch list is snapshotted in
		// the same critical section.
		p.mu.Lock()
		f, ok := floorInMem(p.memViewLocked(), prefix, target)
		patches := p.patches
		p.mu.Unlock()
		if ok {
			consider(f)
		}
		for _, patch := range patches {
			f, ok, d, err := p.floorInPatch(done, patch, prefix, target)
			done = d
			if err != nil {
				return tuple.Fact{}, false, done, err
			}
			if ok {
				consider(f)
			}
		}
		if !found {
			return tuple.Fact{}, false, done, nil
		}
		if !p.elided(best) {
			return best.Clone(), true, done, nil
		}
		// Dead key: step below it and retry.
		c := best.Cols[p.cfg.Schema.KeyCols-1]
		if c == 0 {
			return tuple.Fact{}, false, done, nil
		}
		target = c - 1
	}
}

// floorInMem finds the memtable's floor candidate: the newest version of
// the greatest key ≤ prefix++[col], if that key is within prefix.
func floorInMem(v memView, prefix []uint64, col uint64) (tuple.Fact, bool) {
	tk := append(append([]uint64(nil), prefix...), col)
	var key []uint64
	if i := v.search(v.sorted, tk, true); i > 0 {
		key = v.sorted[i-1].Cols
	}
	for _, f := range v.tail {
		if tuple.CompareKeys(f.Cols, tk, v.k) <= 0 && (key == nil || tuple.CompareKeys(f.Cols, key, v.k) > 0) {
			key = f.Cols
		}
	}
	if key == nil || tuple.CompareKeys(key, prefix, len(prefix)) != 0 {
		return tuple.Fact{}, false
	}
	var buf [4]tuple.Fact
	return v.appendRange(buf[:0], key, key)[0], true
}

// floorInPatch finds the per-source floor candidate within one patch.
func (p *Pyramid) floorInPatch(at sim.Time, patch *Patch, prefix []uint64, col uint64) (tuple.Fact, bool, sim.Time, error) {
	keyCols := p.cfg.Schema.KeyCols
	tk := append(append([]uint64(nil), prefix...), col)
	done := at
	// Last page whose KeyMin ≤ tk; the floor row is there or at the tail
	// of an earlier page (when that page starts above... it cannot: pages
	// ascend, so if page pi's KeyMin > tk every row of pi is > tk).
	pi := sort.Search(len(patch.Pages), func(i int) bool {
		return tuple.CompareKeys(patch.Pages[i].KeyMin, tk, keyCols) > 0
	}) - 1
	for ; pi >= 0; pi-- {
		pg, d, err := p.openPage(done, patch.Pages[pi].Ref)
		done = d
		if err != nil {
			return tuple.Fact{}, false, done, err
		}
		// First row with key > tk: rows before it are ≤ tk.
		var buf []uint64
		ri := sort.Search(pg.RowCount(), func(i int) bool {
			buf = pg.Key(buf[:0], i)
			return tuple.CompareKeys(buf, tk, keyCols) > 0
		})
		if ri == 0 {
			// Entire page is > tk? Cannot happen (KeyMin ≤ tk) unless the
			// page is empty; either way look at the previous page.
			continue
		}
		cand := pg.Fact(ri - 1)
		if tuple.CompareKeys(cand.Cols, prefix, len(prefix)) != 0 {
			return tuple.Fact{}, false, done, nil
		}
		// Newest version = run start; runs never span pages (writePatch
		// keeps each key's versions in one page).
		start := ri - 1
		for start > 0 {
			buf = pg.Key(buf[:0], start-1)
			if tuple.CompareKeys(buf, cand.Cols, keyCols) != 0 {
				break
			}
			start--
		}
		return pg.Fact(start), true, done, nil
	}
	return tuple.Fact{}, false, done, nil
}
