package pyramid

import (
	"sort"

	"purity/internal/sim"
	"purity/internal/tuple"
)

// GetCeil is the mirror of GetFloor: the newest non-elided fact whose key is
// prefix++[c] with the smallest c ≥ col. The read path uses it to bound a
// gap — "how far until the next address-map entry shadows the underlying
// medium".
func (p *Pyramid) GetCeil(at sim.Time, prefix []uint64, col uint64) (tuple.Fact, bool, sim.Time, error) {
	// Programmer-error guard, not data validation: prefixes are built by
	// engine code from compiled-in schemas, never from on-disk or replayed
	// bytes, so a mismatch here is a caller bug and panicking is correct.
	// (Contrast Insert's SchemaError, which IS reachable from corrupt data.)
	if len(prefix)+1 != p.cfg.Schema.KeyCols {
		panic("pyramid: GetCeil prefix must cover all but the last key column")
	}
	done := at

	target := col
	for {
		var best tuple.Fact
		found := false
		consider := func(f tuple.Fact) {
			if !found {
				best = f
				found = true
				return
			}
			c := tuple.CompareKeys(f.Cols, best.Cols, p.cfg.Schema.KeyCols)
			if c < 0 || (c == 0 && f.Seq > best.Seq) {
				best = f
			}
		}
		// The memtable is sorted in place and its buffers are reused, so it
		// is searched under the lock; the copy-on-write patch list is
		// snapshotted in the same critical section.
		p.mu.Lock()
		p.sortMemLocked()
		f, ok := ceilInMem(p.mem, prefix, target, p.cfg.Schema.KeyCols)
		patches := p.patches
		p.mu.Unlock()
		if ok {
			consider(f)
		}
		for _, patch := range patches {
			f, ok, d, err := p.ceilInPatch(done, patch, prefix, target)
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
		c := best.Cols[p.cfg.Schema.KeyCols-1]
		if c == ^uint64(0) {
			return tuple.Fact{}, false, done, nil
		}
		target = c + 1
	}
}

func ceilInMem(mem []tuple.Fact, prefix []uint64, col uint64, keyCols int) (tuple.Fact, bool) {
	tk := append(append([]uint64(nil), prefix...), col)
	idx := sort.Search(len(mem), func(i int) bool {
		return tuple.CompareKeys(mem[i].Cols, tk, keyCols) >= 0
	})
	if idx == len(mem) {
		return tuple.Fact{}, false
	}
	cand := mem[idx]
	if tuple.CompareKeys(cand.Cols, prefix, len(prefix)) != 0 {
		return tuple.Fact{}, false
	}
	// idx is the run start of its key (key asc, seq desc): newest version.
	return cand, true
}

func (p *Pyramid) ceilInPatch(at sim.Time, patch *Patch, prefix []uint64, col uint64) (tuple.Fact, bool, sim.Time, error) {
	keyCols := p.cfg.Schema.KeyCols
	tk := append(append([]uint64(nil), prefix...), col)
	done := at
	// Last page with KeyMin ≤ tk could contain the ceiling; if not, the
	// next page's first row is it.
	pi := sort.Search(len(patch.Pages), func(i int) bool {
		return tuple.CompareKeys(patch.Pages[i].KeyMin, tk, keyCols) > 0
	}) - 1
	if pi < 0 {
		pi = 0
	}
	for ; pi < len(patch.Pages); pi++ {
		pg, d, err := p.openPage(done, patch.Pages[pi].Ref)
		done = d
		if err != nil {
			return tuple.Fact{}, false, done, err
		}
		ri := pg.FirstGE(tk)
		if ri == pg.RowCount() {
			continue // ceiling is in a later page
		}
		cand := pg.Fact(ri)
		if tuple.CompareKeys(cand.Cols, prefix, len(prefix)) != 0 {
			return tuple.Fact{}, false, done, nil
		}
		return cand, true, done, nil
	}
	return tuple.Fact{}, false, done, nil
}
