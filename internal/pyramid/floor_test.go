package pyramid

import (
	"testing"

	"purity/internal/elide"
	"purity/internal/sim"
	"purity/internal/tuple"
)

var floorSchema = tuple.Schema{Cols: 4, KeyCols: 2} // (medium, sector) -> (val, extra)

func f4(seq tuple.Seq, med, sector, val uint64) tuple.Fact {
	return tuple.Fact{Seq: seq, Cols: []uint64{med, sector, val, 0}}
}

func newFloorPyramid(t testing.TB, et *elide.Table) *Pyramid {
	t.Helper()
	p, err := New(Config{ID: 9, Name: "floor", Schema: floorSchema, PageRows: 8}, NewMemStore(), et)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func wantFloor(t *testing.T, p *Pyramid, med, col, wantSector, wantVal uint64) {
	t.Helper()
	f, ok, _, err := p.GetFloor(0, []uint64{med}, col)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("GetFloor(%d, %d): not found", med, col)
	}
	if f.Cols[1] != wantSector || f.Cols[2] != wantVal {
		t.Fatalf("GetFloor(%d, %d) = sector %d val %d, want %d/%d", med, col, f.Cols[1], f.Cols[2], wantSector, wantVal)
	}
}

func wantNoFloor(t *testing.T, p *Pyramid, med, col uint64) {
	t.Helper()
	if _, ok, _, _ := p.GetFloor(0, []uint64{med}, col); ok {
		t.Fatalf("GetFloor(%d, %d) found something", med, col)
	}
}

func TestFloorMemtable(t *testing.T) {
	p := newFloorPyramid(t, nil)
	p.Insert([]tuple.Fact{
		f4(1, 5, 0, 100),
		f4(2, 5, 64, 200),
		f4(3, 5, 128, 300),
		f4(4, 6, 10, 999), // other medium
	})
	wantFloor(t, p, 5, 0, 0, 100)
	wantFloor(t, p, 5, 63, 0, 100)
	wantFloor(t, p, 5, 64, 64, 200)
	wantFloor(t, p, 5, 1000, 128, 300)
	wantNoFloor(t, p, 7, 1000)
	// Prefix isolation: medium 6's entry at 10 does not leak into medium 5.
	wantFloor(t, p, 5, 20, 0, 100)
	// Below the lowest entry of medium 6: nothing.
	wantNoFloor(t, p, 6, 9)
}

func TestFloorNewestVersionWins(t *testing.T) {
	p := newFloorPyramid(t, nil)
	p.Insert([]tuple.Fact{f4(1, 1, 100, 111)})
	if _, err := p.Flush(0, 1); err != nil {
		t.Fatal(err)
	}
	p.Insert([]tuple.Fact{f4(2, 1, 100, 222)}) // overwrite in memtable
	wantFloor(t, p, 1, 150, 100, 222)
	if _, err := p.Flush(0, 2); err != nil {
		t.Fatal(err)
	}
	wantFloor(t, p, 1, 150, 100, 222)
}

func TestFloorAcrossPatchesPicksClosestKey(t *testing.T) {
	p := newFloorPyramid(t, nil)
	// Old patch: sector 0. New patch: sector 64. Floor(70) must come from
	// the NEW patch even though the old one also has a candidate.
	p.Insert([]tuple.Fact{f4(1, 1, 0, 10)})
	if _, err := p.Flush(0, 1); err != nil {
		t.Fatal(err)
	}
	p.Insert([]tuple.Fact{f4(2, 1, 64, 20)})
	if _, err := p.Flush(0, 2); err != nil {
		t.Fatal(err)
	}
	wantFloor(t, p, 1, 70, 64, 20)
	wantFloor(t, p, 1, 63, 0, 10)
}

func TestFloorManyPages(t *testing.T) {
	p := newFloorPyramid(t, nil) // 8 rows/page
	var facts []tuple.Fact
	for i := 0; i < 100; i++ {
		facts = append(facts, f4(tuple.Seq(i+1), 1, uint64(i*8), uint64(i)))
	}
	p.Insert(facts)
	if _, err := p.Flush(0, 100); err != nil {
		t.Fatal(err)
	}
	for _, probe := range []uint64{0, 5, 8, 63, 64, 65, 792, 799, 4000} {
		wantIdx := probe / 8
		if wantIdx > 99 {
			wantIdx = 99
		}
		wantFloor(t, p, 1, probe, wantIdx*8, wantIdx)
	}
}

func TestFloorSkipsElidedKeys(t *testing.T) {
	et := elide.NewTable()
	p := newFloorPyramid(t, et)
	p.Insert([]tuple.Fact{
		f4(1, 3, 0, 10),
		f4(2, 3, 50, 20),
		f4(3, 3, 90, 30),
	})
	if _, err := p.Flush(0, 3); err != nil {
		t.Fatal(err)
	}
	// Elide medium 3 entirely as of seq 3... then write a newer entry.
	et.Add(elide.Predicate{Col: 0, Lo: 3, Hi: 3, MaxSeq: 3})
	wantNoFloor(t, p, 3, 1000)
	p.Insert([]tuple.Fact{f4(4, 3, 70, 40)}) // newer than the elide
	wantFloor(t, p, 3, 1000, 70, 40)
	wantFloor(t, p, 3, 71, 70, 40)
	// Below the surviving entry nothing remains.
	wantNoFloor(t, p, 3, 69)
}

func TestFloorElidedStepDown(t *testing.T) {
	// Elide only the upper range; floor must step down to a surviving key.
	et := elide.NewTable()
	p := newFloorPyramid(t, et)
	p.Insert([]tuple.Fact{f4(1, 2, 10, 1), f4(2, 2, 20, 2)})
	if _, err := p.Flush(0, 2); err != nil {
		t.Fatal(err)
	}
	// The elide column here is the SECTOR column (col 1).
	et.Add(elide.Predicate{Col: 1, Lo: 20, Hi: 30, MaxSeq: 10})
	wantFloor(t, p, 2, 25, 10, 1)
}

// TestFloorAgainstModel checks GetFloor against the newest value per
// sector over flushed, merged patches and a memtable in each shape of
// suffixCases.
func TestFloorAgainstModel(t *testing.T) {
	r := sim.NewRand(7)
	p := newFloorPyramid(t, nil)
	model := map[uint64]uint64{} // sector -> val for medium 1
	seq := tuple.Seq(0)
	insert := func(n int) {
		for i := 0; i < n; i++ {
			sector := uint64(r.Intn(500))
			val := uint64(r.Intn(1 << 30))
			seq++
			p.Insert([]tuple.Fact{f4(seq, 1, sector, val)})
			model[sector] = val
		}
	}
	for step := 0; step < 1500; step++ {
		switch r.Intn(8) {
		case 0, 1, 2, 3, 4:
			insert(1)
		case 5, 6:
			if _, err := p.Flush(0, seq); err != nil {
				t.Fatal(err)
			}
		case 7:
			if _, _, err := p.MergeStep(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, sc := range suffixCases {
		for probe := uint64(0); probe < 520; probe += 7 {
			reshapeMem(t, p, sc.n, insert)
			var wantSector uint64
			wantFound := false
			for s := range model {
				if s <= probe && (!wantFound || s > wantSector) {
					wantSector = s
					wantFound = true
				}
			}
			f, ok, _, err := p.GetFloor(0, []uint64{1}, probe)
			if err != nil {
				t.Fatal(err)
			}
			if ok != wantFound {
				t.Fatalf("%s: probe %d: found=%v want %v", sc.name, probe, ok, wantFound)
			}
			if ok && (f.Cols[1] != wantSector || f.Cols[2] != model[wantSector]) {
				t.Fatalf("%s: probe %d: got sector %d val %d, want %d/%d",
					sc.name, probe, f.Cols[1], f.Cols[2], wantSector, model[wantSector])
			}
		}
	}
}
