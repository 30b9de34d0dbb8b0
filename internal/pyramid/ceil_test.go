package pyramid

import (
	"testing"

	"purity/internal/elide"
	"purity/internal/sim"
	"purity/internal/tuple"
)

func wantCeil(t *testing.T, p *Pyramid, med, col, wantSector, wantVal uint64) {
	t.Helper()
	f, ok, _, err := p.GetCeil(0, []uint64{med}, col)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("GetCeil(%d, %d): not found", med, col)
	}
	if f.Cols[1] != wantSector || f.Cols[2] != wantVal {
		t.Fatalf("GetCeil(%d, %d) = sector %d val %d, want %d/%d", med, col, f.Cols[1], f.Cols[2], wantSector, wantVal)
	}
}

func wantNoCeil(t *testing.T, p *Pyramid, med, col uint64) {
	t.Helper()
	if _, ok, _, _ := p.GetCeil(0, []uint64{med}, col); ok {
		t.Fatalf("GetCeil(%d, %d) found something", med, col)
	}
}

func TestCeilBasics(t *testing.T) {
	p := newFloorPyramid(t, nil)
	p.Insert([]tuple.Fact{
		f4(1, 5, 10, 100),
		f4(2, 5, 64, 200),
		f4(3, 6, 0, 999),
	})
	wantCeil(t, p, 5, 0, 10, 100)
	wantCeil(t, p, 5, 10, 10, 100)
	wantCeil(t, p, 5, 11, 64, 200)
	wantCeil(t, p, 5, 64, 64, 200)
	wantNoCeil(t, p, 5, 65)
	wantCeil(t, p, 6, 0, 0, 999)
	wantNoCeil(t, p, 4, 0)
}

func TestCeilAcrossPatches(t *testing.T) {
	p := newFloorPyramid(t, nil)
	p.Insert([]tuple.Fact{f4(1, 1, 100, 10)})
	if _, err := p.Flush(0, 1); err != nil {
		t.Fatal(err)
	}
	p.Insert([]tuple.Fact{f4(2, 1, 50, 20)})
	if _, err := p.Flush(0, 2); err != nil {
		t.Fatal(err)
	}
	wantCeil(t, p, 1, 0, 50, 20)
	wantCeil(t, p, 1, 51, 100, 10)
	// Newest version wins when both patches hold the same key.
	p.Insert([]tuple.Fact{f4(3, 1, 100, 30)})
	wantCeil(t, p, 1, 60, 100, 30)
}

func TestCeilSkipsElided(t *testing.T) {
	et := elide.NewTable()
	p := newFloorPyramid(t, et)
	p.Insert([]tuple.Fact{f4(1, 2, 10, 1), f4(2, 2, 20, 2)})
	et.Add(elide.Predicate{Col: 1, Lo: 10, Hi: 10, MaxSeq: 10})
	wantCeil(t, p, 2, 0, 20, 2)
}

// TestCeilAgainstModel checks GetCeil against the newest value per sector
// over flushed, merged patches and a memtable in each shape of
// suffixCases.
func TestCeilAgainstModel(t *testing.T) {
	r := sim.NewRand(9)
	p := newFloorPyramid(t, nil)
	model := map[uint64]uint64{}
	seq := tuple.Seq(0)
	insert := func(n int) {
		for i := 0; i < n; i++ {
			sector := uint64(r.Intn(400))
			val := uint64(r.Intn(1 << 30))
			seq++
			p.Insert([]tuple.Fact{f4(seq, 1, sector, val)})
			model[sector] = val
		}
	}
	for step := 0; step < 1200; step++ {
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
		for probe := uint64(0); probe < 420; probe += 3 {
			reshapeMem(t, p, sc.n, insert)
			var wantSector uint64
			wantFound := false
			for s := range model {
				if s >= probe && (!wantFound || s < wantSector) {
					wantSector = s
					wantFound = true
				}
			}
			f, ok, _, err := p.GetCeil(0, []uint64{1}, probe)
			if err != nil {
				t.Fatal(err)
			}
			if ok != wantFound {
				t.Fatalf("%s: probe %d: found=%v want %v", sc.name, probe, ok, wantFound)
			}
			if ok && (f.Cols[1] != wantSector || f.Cols[2] != model[wantSector]) {
				t.Fatalf("%s: probe %d: got %d/%d want %d/%d", sc.name, probe, f.Cols[1], f.Cols[2], wantSector, model[wantSector])
			}
		}
	}
}
