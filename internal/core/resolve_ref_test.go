package core

import (
	"testing"

	"purity/internal/medium"
	"purity/internal/relation"
	"purity/internal/sim"
	"purity/internal/tuple"
)

// addrCoveringRef is the reference covering lookup: a ScanVersions merge of
// every address-map version keyed in (sector-MaxCBlockSectors, sector],
// keeping the first highest-seq entry that reaches the sector and whose
// storage is valid. AddrCovering must agree with it. Caller holds mu.
func (a *Array) addrCoveringRef(med, sector uint64) (relation.AddrRow, bool, error) {
	lo := uint64(0)
	if sector >= medium.MaxCBlockSectors-1 {
		lo = sector - (medium.MaxCBlockSectors - 1)
	}
	var best relation.AddrRow
	var bestSeq tuple.Seq
	found := false
	_, err := a.pyr[relation.IDAddrs].ScanVersions(0,
		[]uint64{med, lo}, []uint64{med, sector},
		func(f tuple.Fact) bool {
			r := relation.AddrFromFact(f)
			if r.Sector+r.Sectors > sector && (!found || f.Seq > bestSeq) && a.addrValidLocked(r) {
				best, bestSeq, found = r, f.Seq, true
			}
			return true
		})
	return best, found, err
}

// checkCoveringAgainstRef asserts AddrCovering agrees with the reference
// for every sector of each volume's medium, and returns how many sectors
// resolved to an entry.
func checkCoveringAgainstRef(t *testing.T, a *Array, vols ...VolumeID) int {
	t.Helper()
	a.mu.Lock()
	defer a.mu.Unlock()
	covered := 0
	for _, vol := range vols {
		row, _, err := a.volumeLocked(0, vol)
		if err != nil {
			t.Fatal(err)
		}
		for s := uint64(0); s < row.SizeSectors; s++ {
			want, wantOK, err := a.addrCoveringRef(row.Medium, s)
			if err != nil {
				t.Fatal(err)
			}
			got, ok, _, err := (*lookupAdapter)(a).AddrCovering(0, row.Medium, s)
			if err != nil {
				t.Fatal(err)
			}
			if ok != wantOK || got != want {
				t.Fatalf("volume %d medium %d sector %d: AddrCovering = %+v %v, reference %+v %v",
					vol, row.Medium, s, got, ok, want, wantOK)
			}
			if ok {
				covered++
			}
		}
	}
	return covered
}

// TestAddrCoveringMatchesReference checks the newest-first covering lookup
// against the version-merging reference after random overwrites, after a
// snapshot and clone, and after crash recovery from a checkpoint followed
// by pyramid flushes. Recovery re-places every payload logged since the
// checkpoint as an equal-seq fact in the memtable, beside the flushed
// patch's copy at the old address, and the memtable copy must win the
// tie. (A patch copy whose segment the crash lost is rejected by
// addrValidLocked; the pyramid's TestNewestMatchesBruteForce and the crash
// sweep cover that case.)
func TestAddrCoveringMatchesReference(t *testing.T) {
	cfg := TestConfig()
	cfg.CheckpointEvery = 1 << 20 // only FlushAll checkpoints
	cfg.MemtableFlushRows = 64    // background steps flush between them
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const volBytes = 4 << 20
	vol := mustCreate(t, a, "v", volBytes)
	r := sim.NewRand(14)
	overwrite := func(n, maxBytes int) {
		for i := 0; i < n; i++ {
			size := (1 + r.Intn(maxBytes/512)) * 512
			off := int64(r.Intn((volBytes-size)/512)) * 512
			mustWrite(t, a, vol, off, pattern(r.Uint64(), size))
		}
	}

	overwrite(300, 32<<10)
	if checkCoveringAgainstRef(t, a, vol) == 0 {
		t.Fatal("no sector resolved to an entry")
	}

	snap, _, err := a.Snapshot(0, vol, "s")
	if err != nil {
		t.Fatal(err)
	}
	clone, _, err := a.Clone(0, snap, "c")
	if err != nil {
		t.Fatal(err)
	}
	overwrite(100, 32<<10)
	if _, err := a.WriteAt(0, clone, 64<<10, pattern(99, 96<<10)); err != nil {
		t.Fatal(err)
	}
	checkCoveringAgainstRef(t, a, vol, snap, clone)

	if _, err := a.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	// The writes fill the address memtable past MemtableFlushRows, so
	// background steps flush it into patches between checkpoints; enough
	// of them seal a metadata segment, so a flushed patch survives the
	// crash (fewer than ~170 here leave none).
	overwrite(200, 64<<10)
	a2, _, err := OpenAt(cfg, a.Shelf(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if checkCoveringAgainstRef(t, a2, vol, snap, clone) == 0 {
		t.Fatal("no sector resolved to an entry after recovery")
	}

	// The case must actually arise: some fact has an equal-seq copy at the
	// same key in both the memtable and a patch, the patch copy stale.
	a2.mu.Lock()
	defer a2.mu.Unlock()
	type version struct {
		seq tuple.Seq
		med uint64
		sec uint64
	}
	seen := map[version]int{}
	dups := 0
	if _, err := a2.pyr[relation.IDAddrs].ScanVersions(0, nil, nil, func(f tuple.Fact) bool {
		row := relation.AddrFromFact(f)
		v := version{f.Seq, row.Medium, row.Sector}
		if seen[v]++; seen[v] == 2 {
			dups++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if dups == 0 {
		t.Fatal("no equal-seq copy beside a flushed patch: the recovery case went untested")
	}
}
