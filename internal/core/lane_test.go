package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"purity/internal/cblock"
	"purity/internal/crashpoint"
	"purity/internal/dedup"
	"purity/internal/layout"
	"purity/internal/relation"
	"purity/internal/sim"
)

// The lane tests exercise the sharded commit path (Config.CommitLanes > 1)
// the same way the serial concurrent tests do: many goroutines, a flat
// byte model, then crash-recovery and byte-for-byte verification. Run
// under -race by scripts/check.sh.

func laneTestConfig(lanes int) Config {
	cfg := TestConfig()
	cfg.CommitLanes = lanes
	cfg.Shelf.DriveConfig.Capacity = 200 * cfg.Layout.AUSize()
	return cfg
}

// TestLaneWritersSharedContent: 8 writers on 8 volumes across 4 lanes,
// drawing most payloads from a shared pool so lanes constantly race on
// the same dedup content — the recent index's stripes, the candidate
// search, and cross-lane dedup references all get hit at once.
func TestLaneWritersSharedContent(t *testing.T) {
	const (
		writers = 8
		volSize = int64(1 << 20)
		writes  = 120
	)
	cfg := laneTestConfig(4)
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The shared pool: identical multi-sector payloads every writer keeps
	// re-writing, so duplicate runs appear across volumes (and so lanes).
	pool := make([][]byte, 16)
	for i := range pool {
		pool[i] = pattern(uint64(7000+i), (i%4+1)*8*512)
	}
	vols := make([]VolumeID, writers)
	models := make([][]byte, writers)
	for i := range vols {
		vols[i] = mustCreate(t, a, fmt.Sprintf("lane-%d", i), volSize)
		models[i] = make([]byte, volSize)
	}
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := sim.NewRand(uint64(i + 1))
			now := sim.Time(0)
			model := models[i]
			for j := 0; j < writes; j++ {
				var data []byte
				if r.Intn(10) < 7 {
					data = pool[r.Intn(len(pool))]
				} else {
					data = pattern(uint64(i)*1_000_000+uint64(j), (r.Intn(24)+1)*512)
				}
				off := int64(r.Intn(int(volSize/512)-len(data)/512)) * 512
				d, err := a.WriteAt(now, vols[i], off, data)
				if err != nil {
					t.Errorf("writer %d write %d: %v", i, j, err)
					return
				}
				now = d
				copy(model[off:], data)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	lt := a.LaneTelemetry()
	var commits int64
	for _, ls := range lt.Lanes {
		commits += ls.Commits
	}
	if commits != int64(writers*writes) {
		t.Fatalf("lane commits = %d, want %d", commits, writers*writes)
	}
	if lt.MaxQueueDepth < 1 {
		t.Fatalf("committer max queue depth = %d, want >= 1", lt.MaxQueueDepth)
	}

	// Crash: reopen from the shared shelf and verify every volume.
	a2, _, err := OpenAt(cfg, a.Shelf(), 0, false)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	for i, vol := range vols {
		got, _, err := a2.ReadAt(0, vol, 0, int(volSize))
		if err != nil {
			t.Fatalf("vol %d: read after recovery: %v", i, err)
		}
		if !bytes.Equal(got, models[i]) {
			for j := range got {
				if got[j] != models[i][j] {
					t.Fatalf("vol %d: first mismatch at byte %d (sector %d)", i, j, j/512)
				}
			}
		}
	}
}

// TestLaneWritersOneVolumeWithGC: 8 goroutines hammer disjoint regions of
// one volume (one lane takes all commits — the group committer and lane
// mutex serialize them) while GC runs concurrently, exercising the world
// lock's exclusive/shared handoff under load.
func TestLaneWritersOneVolumeWithGC(t *testing.T) {
	const (
		writers   = 8
		regionLen = int64(256 << 10)
		writes    = 60
	)
	volSize := regionLen * writers
	cfg := laneTestConfig(4)
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vol := mustCreate(t, a, "shared", volSize)
	model := make([]byte, volSize)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			off := int64(i) * regionLen
			concurrentWriter(t, a, vol, uint64(i+1), off, regionLen, model[off:off+regionLen], writes)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 3; j++ {
			if _, _, err := a.RunGC(0); err != nil {
				t.Errorf("gc: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	got, _, err := a.ReadAt(0, vol, 0, int(volSize))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, model) {
		t.Fatal("live state diverged from model")
	}
	a2, _, err := OpenAt(cfg, a.Shelf(), 0, false)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	got, _, err = a2.ReadAt(0, vol, 0, int(volSize))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, model) {
		for j := range got {
			if got[j] != model[j] {
				t.Fatalf("after recovery: first mismatch at byte %d (sector %d)", j, j/512)
			}
		}
	}
}

// TestLaneCrashBetweenCommitAndApply powers off in the lane path's unique
// window: the batched NVRAM commit has completed but the facts have not
// been applied to the pyramids. The write was durable at the commit
// point, so after recovery it MUST be present — replay, not the apply,
// is what the ack stands on.
func TestLaneCrashBetweenCommitAndApply(t *testing.T) {
	reg := crashpoint.New()
	cfg := laneTestConfig(2)
	cfg.Crash = reg
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := a.Shelf()
	vol, now, err := a.CreateVolume(0, "v", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	warm := pattern(11, 16*512)
	if now, err = a.WriteAt(now, vol, 0, warm); err != nil {
		t.Fatal(err)
	}

	inflight := pattern(12, 24*512)
	reg.ResetCounts() // the warm write already passed the point once
	reg.Arm("lane.apply.before", 1)
	crashed := false
	func() {
		defer func() {
			if v := recover(); v != nil {
				if c, ok := crashpoint.AsCrash(v); ok && c.Point == "lane.apply.before" {
					crashed = true
					return
				}
				panic(v)
			}
		}()
		_, err := a.WriteAt(now, vol, 64*512, inflight)
		t.Errorf("write returned (err=%v) instead of crashing", err)
	}()
	if !crashed {
		t.Fatal("lane.apply.before did not fire")
	}

	a2, _, err := OpenAt(cfg, sh, now, false)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	got, _, err := a2.ReadAt(now, vol, 0, 16*512)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, warm) {
		t.Fatal("acknowledged pre-crash write lost")
	}
	got, _, err = a2.ReadAt(now, vol, 64*512, 24*512)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, inflight) {
		t.Fatal("write durable in NVRAM before the crash was not replayed")
	}
}

// TestLaneTelemetryCounters checks the observability surface directly:
// commits route by volume % lanes, queue waits and batch records account
// for every committed record, and FlushAll seals the lanes' open
// segments so a clean shutdown leaves nothing pending.
func TestLaneTelemetryCounters(t *testing.T) {
	cfg := laneTestConfig(2)
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v1 := mustCreate(t, a, "a", 1<<20) // volume IDs are dense from 1
	v2 := mustCreate(t, a, "b", 1<<20)
	now := sim.Time(0)
	for i := 0; i < 10; i++ {
		if now, err = a.WriteAt(now, v1, int64(i)*4096, pattern(uint64(i), 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if now, err = a.WriteAt(now, v2, 0, pattern(99, 4096)); err != nil {
		t.Fatal(err)
	}
	lt := a.LaneTelemetry()
	if len(lt.Lanes) != 2 {
		t.Fatalf("lanes = %d, want 2", len(lt.Lanes))
	}
	lane1 := lt.Lanes[uint64(v1)%2]
	lane2 := lt.Lanes[uint64(v2)%2]
	if lane1.Commits != 10 || lane2.Commits != 1 {
		t.Fatalf("commit routing: lane[v1]=%d lane[v2]=%d, want 10 and 1", lane1.Commits, lane2.Commits)
	}
	var batched int64
	for _, ls := range lt.Lanes {
		batched += ls.BatchRecords
	}
	if batched != 11 {
		t.Fatalf("batch records = %d, want 11", batched)
	}
	if _, err := a.FlushAll(now); err != nil {
		t.Fatal(err)
	}
	for _, ln := range a.lanes {
		ln.mu.Lock()
		open := ln.open != nil
		ln.mu.Unlock()
		if open {
			t.Fatal("lane still holds an open segment after FlushAll")
		}
	}
}

// addrAt returns the newest address fact covering a volume sector.
func addrAt(t *testing.T, a *Array, vol VolumeID, sector uint64) relation.AddrRow {
	t.Helper()
	a.mu.Lock()
	defer a.mu.Unlock()
	row, now, err := a.volumeLocked(0, vol)
	if err != nil {
		t.Fatal(err)
	}
	r, ok, _, err := (*lookupAdapter)(a).AddrCovering(now, row.Medium, sector)
	if err != nil || !ok {
		t.Fatalf("no address for vol %d sector %d: %v", vol, sector, err)
	}
	return r
}

// TestLaneTemplateDedupsOnceFirstCopySeals: a template written on one lane
// and rewritten on another while the first copy's segment is still open
// misses dedup (an open segment cannot be referenced) and stores a second
// copy on the other lane. Once the first lane's segment seals, rewrites on
// either lane must deduplicate against that first copy, even though the
// second copy sits in a segment that is still open — the recent index
// keeps the first candidate instead of chasing the newest, unsealed one.
func TestLaneTemplateDedupsOnceFirstCopySeals(t *testing.T) {
	a, err := Format(laneTestConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	v0 := mustCreate(t, a, "a", 4<<20)
	v1 := mustCreate(t, a, "b", 4<<20)
	if a.laneFor(v0) == a.laneFor(v1) {
		t.Fatal("volumes share a lane")
	}
	const io = 32 << 10
	tpl := pattern(4242, io)
	now := sim.Time(0)
	write := func(vol VolumeID, off int64, data []byte) {
		t.Helper()
		if now, err = a.WriteAt(now, vol, off, data); err != nil {
			t.Fatal(err)
		}
	}
	write(v0, 0, tpl) // first copy: v0's lane, open segment
	write(v1, 0, tpl) // unsealed candidate: misses, second copy on v1's lane
	ln0 := a.laneFor(v0)
	for i := int64(1); ln0.rotations.Load() == 0; i++ {
		if i > 64 {
			t.Fatal("v0's lane never rotated its segment")
		}
		write(v0, i*io, pattern(uint64(9000+i), io))
	}
	if open, ok := a.laneFor(v1).openInfo(layout.SegmentID(addrAt(t, a, v1, 0).Segment)); !ok || open.Sealed {
		t.Fatal("the second copy's segment should still be open")
	}

	hits := a.Stats().DedupHits
	const rewrites = 6
	for i := int64(0); i < rewrites; i++ {
		vol := v0
		if i%2 == 1 {
			vol = v1
		}
		write(vol, (80+i)*io, tpl)
	}
	if got := a.Stats().DedupHits - hits; got != rewrites {
		t.Fatalf("%d of %d template rewrites deduplicated after the first copy sealed", got, rewrites)
	}
	first := addrAt(t, a, v0, 0)
	for i := int64(0); i < rewrites; i++ {
		vol := v0
		if i%2 == 1 {
			vol = v1
		}
		r := addrAt(t, a, vol, uint64((80+i)*io/cblock.SectorSize))
		if r.Flags&relation.AddrFlagDedup == 0 || r.Segment != first.Segment || r.SegOff != first.SegOff {
			t.Fatalf("rewrite %d maps to %+v, want a dedup reference to the first copy %+v", i, r, first)
		}
		if got := mustRead(t, a, vol, (80+i)*io, io); !bytes.Equal(got, tpl) {
			t.Fatalf("rewrite %d reads back wrong bytes", i)
		}
	}
}

// TestLaneMispredictedExtentIsPacked: prepare skips compressing an extent
// whose first block hash is in the recent index. When the commit path then
// finds no usable duplicate — the candidate's segment is still open, or
// only the first block matches — it must pack the extent itself, storing
// the same frame prepare would have, on the lane path and the serial path.
func TestLaneMispredictedExtentIsPacked(t *testing.T) {
	const io = 32 << 10
	for _, lanes := range []int{1, 2} {
		a, err := Format(laneTestConfig(lanes))
		if err != nil {
			t.Fatal(err)
		}
		vol := mustCreate(t, a, "v", 4<<20)
		base := pattern(77, io)
		unsealed := bytes.Clone(base) // same bytes, candidate not yet sealed
		headOnly := pattern(78, io)   // only block 0 matches
		copy(headOnly, base[:cblock.SectorSize])
		now := mustWrite(t, a, vol, 0, base)
		for i, data := range [][]byte{unsealed, headOnly} {
			prep, err := a.prepareWrite(0, data)
			if err != nil {
				t.Fatal(err)
			}
			if prep[0].frame != nil {
				t.Fatalf("lanes=%d case %d: prepare packed an extent the recent index predicted as duplicate", lanes, i)
			}
			off := int64(i+1) * io
			hits := a.Stats().DedupHits
			if now, err = a.WriteAt(now, vol, off, data); err != nil {
				t.Fatal(err)
			}
			if a.Stats().DedupHits != hits {
				t.Fatalf("lanes=%d case %d: deduplicated, want a literal write", lanes, i)
			}
			want, err := cblock.Pack(data, a.cfg.CompressionEnabled)
			if err != nil {
				t.Fatal(err)
			}
			r := addrAt(t, a, vol, uint64(off/cblock.SectorSize))
			if r.Flags&relation.AddrFlagDedup != 0 || r.PhysLen != uint64(len(want)) {
				t.Fatalf("lanes=%d case %d: stored %+v, want a literal of PhysLen %d", lanes, i, r, len(want))
			}
			if got := mustRead(t, a, vol, off, io); !bytes.Equal(got, data) {
				t.Fatalf("lanes=%d case %d: read back wrong bytes", lanes, i)
			}
		}
	}
}

// TestLaneDedupHitRefreshesRecentIndex: once a template's hashes have aged
// out of the recent index, a rewrite still deduplicates through the
// sampled persistent index, and the verified run puts every block of the
// template back into the recent index at its position in the stored copy.
func TestLaneDedupHitRefreshesRecentIndex(t *testing.T) {
	cfg := laneTestConfig(2)
	cfg.RecentIndexSize = 256
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vol := mustCreate(t, a, "v", 4<<20)
	const io = 32 << 10
	// Uniformly random bytes: the index stripes by the low hash bits, and
	// pattern's repeated words would crowd a few stripes.
	random := func(seed uint64) []byte {
		b := make([]byte, io)
		sim.NewRand(seed).Bytes(b)
		return b
	}
	tpl := random(5150)
	hashes := dedup.HashBlocks(tpl)
	now := mustWrite(t, a, vol, 0, tpl)
	if now, err = a.FlushAll(now); err != nil {
		t.Fatal(err)
	}
	stored := addrAt(t, a, vol, 0)
	for i := int64(1); i <= 16; i++ {
		if now, err = a.WriteAt(now, vol, i*io, random(uint64(6000+i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range hashes {
		if _, ok := a.recent.Lookup(h); ok {
			t.Fatal("template hash survived the churn; the index is too large for this test")
		}
	}
	hits := a.Stats().DedupHits
	if _, err = a.WriteAt(now, vol, 40*io, tpl); err != nil {
		t.Fatal(err)
	}
	if a.Stats().DedupHits != hits+1 {
		t.Fatal("template rewrite did not deduplicate")
	}
	for j, h := range hashes {
		c, ok := a.recent.Lookup(h)
		want := dedup.Candidate{Segment: stored.Segment, SegOff: stored.SegOff, PhysLen: stored.PhysLen, SectorIdx: uint64(j)}
		if !ok || c != want {
			t.Fatalf("block %d: recent index holds %+v,%v, want %+v", j, c, ok, want)
		}
	}
}
