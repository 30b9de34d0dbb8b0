package core

import (
	"errors"
	"fmt"

	"purity/internal/cblock"
	"purity/internal/dedup"
	"purity/internal/layout"
	"purity/internal/relation"
	"purity/internal/sim"
	"purity/internal/tuple"
)

// The write path is split into two halves so parallel clients only
// serialize on the work that truly needs ordering (§3.2: monotonic facts
// need "almost no cross-core synchronization"):
//
//   1. prepareWrite — pure CPU, no engine lock: split into cblock extents,
//      hash each extent's 512 B blocks (dedup.HashBlocks) and compress it
//      (cblock.Pack) unless its first block hash is already in the recent
//      index, i.e. the extent will most likely deduplicate and its frame
//      would be thrown away. Extents fan out across the shared worker pool.
//   2. commitWriteLocked — under mu: volume lookup, dedup candidate search
//      (it reads the index and segments), sequence allocation, segment
//      placement, the NVRAM commit, and fact application. An extent that
//      prepare guessed would deduplicate but did not is packed here.
//
// Both halves are deterministic in what they store: the recent-index probe
// in stage 1 only decides *where* an extent is packed, and Pack is a pure
// function of the payload, so the bytes that reach flash are a function of
// the data alone; stage 2 runs serially in commit order, so a sequential
// caller gets bit-for-bit the behavior of the old single-lock path
// (DESIGN.md invariant 8).

// preparedExtent is one cblock-sized extent of a write after its pure-CPU
// stages: the hash of every 512 B block and, unless the extent is expected
// to deduplicate, the packed (compressed) frame for the whole extent.
// Hashes are per-block, so any sub-range of the extent reuses a slice of
// them; the frame only serves the whole-extent literal case (a dedup hit
// packs the literal remainder, which is smaller, and a nil frame is packed
// at commit if the extent turns out literal after all).
type preparedExtent struct {
	sectorOff uint64 // sector offset within the write
	part      []byte
	frame     []byte
	hashes    []uint64
}

// prepareWrite validates alignment and runs the lock-free CPU stages. The
// recent index is striped and safe to probe without the engine lock.
func (a *Array) prepareWrite(off int64, data []byte) ([]preparedExtent, error) {
	if off%cblock.SectorSize != 0 || len(data)%cblock.SectorSize != 0 || len(data) == 0 {
		return nil, ErrUnaligned
	}
	exts, err := cblock.SplitWrite(len(data))
	if err != nil {
		return nil, err
	}
	prep := make([]preparedExtent, len(exts))
	errs := make([]error, len(exts))
	tasks := make([]func(), len(exts))
	for i, ext := range exts {
		i, ext := i, ext
		tasks[i] = func() {
			part := data[ext.Offset : ext.Offset+ext.Len]
			pe := preparedExtent{
				sectorOff: uint64(ext.Offset) / cblock.SectorSize,
				part:      part,
				hashes:    dedup.HashBlocks(part),
			}
			// An extent whose first block is in the recent index will most
			// likely deduplicate: leave its frame to the commit path, which
			// packs it only if the guess was wrong.
			likelyDup := false
			if a.cfg.DedupEnabled {
				_, likelyDup = a.recent.Lookup(pe.hashes[0])
			}
			if !likelyDup {
				pe.frame, errs[i] = cblock.Pack(part, a.cfg.CompressionEnabled)
			}
			prep[i] = pe
		}
	}
	a.pool.Run(tasks...)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return prep, nil
}

// WriteAt writes data to a volume at a byte offset (both sector-aligned).
// The write is acknowledged when its facts and payloads are durable in
// NVRAM; segment placement happens in the same call but does not gate the
// returned completion time — this is the paper's commit path (Figure 4).
// Safe for concurrent callers: compression and hashing run before the
// engine lock is taken.
func (a *Array) WriteAt(at sim.Time, vol VolumeID, off int64, data []byte) (sim.Time, error) {
	prep, err := a.prepareWrite(off, data)
	if err != nil {
		return at, err
	}
	if a.laneMode() {
		return a.commitWriteLane(at, vol, off, data, prep)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.commitWriteLocked(at, vol, off, data, prep)
}

// commitWriteLocked is the serial half of a write: everything that orders
// state. Caller holds mu.
func (a *Array) commitWriteLocked(at sim.Time, vol VolumeID, off int64, data []byte, prep []preparedExtent) (sim.Time, error) {
	row, done, err := a.volumeLocked(at, vol)
	if err != nil {
		return done, err
	}
	if row.State == relation.VolumeSnapshot {
		return done, fmt.Errorf("core: volume %d is a read-only snapshot", vol)
	}
	startSector := uint64(off) / cblock.SectorSize
	if startSector+uint64(len(data))/cblock.SectorSize > row.SizeSectors {
		return done, ErrOutOfRange
	}

	var chunks []writeChunk
	var physical, deduped int64
	for _, pe := range prep {
		sector := startSector + pe.sectorOff
		cs, d, err := a.placeCBlockLocked(done, row.Medium, sector, pe)
		done = d
		if err != nil {
			return done, err
		}
		for _, ch := range cs {
			chunks = append(chunks, ch)
			if ch.payload != nil {
				physical += int64(relation.AddrFromFact(ch.addr).PhysLen)
			} else {
				deduped += int64(relation.AddrFromFact(ch.addr).Sectors) * cblock.SectorSize
			}
		}
	}

	// Commit: one NVRAM record for the whole write.
	done, err = a.nvramAppendLocked(done, encodeWriteRecord(chunks))
	if err != nil {
		return done, err
	}
	cpuCost := sim.Time(a.cfg.CPUOverhead + a.cfg.CPUPerKiBWrite*int64(len(data))/1024)
	ackAt := a.cpuLocked(done, cpuCost)

	for _, ch := range chunks {
		if err := a.applyFactsLocked(relation.IDAddrs, []tuple.Fact{ch.addr}); err != nil {
			return ackAt, err
		}
		if len(ch.dedup) > 0 {
			if err := a.applyFactsLocked(relation.IDDedup, ch.dedup); err != nil {
				return ackAt, err
			}
		}
	}
	a.persistedSeq = a.seqs.Current()

	a.stats.Writes++
	a.stats.WriteLatency.Record(ackAt - at)
	a.stats.Reduction.AddWrite(int64(len(data)), physical, deduped)

	if _, err := a.maybeBackgroundLocked(done); err != nil {
		return ackAt, err
	}
	return ackAt, nil
}

// placeCBlockLocked turns one prepared extent of a write into chunks: a
// deduplicated run referencing existing data, plus literal cblocks that are
// appended to the data segment. Caller holds mu.
func (a *Array) placeCBlockLocked(at sim.Time, medium, sector uint64, pe preparedExtent) ([]writeChunk, sim.Time, error) {
	done := at
	part := pe.part
	if a.cfg.DedupEnabled {
		run, d, found := a.findDuplicateLocked(done, part, pe.hashes)
		done = d
		if found && (run.Count >= a.cfg.DedupMinRunBlocks || run.Count == len(part)/cblock.SectorSize) {
			a.stats.DedupHits++
			a.stats.InlineDupBlocks += int64(run.Count)
			var chunks []writeChunk
			// Literal prefix. The whole-extent frame does not cover a
			// sub-range, so the remainder is packed here (under mu — dedup
			// hits are the already-cheap path) with its hash slice reused.
			if run.Start > 0 {
				cs, d, err := a.literalChunkLocked(done, medium, sector,
					part[:run.Start*cblock.SectorSize], nil, pe.hashes[:run.Start])
				done = d
				if err != nil {
					return nil, done, err
				}
				chunks = append(chunks, cs)
			}
			// The duplicate run: a mapping into existing data, no new bytes.
			chunks = append(chunks, writeChunk{addr: relation.AddrRow{
				Medium:  medium,
				Sector:  sector + uint64(run.Start),
				Segment: run.Cand.Segment,
				SegOff:  run.Cand.SegOff,
				PhysLen: run.Cand.PhysLen,
				Inner:   uint64(run.CandStart),
				Sectors: uint64(run.Count),
				Flags:   relation.AddrFlagDedup,
			}.Fact(a.seqs.Next())})
			// Literal suffix.
			if end := run.Start + run.Count; end < len(part)/cblock.SectorSize {
				cs, d, err := a.literalChunkLocked(done, medium, sector+uint64(end),
					part[end*cblock.SectorSize:], nil, pe.hashes[end:])
				done = d
				if err != nil {
					return nil, done, err
				}
				chunks = append(chunks, cs)
			}
			return chunks, done, nil
		}
		a.stats.DedupMisses++
	}
	cs, d, err := a.literalChunkLocked(done, medium, sector, part, pe.frame, pe.hashes)
	if err != nil {
		return nil, d, err
	}
	return []writeChunk{cs}, d, nil
}

// literalChunkLocked places new data, producing its address fact and
// sampled dedup facts. frame is the pre-packed cblock for part (packed here
// when nil); hashes are part's per-block hashes, computed exactly once per
// extent in prepareWrite and threaded through. Caller holds mu.
func (a *Array) literalChunkLocked(at sim.Time, medium, sector uint64, part, frame []byte, hashes []uint64) (writeChunk, sim.Time, error) {
	if frame == nil {
		var err error
		frame, err = cblock.Pack(part, a.cfg.CompressionEnabled)
		if err != nil {
			return writeChunk{}, at, err
		}
	}
	// The segio append may trigger a background flush; its completion time
	// advances the drives' busy state but must not gate this write's
	// acknowledgement — the commit path acks at NVRAM persistence
	// (Figure 4), and the segio write-back is asynchronous.
	seg, segOff, _, err := a.appendDataLocked(at, classData, frame)
	done := at
	if err != nil {
		return writeChunk{}, done, err
	}
	sectors := uint64(len(part)) / cblock.SectorSize
	ch := writeChunk{
		addr: relation.AddrRow{
			Medium: medium, Sector: sector,
			Segment: uint64(seg), SegOff: uint64(segOff), PhysLen: uint64(len(frame)),
			Sectors: sectors,
		}.Fact(a.seqs.Next()),
		payload: part,
	}
	a.liveBytes[seg] += int64(len(frame))

	// Record a sample of the block hashes persistently, everything recently.
	for i, h := range hashes {
		cand := dedup.Candidate{Segment: uint64(seg), SegOff: uint64(segOff), PhysLen: uint64(len(frame)), SectorIdx: uint64(i)}
		a.recent.Add(h, cand)
		if a.cfg.DedupEnabled && dedup.ShouldRecord(i, a.cfg.DedupSampling) {
			ch.dedup = append(ch.dedup, relation.DedupRow{
				Hash: h, Segment: cand.Segment, SegOff: cand.SegOff,
				PhysLen: cand.PhysLen, SectorIdx: cand.SectorIdx,
			}.Fact(a.seqs.Next()))
		}
	}
	return ch, done, nil
}

// findDuplicateLocked looks every block hash up in the recent index and the
// persistent dedup relation, byte-verifies the first candidate that pans
// out, and extends it into a run (§4.7). hashes are part's precomputed
// block hashes. A recent-index candidate that fails verification for any
// reason but an unsealed segment is forgotten; an unsealed one is kept,
// because it becomes referenceable once its segment seals. The blocks of a
// verified run are re-added at their candidate positions, so frequently
// deduplicated data stays in the recent index after FIFO eviction. Caller
// holds mu.
func (a *Array) findDuplicateLocked(at sim.Time, part []byte, hashes []uint64) (dedup.Run, sim.Time, bool) {
	done := at
	unsealed := false
	fetch := func(c dedup.Candidate) ([]byte, bool) {
		sectors, d, err := a.fetchDurableCBlockLocked(done, c.Segment, c.SegOff, int(c.PhysLen))
		done = d
		unsealed = errors.Is(err, errUnsealed)
		if err != nil {
			return nil, false
		}
		return sectors, true
	}
	found := func(run dedup.Run) (dedup.Run, sim.Time, bool) {
		for j := 0; j < run.Count; j++ {
			c := run.Cand
			c.SectorIdx = uint64(run.CandStart + j)
			a.recent.Add(hashes[run.Start+j], c)
		}
		return run, done, true
	}
	for i, h := range hashes {
		if cand, ok := a.recent.Lookup(h); ok {
			if run, ok := dedup.ExtendAnchor(part, i, cand, fetch); ok {
				return found(run)
			}
			if !unsealed {
				a.recent.Forget(h, cand)
			}
		}
		f, ok, d, err := a.pyr[relation.IDDedup].Get(done, []uint64{h})
		done = d
		if err != nil || !ok {
			continue
		}
		row := relation.DedupFromFact(f)
		cand := dedup.Candidate{Segment: row.Segment, SegOff: row.SegOff, PhysLen: row.PhysLen, SectorIdx: row.SectorIdx}
		if run, ok := dedup.ExtendAnchor(part, i, cand, fetch); ok {
			return found(run)
		}
	}
	return dedup.Run{}, done, false
}

// errUnsealed rejects a dedup candidate whose segment is still open.
var errUnsealed = errors.New("core: dedup candidate not yet sealed")

// fetchDurableCBlockLocked reads and decompresses a cblock, but only if its
// segment is SEALED. Cross-references — dedup mappings, flattened chains,
// GC redirects — must only point at sealed segments: those are
// rediscoverable after a crash (checkpoint or AU-trailer scan), whereas an
// unsealed segment's data is re-placed from NVRAM payloads at new
// addresses, which would leave the cross-reference dangling. Caller holds
// mu.
func (a *Array) fetchDurableCBlockLocked(at sim.Time, seg, segOff uint64, physLen int) ([]byte, sim.Time, error) {
	info, ok := a.segInfoLocked(layout.SegmentID(seg))
	if !ok {
		return nil, at, fmt.Errorf("core: dedup candidate in unknown segment %d", seg)
	}
	if !info.Sealed {
		return nil, at, errUnsealed
	}
	return a.readCBlockLocked(at, seg, segOff, physLen)
}

// readCBlockLocked returns the decompressed sectors of a cblock, through
// the DRAM cache. Caller holds mu.
func (a *Array) readCBlockLocked(at sim.Time, seg, segOff uint64, physLen int) ([]byte, sim.Time, error) {
	key := cblockKey{segment: seg, off: int64(segOff)}
	if sectors, ok := a.cblocks.get(key); ok {
		a.stats.CacheHits++
		return sectors, at, nil
	}
	a.stats.CacheMisses++
	frame, done, err := a.readSegmentLocked(at, layout.SegmentID(seg), int64(segOff), physLen)
	if err != nil {
		return nil, done, err
	}
	//lint:ignore taintverify sealed-segment reads are WU-CRC-verified inside ReadRange (VerifyReads), unsealed reads come from in-memory pending buffers, and Unpack fails closed with the error counted
	sectors, err := cblock.Unpack(frame)
	if err != nil {
		a.stats.UnpackErrors.Inc()
		return nil, done, err
	}
	a.cblocks.put(key, physLen, sectors)
	return sectors, done, nil
}
