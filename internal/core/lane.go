package core

import (
	"errors"
	"fmt"
	"sync"

	"purity/internal/cblock"
	"purity/internal/dedup"
	"purity/internal/layout"
	"purity/internal/nvram"
	"purity/internal/relation"
	"purity/internal/sim"
	"purity/internal/telemetry"
	"purity/internal/tuple"
)

// Sharded commit lanes (DESIGN.md, "Sharded commit").
//
// With Config.CommitLanes > 1 the commit half of a write no longer runs
// under the global engine mutex. Each write routes to a lane by volume;
// the lane places literal cblocks into its own open data segment (under
// the lane mutex only, on the fast path), allocates sequence numbers from
// the shared atomic SeqSource, and funnels its NVRAM record through a
// batching committer that preserves the append-before-apply durability
// ordering the crash sweep checks. The paper's logical monotonicity is
// what makes this safe: facts are immutable and commutative (§3.2), so
// two lanes' facts interleave freely as long as each one's record is
// durable before its pyramid apply, and replay remains a set union.
//
// Lock order: a.world (R or W) → a.mu → ln.mu. Lane commits hold the
// world lock in read mode for their whole critical section; maintenance
// entry points (GC, scrub, rebuild, checkpoint, volume mutations) take it
// in write mode, so when one runs, no lane commit is in flight. a.mu is
// never acquired while ln.mu is held. The declaration below is checked,
// not trusted: purity-lint's lockorder rule rebuilds the acquisition
// graph from every body in the module and reports any blocking edge that
// runs against it.
//
//lint:lockorder Array.world < Array.mu < commitLane.mu

// commitLane is one shard of the commit path: a mutex, an open data
// segment, and contention-observability counters (all atomic, readable
// without any lock).
type commitLane struct {
	id   int
	mu   sync.Mutex
	open *layout.Writer

	// commits counts writes committed through this lane; batchesLed and
	// batchRecords describe the NVRAM group commits this lane led;
	// queueWaits counts commits that parked behind another lane's leader;
	// seqInterleaves counts commits whose sequence-number span contained
	// another lane's allocations (cross-lane allocator pressure — the
	// shared SeqSource is wait-free, so interleaving, not stalling, is
	// the observable); rotations counts segment seals due to fill.
	commits        *telemetry.Counter
	batchesLed     *telemetry.Counter
	batchRecords   *telemetry.Counter
	queueWaits     *telemetry.Counter
	seqInterleaves *telemetry.Counter
	rotations      *telemetry.Counter
}

func newCommitLane(id int) *commitLane {
	return &commitLane{
		id:             id,
		commits:        telemetry.NewCounter(),
		batchesLed:     telemetry.NewCounter(),
		batchRecords:   telemetry.NewCounter(),
		queueWaits:     telemetry.NewCounter(),
		seqInterleaves: telemetry.NewCounter(),
		rotations:      telemetry.NewCounter(),
	}
}

// openInfo returns the lane's open writer's info if it is segment id.
func (ln *commitLane) openInfo(id layout.SegmentID) (layout.SegmentInfo, bool) {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	if ln.open != nil && ln.open.Info().ID == id {
		return ln.open.Info(), true
	}
	return layout.SegmentInfo{}, false
}

// readPending serves a read from the lane's open writer's pending segio
// buffers if it holds segment id.
func (ln *commitLane) readPending(id layout.SegmentID, off int64, n int) ([]byte, bool) {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	if ln.open != nil && ln.open.Info().ID == id {
		return ln.open.ReadPending(off, n)
	}
	return nil, false
}

// laneMode reports whether the commit path is sharded.
func (a *Array) laneMode() bool { return len(a.lanes) > 0 }

// laneFor routes a volume to its lane. Volume IDs are dense and
// monotonically assigned, so modulo spreads them evenly; one volume always
// maps to one lane, which keeps per-volume commit order identical to the
// serial path.
func (a *Array) laneFor(vol VolumeID) *commitLane {
	return a.lanes[uint64(vol)%uint64(len(a.lanes))]
}

// --- Batching NVRAM committer -----------------------------------------

// nvTicket is one record waiting for the group commit.
type nvTicket struct {
	rec  []byte
	at   sim.Time
	done chan struct{}
	when sim.Time
	err  error
}

// nvCommitter funnels all lanes' NVRAM appends through a single leader at
// a time, so the mirrors see every record in one total order (replay picks
// the surviving device with the longest log — identical order on every
// mirror is what makes that choice safe). The first arrival while no
// leader is active becomes the leader and drains the queue in batches;
// later arrivals enqueue and wait. Device I/O runs with no locks held, so
// lanes keep preparing and placing while a batch is in flight.
type nvCommitter struct {
	a        *Array
	mu       sync.Mutex
	queue    []*nvTicket
	leading  bool
	maxDepth int64
}

// commit appends one record durably to all surviving NVRAM mirrors,
// batching with concurrent callers. It returns when this record is
// durable — the commit point of a lane write.
func (c *nvCommitter) commit(at sim.Time, ln *commitLane, rec []byte) (sim.Time, error) {
	t := &nvTicket{rec: rec, at: at, done: make(chan struct{})}
	c.mu.Lock()
	c.queue = append(c.queue, t)
	if depth := int64(len(c.queue)); depth > c.maxDepth {
		c.maxDepth = depth
	}
	if c.leading {
		c.mu.Unlock()
		ln.queueWaits.Inc()
		<-t.done
		return t.when, t.err
	}
	c.leading = true
	c.mu.Unlock()

	for {
		c.mu.Lock()
		batch := c.queue
		c.queue = nil
		if len(batch) == 0 {
			c.leading = false
			c.mu.Unlock()
			break
		}
		c.mu.Unlock()
		ln.batchesLed.Inc()
		ln.batchRecords.Add(int64(len(batch)))
		for _, tk := range batch {
			tk.when, tk.err = c.a.committerAppendOnce(tk.at, tk.rec)
			close(tk.done)
		}
	}
	return t.when, t.err
}

// committerAppendOnce mirrors one committed record to the surviving NVRAM
// devices. It is nvramAppendOnce without the engine lock: the batching
// committer calls it with no locks held, so device I/O never blocks other
// lanes' placement work. The crash-ordering contract is unchanged — a
// crash before any mirror loses the (never-acked) record; a crash between
// mirrors leaves it on a prefix, and replay selects the longest log.
func (a *Array) committerAppendOnce(at sim.Time, rec []byte) (sim.Time, error) {
	done := at
	a.crash.Hit("nvram.append.before")
	landed := 0
	for i := 0; i < a.shelf.NumNVRAM(); i++ {
		nv := a.shelf.NVRAM(i)
		if nv.Failed() {
			continue
		}
		_, d, err := nv.Append(at, rec)
		if err != nil {
			if errors.Is(err, nvram.ErrFailed) {
				continue
			}
			return done, err
		}
		landed++
		if d > done {
			done = d
		}
		a.crash.Hit("nvram.append.mirror")
	}
	if landed == 0 {
		return done, nvram.ErrFailed
	}
	a.crash.Hit("nvram.append.torn")
	a.crash.Hit("nvram.append.corrupt")
	a.crash.Hit("nvram.append.after")
	return done, nil
}

// --- Lane commit path ---------------------------------------------------

// commitWriteLane is the sharded counterpart of commitWriteLocked. The
// whole commit runs under the world lock in read mode; the engine mutex is
// taken only for the brief sections that genuinely share state across
// lanes (volume lookup, dedup candidate search, segment allocation, fact
// application), and the lane mutex covers the lane's own open segment.
func (a *Array) commitWriteLane(at sim.Time, vol VolumeID, off int64, data []byte, prep []preparedExtent) (sim.Time, error) {
	ln := a.laneFor(vol)
	a.world.RLock()
	// Every exit below decrements the in-flight count BEFORE releasing the
	// read lock, so a writer that then acquires world exclusively observes
	// zero lane commits in flight (nvramAppendLocked's checkpoint gate).
	a.laneInflight.Add(1)

	a.mu.Lock()
	row, done, err := a.volumeLocked(at, vol)
	if err == nil && row.State == relation.VolumeSnapshot {
		err = fmt.Errorf("core: volume %d is a read-only snapshot", vol)
	}
	startSector := uint64(off) / cblock.SectorSize
	if err == nil && startSector+uint64(len(data))/cblock.SectorSize > row.SizeSectors {
		err = ErrOutOfRange
	}
	a.mu.Unlock()
	if err != nil {
		a.laneInflight.Add(-1)
		a.world.RUnlock()
		return done, err
	}

	seqStart := a.seqs.Current()

	var chunks []writeChunk
	var physical, deduped int64
	var allocated uint64
	live := map[layout.SegmentID]int64{}
	for _, pe := range prep {
		sector := startSector + pe.sectorOff
		cs, n, d, err := a.placeCBlockLane(done, ln, row.Medium, sector, pe, live)
		done = d
		allocated += n
		if err != nil {
			a.laneInflight.Add(-1)
			a.world.RUnlock()
			// Placement can hit a full NVRAM log while committing segment
			// metadata (laneEnsureOpen/laneRotate → commitFactsLocked). The
			// in-flight gate makes that bubble up instead of checkpointing
			// under the read lock; redo the whole write serially under the
			// exclusive world lock, where checkpointing is safe. Chunks this
			// attempt already placed are abandoned garbage: no fact
			// references them, and recent-index entries are byte-verified
			// before any dedup use.
			if errors.Is(err, nvram.ErrFull) {
				return a.laneWriteSerialExclusive(at, vol, off, data, prep)
			}
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
	if uint64(a.seqs.Current()-seqStart) > allocated {
		ln.seqInterleaves.Inc()
	}

	// Commit point: the batched NVRAM append. Any error escalates to the
	// exclusive path, which can checkpoint to free log space — safe to take
	// the world lock there because we have fully released it here.
	rec := encodeWriteRecord(chunks)
	done2, err := a.committer.commit(done, ln, rec)
	if err != nil {
		a.laneInflight.Add(-1)
		a.world.RUnlock()
		return a.laneCommitExclusive(done, at, ln, data, rec, chunks, live, physical, deduped)
	}
	done = done2
	ln.commits.Inc()

	// The write is durable in NVRAM but not yet applied to the pyramids. A
	// crash in this window must be recovered by replay — the lane crash
	// sweep op arms exactly this point.
	a.crash.Hit("lane.apply.before")

	a.mu.Lock()
	cpuCost := sim.Time(a.cfg.CPUOverhead + a.cfg.CPUPerKiBWrite*int64(len(data))/1024)
	ackAt := a.cpuLocked(done, cpuCost)
	err = a.laneApplyLocked(chunks, live)
	needBG := false
	if err == nil {
		a.stats.Writes++
		a.stats.WriteLatency.Record(ackAt - at)
		a.stats.Reduction.AddWrite(int64(len(data)), physical, deduped)
		a.opsSinceBG++
		needBG = a.opsSinceBG >= a.cfg.BackgroundEvery
	}
	a.mu.Unlock()
	a.laneInflight.Add(-1)
	a.world.RUnlock()
	if err != nil {
		return ackAt, err
	}
	if needBG {
		if _, err := a.laneBackground(done); err != nil {
			return ackAt, err
		}
	}
	return ackAt, nil
}

// laneWriteSerialExclusive redoes a lane write on the serial commit path
// under the exclusive world lock. Used when placement hit a full NVRAM
// log: with every lane quiesced the watermark may advance and
// nvramAppendLocked may checkpoint to free the log, exactly as in
// single-lane mode. Called with NO locks held.
func (a *Array) laneWriteSerialExclusive(at sim.Time, vol VolumeID, off int64, data []byte, prep []preparedExtent) (sim.Time, error) {
	a.world.Lock()
	defer a.world.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	//lint:ignore commitorder world-exclusive with every lane quiesced: the watermark covers only facts lane drains already appended, and this write's own facts are appended by commitWriteLocked before they are applied
	a.persistedSeq = a.seqs.Current()
	return a.commitWriteLocked(at, vol, off, data, prep)
}

// laneApplyLocked applies a committed lane write's facts and folds its
// per-segment live-byte deltas into the shared accounting. In lane mode
// persistedSeq is NOT advanced here — only world-exclusive points move the
// watermark, when no lane commit is in flight (see checkpointLocked).
// Caller holds mu.
func (a *Array) laneApplyLocked(chunks []writeChunk, live map[layout.SegmentID]int64) error {
	for _, ch := range chunks {
		if err := a.applyFactsLocked(relation.IDAddrs, []tuple.Fact{ch.addr}); err != nil {
			return err
		}
		if len(ch.dedup) > 0 {
			if err := a.applyFactsLocked(relation.IDDedup, ch.dedup); err != nil {
				return err
			}
		}
	}
	for seg, delta := range live {
		a.liveBytes[seg] += delta
	}
	return nil
}

// laneCommitExclusive finishes a lane write whose batched NVRAM append
// failed (typically ErrFull). Called with NO locks held; it takes the
// world lock exclusively — every lane commit is quiesced, so the serial
// nvramAppendLocked (which may checkpoint to free the log, flushing lane
// segios in the process) is safe, exactly as in single-lane mode.
func (a *Array) laneCommitExclusive(done, at sim.Time, ln *commitLane, data []byte, rec []byte, chunks []writeChunk, live map[layout.SegmentID]int64, physical, deduped int64) (sim.Time, error) {
	a.world.Lock()
	a.mu.Lock()
	defer a.mu.Unlock()
	defer a.world.Unlock()
	// World-exclusive: no lane commit in flight, so every applied fact is
	// durable and the watermark may advance (checkpoints flush through it).
	//lint:ignore commitorder world-exclusive quiesce point: the watermark covers only already-appended facts, and this write's record is appended by nvramAppendLocked directly below, before laneApplyLocked runs
	a.persistedSeq = a.seqs.Current()
	d, err := a.nvramAppendLocked(done, rec)
	if err != nil {
		return d, err
	}
	done = d
	ln.commits.Inc()
	cpuCost := sim.Time(a.cfg.CPUOverhead + a.cfg.CPUPerKiBWrite*int64(len(data))/1024)
	ackAt := a.cpuLocked(done, cpuCost)
	if err := a.laneApplyLocked(chunks, live); err != nil {
		return ackAt, err
	}
	a.stats.Writes++
	a.stats.WriteLatency.Record(ackAt - at)
	a.stats.Reduction.AddWrite(int64(len(data)), physical, deduped)
	if _, err := a.maybeBackgroundLocked(done); err != nil {
		return ackAt, err
	}
	return ackAt, nil
}

// laneBackground runs the background step after a lane commit crossed the
// cadence threshold. It re-checks under the exclusive world lock: several
// lanes may cross the threshold concurrently, and only the first to get
// here should run the step.
func (a *Array) laneBackground(at sim.Time) (sim.Time, error) {
	a.world.Lock()
	a.mu.Lock()
	defer a.mu.Unlock()
	defer a.world.Unlock()
	if a.opsSinceBG < a.cfg.BackgroundEvery {
		return at, nil
	}
	a.opsSinceBG = 0
	// World-exclusive point: safe to advance the flush watermark.
	a.persistedSeq = a.seqs.Current()
	return a.backgroundStepLocked(at)
}

// placeCBlockLane turns one prepared extent into chunks, the lane way:
// the dedup candidate search runs under the engine mutex (it reads the
// pyramids and sealed segments), literal placement under the lane mutex.
// Live-byte deltas accumulate in live to be applied after the commit
// point. Returns the chunks and how many sequence numbers were allocated.
func (a *Array) placeCBlockLane(at sim.Time, ln *commitLane, medium, sector uint64, pe preparedExtent, live map[layout.SegmentID]int64) ([]writeChunk, uint64, sim.Time, error) {
	done := at
	part := pe.part
	var allocated uint64
	if a.cfg.DedupEnabled {
		a.mu.Lock()
		run, d, found := a.findDuplicateLocked(done, part, pe.hashes)
		done = d
		hit := found && (run.Count >= a.cfg.DedupMinRunBlocks || run.Count == len(part)/cblock.SectorSize)
		if hit {
			a.stats.DedupHits++
			a.stats.InlineDupBlocks += int64(run.Count)
		} else {
			a.stats.DedupMisses++
		}
		a.mu.Unlock()
		if hit {
			var chunks []writeChunk
			if run.Start > 0 {
				cs, n, d, err := a.laneLiteralChunk(done, ln, medium, sector,
					part[:run.Start*cblock.SectorSize], nil, pe.hashes[:run.Start], live)
				done = d
				allocated += n
				if err != nil {
					return nil, allocated, done, err
				}
				chunks = append(chunks, cs)
			}
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
			allocated++
			if end := run.Start + run.Count; end < len(part)/cblock.SectorSize {
				cs, n, d, err := a.laneLiteralChunk(done, ln, medium, sector+uint64(end),
					part[end*cblock.SectorSize:], nil, pe.hashes[end:], live)
				done = d
				allocated += n
				if err != nil {
					return nil, allocated, done, err
				}
				chunks = append(chunks, cs)
			}
			return chunks, allocated, done, nil
		}
	}
	cs, n, d, err := a.laneLiteralChunk(done, ln, medium, sector, part, pe.frame, pe.hashes, live)
	allocated += n
	if err != nil {
		return nil, allocated, d, err
	}
	return []writeChunk{cs}, allocated, d, nil
}

// laneLiteralChunk places new data into the lane's segment. Unlike the
// serial literalChunkLocked, packing a nil frame (a dedup remainder, or an
// extent prepare guessed would deduplicate) happens with no lock held, and
// the recent-index inserts go through its own stripes.
func (a *Array) laneLiteralChunk(at sim.Time, ln *commitLane, medium, sector uint64, part, frame []byte, hashes []uint64, live map[layout.SegmentID]int64) (writeChunk, uint64, sim.Time, error) {
	if frame == nil {
		var err error
		frame, err = cblock.Pack(part, a.cfg.CompressionEnabled)
		if err != nil {
			return writeChunk{}, 0, at, err
		}
	}
	// As in the serial path, the segio append's completion time must not
	// gate the ack — the commit path acks at NVRAM persistence (Figure 4).
	seg, segOff, _, err := a.laneAppendData(at, ln, frame)
	done := at
	if err != nil {
		return writeChunk{}, 0, done, err
	}
	sectors := uint64(len(part)) / cblock.SectorSize
	var allocated uint64
	ch := writeChunk{
		addr: relation.AddrRow{
			Medium: medium, Sector: sector,
			Segment: uint64(seg), SegOff: uint64(segOff), PhysLen: uint64(len(frame)),
			Sectors: sectors,
		}.Fact(a.seqs.Next()),
		payload: part,
	}
	allocated++
	live[seg] += int64(len(frame))

	for i, h := range hashes {
		cand := dedup.Candidate{Segment: uint64(seg), SegOff: uint64(segOff), PhysLen: uint64(len(frame)), SectorIdx: uint64(i)}
		a.recent.Add(h, cand)
		if a.cfg.DedupEnabled && dedup.ShouldRecord(i, a.cfg.DedupSampling) {
			ch.dedup = append(ch.dedup, relation.DedupRow{
				Hash: h, Segment: cand.Segment, SegOff: cand.SegOff,
				PhysLen: cand.PhysLen, SectorIdx: cand.SectorIdx,
			}.Fact(a.seqs.Next()))
			allocated++
		}
	}
	return ch, allocated, done, nil
}

// laneAppendData appends a blob to the lane's open segment, rotating as it
// fills. The fast path holds only ln.mu; allocation and sealing take a.mu
// first (lock order), so a rotating lane briefly contends with the others.
func (a *Array) laneAppendData(at sim.Time, ln *commitLane, b []byte) (layout.SegmentID, int64, sim.Time, error) {
	done := at
	for attempt := 0; attempt < 3; attempt++ {
		ln.mu.Lock()
		w := ln.open
		if w != nil {
			off, d, err := w.AppendData(done, b)
			done = d
			if err == nil {
				id := w.Info().ID
				ln.mu.Unlock()
				return id, off, done, nil
			}
			ln.mu.Unlock()
			if err != layout.ErrSegmentFull {
				return 0, 0, done, err
			}
			d2, err := a.laneRotate(done, ln, w)
			done = d2
			if err != nil {
				return 0, 0, done, err
			}
			continue
		}
		ln.mu.Unlock()
		d, err := a.laneEnsureOpen(done, ln)
		done = d
		if err != nil {
			return 0, 0, done, err
		}
	}
	return 0, 0, done, errors.New("core: could not place data after lane segment rotation")
}

// laneEnsureOpen allocates and installs an open segment for the lane when
// it has none. Per-lane open segments are the down payment on multi-stream
// placement: each lane's writes stay physically clustered, so data written
// together dies together (ROADMAP item 5).
//
// ln.mu is NOT held across the allocation: newSegmentWriterLocked flushes
// open segios (frontier persistence), and that walk takes every lane's
// mutex — holding this lane's would self-deadlock. Holding a.mu alone is
// enough for exclusivity: every ln.open install/remove runs under a.mu,
// so the slot cannot change between the check and the install; ln.mu only
// orders the slot against its lock-free readers.
func (a *Array) laneEnsureOpen(at sim.Time, ln *commitLane) (sim.Time, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ln.mu.Lock()
	already := ln.open != nil
	ln.mu.Unlock()
	if already {
		return at, nil
	}
	w, done, err := a.newSegmentWriterLocked(at)
	if err != nil {
		return done, err
	}
	ln.mu.Lock()
	ln.open = w
	ln.mu.Unlock()
	return done, nil
}

// laneRotate seals the lane's full segment, unless another commit of the
// same lane already rotated it. The writer is detached before the seal
// (same ln.mu discipline as laneEnsureOpen — sealing commits facts, which
// can flush segios across all lanes); a.mu held throughout keeps readers
// from observing the detached-but-unsealed window.
func (a *Array) laneRotate(at sim.Time, ln *commitLane, w *layout.Writer) (sim.Time, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ln.mu.Lock()
	current := ln.open == w
	if current {
		ln.open = nil
	}
	ln.mu.Unlock()
	if !current {
		return at, nil
	}
	// The seal fact's LiveBytes may lag commits whose deltas have not been
	// applied yet — the paper keeps these aggregates approximate (§3.3);
	// GC recomputes exact liveness.
	done, err := a.sealWriterLocked(at, w)
	if err != nil {
		return done, err
	}
	ln.rotations.Inc()
	return done, nil
}

// sealLanesLocked seals every lane's open segment — checkpoint-grade
// quiesce for FlushAll, drive replacement, and shutdown. Caller holds mu
// (and in lane mode the world lock exclusively, so no commit is in
// flight).
func (a *Array) sealLanesLocked(at sim.Time) (sim.Time, error) {
	done := at
	for _, ln := range a.lanes {
		ln.mu.Lock()
		w := ln.open
		ln.open = nil
		ln.mu.Unlock()
		if w == nil {
			continue
		}
		d, err := a.sealWriterLocked(done, w)
		if err != nil {
			return d, err
		}
		done = d
	}
	return done, nil
}

// --- Per-lane telemetry -------------------------------------------------

// LaneStat is one lane's counter snapshot.
type LaneStat struct {
	Lane           int
	Commits        int64
	BatchesLed     int64
	BatchRecords   int64
	QueueWaits     int64
	SeqInterleaves int64
	Rotations      int64
}

// LaneStats is the sharded-commit observability snapshot: per-lane
// counters plus the committer's high-water queue depth.
type LaneStats struct {
	Lanes         []LaneStat
	MaxQueueDepth int64
}

// LaneTelemetry snapshots the lane counters. Empty in single-lane mode.
func (a *Array) LaneTelemetry() LaneStats {
	var out LaneStats
	for _, ln := range a.lanes {
		out.Lanes = append(out.Lanes, LaneStat{
			Lane:           ln.id,
			Commits:        ln.commits.Load(),
			BatchesLed:     ln.batchesLed.Load(),
			BatchRecords:   ln.batchRecords.Load(),
			QueueWaits:     ln.queueWaits.Load(),
			SeqInterleaves: ln.seqInterleaves.Load(),
			Rotations:      ln.rotations.Load(),
		})
	}
	if a.committer != nil {
		a.committer.mu.Lock()
		out.MaxQueueDepth = a.committer.maxDepth
		a.committer.mu.Unlock()
	}
	return out
}
