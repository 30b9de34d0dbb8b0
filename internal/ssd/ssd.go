// Package ssd models the consumer MLC solid state drives Purity is built
// from (§2.1, §5.1 of the paper). The model keeps data in RAM but reproduces
// the behaviours the paper's design reacts to:
//
//   - Parallel dies: peak throughput needs deep queues; a die servicing a
//     program or erase stalls reads to it (the read-latency spikes §4.4
//     schedules around).
//   - Pages, erase blocks, program/erase asymmetry: pages must be erased in
//     erase-block units before rewrite; erases are slow.
//   - A simplified FTL: purely sequential writes within an allocation unit
//     pass through at native cost; random overwrites trigger FTL
//     relocation, costing extra latency and write amplification ("random
//     writes considered harmful").
//   - Endurance: erases wear blocks; worn blocks begin failing reads
//     (detected, as with a real drive's internal ECC).
//   - Whole-drive failure and revival, for pull-a-drive experiments.
//
// All latencies are simulated (package sim); operations take an issue time
// and return a completion time. Data operations are real byte copies, so
// the storage stack above is exercised end to end.
package ssd

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"purity/internal/sim"
)

// Config describes one drive's geometry and timing.
type Config struct {
	Capacity       int64 // usable bytes; must be a multiple of EraseBlockSize
	Dies           int   // independent parallel dies
	PageSize       int   // program/read granularity, bytes
	EraseBlockSize int   // erase granularity, bytes
	// DieStripe is the channel-striping granularity: consecutive DieStripe
	// chunks of the address space interleave across dies, so large writes
	// program several dies in parallel — and stall reads on exactly those
	// dies (§4.4's latency spikes). Defaults to 32 KiB.
	DieStripe int

	ReadLatency    sim.Time // fixed page-read service time
	ProgramLatency sim.Time // fixed page-program service time
	EraseLatency   sim.Time // per erase-block erase time
	TransferPerKiB sim.Time // bus transfer cost per KiB moved

	// RandomWritePenalty multiplies program cost for non-append writes and
	// adds (penalty-1)× write amplification, modelling FTL relocation.
	RandomWritePenalty int

	// PELimit is the rated program/erase cycles per erase block. Beyond it,
	// each further erase gives the block a WearFailureProb chance of
	// becoming bad (reads return ErrCorrupt until erased... in real drives
	// the block is retired; we keep it failing to force upper-layer repair).
	PELimit         int
	WearFailureProb float64 // per-erase probability once past PELimit

	// BitFlipRate is the per-program probability (per touched erase block)
	// of a single silent bit flip in the just-written data — the latent
	// errors that slip past drive-internal ECC (§5.1). Unlike a bad block,
	// the drive returns the flipped data without error; only end-to-end
	// CRCs above catch it. Zero disables injection.
	BitFlipRate float64

	Seed uint64 // RNG seed for wear failures and bit flips
}

// DefaultConfig returns the scaled-down drive the test suite and benchmarks
// use: timings are typical consumer-MLC figures; capacity is small so arrays
// of 11+ drives stay laptop-sized.
func DefaultConfig() Config {
	return Config{
		Capacity:       256 << 20,
		Dies:           8,
		PageSize:       4 << 10,
		EraseBlockSize: 1 << 20,
		DieStripe:      32 << 10,
		ReadLatency:    80 * sim.Microsecond,
		// Effective per-page program cost: raw MLC programs run ~1.3 ms,
		// but multi-plane interleaving overlaps several pages per die.
		ProgramLatency:     250 * sim.Microsecond,
		EraseLatency:       4 * sim.Millisecond,
		TransferPerKiB:     2 * sim.Microsecond,
		RandomWritePenalty: 4,
		PELimit:            3000,
		WearFailureProb:    0.02,
		Seed:               1,
	}
}

// Errors returned by device operations.
var (
	ErrFailed    = errors.New("ssd: drive failed")
	ErrCorrupt   = errors.New("ssd: uncorrectable page (drive-internal ECC)")
	ErrBounds    = errors.New("ssd: access out of bounds")
	ErrNotErased = errors.New("ssd: programming a page that was not erased")
)

// Stats counts a drive's lifetime activity.
type Stats struct {
	HostBytesRead     int64
	HostBytesWritten  int64
	FlashBytesWritten int64 // includes FTL relocation amplification
	Erases            int64
	RandomWrites      int64 // writes that paid the FTL relocation penalty
	StalledReads      int64 // reads that queued behind a program/erase
	MaxWear           int   // highest per-block P/E count
	BadBlocks         int
	BitFlips          int64 // silent bit flips injected (BitFlipRate + FlipBit)
}

// dieState tracks one die's current contiguous busy period. Operations
// queue behind busyUntil; an operation issued after an idle gap starts a
// new period. BusyAt is true only inside [busyFrom, busyUntil).
type dieState struct {
	busyFrom  sim.Time
	busyUntil sim.Time
}

type eraseBlock struct {
	wear    int
	bad     bool
	written int64 // high-water mark of programmed bytes within the block
}

// Device is one simulated drive. Methods are safe for concurrent use; the
// timing model serializes per-die work exactly as a real die would.
type Device struct {
	cfg Config
	id  string

	mu      sync.Mutex
	failed  bool
	data    map[int64][][]byte // erase-block index -> its pages; see page
	zeros   []byte             // one all-zero page, for comparisons
	blocks  []eraseBlock
	dies    []dieState
	rng     *sim.Rand
	flipRng *sim.Rand // separate stream so wear failures stay reproducible
	stats   Stats
}

// New returns a device with the given id and configuration.
func New(id string, cfg Config) (*Device, error) {
	if cfg.Capacity <= 0 || cfg.EraseBlockSize <= 0 || cfg.PageSize <= 0 || cfg.Dies <= 0 {
		return nil, fmt.Errorf("ssd: invalid config %+v", cfg)
	}
	if cfg.Capacity%int64(cfg.EraseBlockSize) != 0 {
		return nil, fmt.Errorf("ssd: capacity %d not a multiple of erase block %d", cfg.Capacity, cfg.EraseBlockSize)
	}
	if cfg.EraseBlockSize%cfg.PageSize != 0 {
		return nil, fmt.Errorf("ssd: erase block %d not a multiple of page %d", cfg.EraseBlockSize, cfg.PageSize)
	}
	if cfg.RandomWritePenalty < 1 {
		cfg.RandomWritePenalty = 1
	}
	if cfg.DieStripe <= 0 {
		cfg.DieStripe = 32 << 10
	}
	if cfg.DieStripe%cfg.PageSize != 0 {
		return nil, fmt.Errorf("ssd: die stripe %d not a multiple of page %d", cfg.DieStripe, cfg.PageSize)
	}
	nBlocks := cfg.Capacity / int64(cfg.EraseBlockSize)
	return &Device{
		cfg:     cfg,
		id:      id,
		data:    make(map[int64][][]byte),
		zeros:   make([]byte, cfg.PageSize),
		blocks:  make([]eraseBlock, nBlocks),
		dies:    make([]dieState, cfg.Dies),
		rng:     sim.NewRand(cfg.Seed),
		flipRng: sim.NewRand(cfg.Seed*2654435761 + 0x5f1d), // independent stream
	}, nil
}

// ID returns the drive identifier.
func (d *Device) ID() string { return d.id }

// Config returns the drive's configuration.
func (d *Device) Config() Config { return d.cfg }

// Capacity returns usable bytes.
func (d *Device) Capacity() int64 { return d.cfg.Capacity }

// blockIndex returns the erase block containing off.
func (d *Device) blockIndex(off int64) int64 { return off / int64(d.cfg.EraseBlockSize) }

// page returns page pi of erase block bi, or nil if no nonzero byte was
// ever programmed into it since the last erase: such a page reads as
// zeros and holds no memory. The drive is an in-memory model, and
// partially filled stripes leave long zero-filled gaps, so a page is
// allocated only when alloc is set. Caller holds mu.
func (d *Device) page(bi, pi int64, alloc bool) []byte {
	pages := d.data[bi]
	if pages == nil {
		if !alloc {
			return nil
		}
		pages = make([][]byte, d.cfg.EraseBlockSize/d.cfg.PageSize)
		d.data[bi] = pages
	}
	if pages[pi] == nil && alloc {
		pages[pi] = make([]byte, d.cfg.PageSize)
	}
	return pages[pi]
}

// copyOut copies block bi's bytes from blockOff into dst. Caller holds mu.
func (d *Device) copyOut(dst []byte, bi, blockOff int64) {
	ps := int64(d.cfg.PageSize)
	for len(dst) > 0 {
		pi, po := blockOff/ps, blockOff%ps
		n := min(ps-po, int64(len(dst)))
		if pg := d.page(bi, pi, false); pg != nil {
			copy(dst[:n], pg[po:])
		} else {
			clear(dst[:n])
		}
		dst, blockOff = dst[n:], blockOff+n
	}
}

// program copies src into block bi at blockOff, allocating only the pages
// that receive a nonzero byte. Caller holds mu.
func (d *Device) program(bi, blockOff int64, src []byte) {
	ps := int64(d.cfg.PageSize)
	for len(src) > 0 {
		pi, po := blockOff/ps, blockOff%ps
		n := min(ps-po, int64(len(src)))
		if pg := d.page(bi, pi, !bytes.Equal(src[:n], d.zeros[:n])); pg != nil {
			copy(pg[po:], src[:n])
		}
		src, blockOff = src[n:], blockOff+n
	}
}

// flip inverts one bit of the byte at blockOff in block bi. Caller holds mu.
func (d *Device) flip(bi, blockOff int64, bit uint) {
	ps := int64(d.cfg.PageSize)
	d.page(bi, blockOff/ps, true)[blockOff%ps] ^= 1 << (bit % 8)
}

// dieFor maps a byte offset to the die that owns its stripe chunk.
func (d *Device) dieFor(off int64) int {
	return int((off / int64(d.cfg.DieStripe)) % int64(d.cfg.Dies))
}

// dieShares returns, per die index, how many bytes of [off, off+n) land on
// it. Dies service their shares in parallel.
func (d *Device) dieShares(off int64, n int) map[int]int64 {
	shares := make(map[int]int64, d.cfg.Dies)
	pos := off
	remaining := int64(n)
	for remaining > 0 {
		chunk := int64(d.cfg.DieStripe) - pos%int64(d.cfg.DieStripe)
		if chunk > remaining {
			chunk = remaining
		}
		shares[d.dieFor(pos)] += chunk
		pos += chunk
		remaining -= chunk
	}
	return shares
}

// pages returns how many pages an [off, off+n) access touches.
func (d *Device) pages(off int64, n int) int {
	if n == 0 {
		return 0
	}
	first := off / int64(d.cfg.PageSize)
	last := (off + int64(n) - 1) / int64(d.cfg.PageSize)
	return int(last-first) + 1
}

func (d *Device) transfer(n int) sim.Time {
	return sim.Time(int64(d.cfg.TransferPerKiB) * ((int64(n) + 1023) / 1024))
}

// ReadAt copies len(p) bytes at off into p. It returns the simulated
// completion time for a request issued at `at`. Reads of a failed drive or
// of a worn-out (bad) erase block fail.
func (d *Device) ReadAt(at sim.Time, p []byte, off int64) (sim.Time, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return at, ErrFailed
	}
	if off < 0 || off+int64(len(p)) > d.cfg.Capacity {
		return at, ErrBounds
	}
	if len(p) == 0 {
		return at, nil
	}
	d.stats.HostBytesRead += int64(len(p))

	// Data copy, block by block.
	remaining := p
	pos := off
	for len(remaining) > 0 {
		bi := d.blockIndex(pos)
		if d.blocks[bi].bad {
			return at, ErrCorrupt
		}
		blockOff := pos % int64(d.cfg.EraseBlockSize)
		n := int64(d.cfg.EraseBlockSize) - blockOff
		if n > int64(len(remaining)) {
			n = int64(len(remaining))
		}
		d.copyOut(remaining[:n], bi, blockOff)
		remaining = remaining[n:]
		pos += n
	}

	// Timing: each touched die serves its share in parallel; the op
	// completes when the slowest die plus the bus transfer finish.
	done := d.occupyRead(at, off, len(p))
	return done, nil
}

// WriteAt programs len(p) bytes at off. Programming a page that already
// holds data is a *random* write: the simplified FTL relocates it (extra
// latency, extra flash writes) rather than failing, matching how real
// consumer drives behave. Sequential appends within an erase block run at
// native cost. Returns the simulated completion time.
func (d *Device) WriteAt(at sim.Time, p []byte, off int64) (sim.Time, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return at, ErrFailed
	}
	if off < 0 || off+int64(len(p)) > d.cfg.Capacity {
		return at, ErrBounds
	}
	if len(p) == 0 {
		return at, nil
	}
	d.stats.HostBytesWritten += int64(len(p))

	random := false
	remaining := p
	pos := off
	for len(remaining) > 0 {
		bi := d.blockIndex(pos)
		blockOff := pos % int64(d.cfg.EraseBlockSize)
		n := int64(d.cfg.EraseBlockSize) - blockOff
		if n > int64(len(remaining)) {
			n = int64(len(remaining))
		}
		b := &d.blocks[bi]
		if blockOff < b.written {
			// Overwrite of already-programmed pages: FTL relocation.
			random = true
			b.bad = false // FTL maps around previously bad pages on rewrite
		}
		d.program(bi, blockOff, remaining[:n])
		if d.cfg.BitFlipRate > 0 && d.flipRng.Float64() < d.cfg.BitFlipRate {
			// Latent error: flip one bit somewhere in the bytes just
			// programmed into this block. Silent — the read path returns
			// the damaged data without ErrCorrupt.
			at := blockOff + int64(d.flipRng.Intn(int(n)))
			d.flip(bi, at, uint(d.flipRng.Intn(8)))
			d.stats.BitFlips++
		}
		if end := blockOff + n; end > b.written {
			b.written = end
		}
		remaining = remaining[n:]
		pos += n
	}

	penalty := 1
	flash := int64(len(p))
	if random {
		d.stats.RandomWrites++
		penalty = d.cfg.RandomWritePenalty
		flash *= int64(d.cfg.RandomWritePenalty)
		// Relocation erases: charge wear to the touched blocks.
		for bi := d.blockIndex(off); bi <= d.blockIndex(off+int64(len(p))-1); bi++ {
			d.wearBlock(bi)
		}
	}
	d.stats.FlashBytesWritten += flash

	done := d.occupyWrite(at, off, len(p), penalty)
	return done, nil
}

// Erase resets the erase block containing off (off must be block-aligned),
// charging one P/E cycle. Worn-out blocks may go bad.
func (d *Device) Erase(at sim.Time, off int64) (sim.Time, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return at, ErrFailed
	}
	if off < 0 || off >= d.cfg.Capacity || off%int64(d.cfg.EraseBlockSize) != 0 {
		return at, ErrBounds
	}
	bi := d.blockIndex(off)
	delete(d.data, bi)
	d.blocks[bi].written = 0
	d.blocks[bi].bad = false
	d.stats.Erases++
	d.wearBlock(bi)

	// An erase block spans every die its chunks stripe across; the erase
	// stalls them all (real drives exhibit exactly these whole-drive
	// hiccups during erases, §2.1).
	done := at
	for die := range d.dieShares(off, d.cfg.EraseBlockSize) {
		start, gapFit := d.dieSchedule(die, at, d.cfg.EraseLatency)
		dieDone := start + d.cfg.EraseLatency
		if !gapFit {
			d.occupyDie(die, start, dieDone)
		}
		if dieDone > done {
			done = dieDone
		}
	}
	return done, nil
}

// wearBlock increments wear and maybe marks the block bad. Caller holds mu.
func (d *Device) wearBlock(bi int64) {
	b := &d.blocks[bi]
	b.wear++
	if b.wear > d.stats.MaxWear {
		d.stats.MaxWear = b.wear
	}
	if b.wear > d.cfg.PELimit && d.rng.Float64() < d.cfg.WearFailureProb {
		if !b.bad {
			b.bad = true
			d.stats.BadBlocks++
		}
	}
}

// dieSchedule picks the start time for an operation of the given service
// length on a die: immediately when the die is idle, in the idle gap before
// a future-scheduled busy window when the op fits there, and queued behind
// the window otherwise. Gap-fit ops do not alter the window.
func (d *Device) dieSchedule(die int, at, service sim.Time) (start sim.Time, gapFit bool) {
	ds := &d.dies[die]
	if at >= ds.busyUntil {
		return at, false
	}
	if at+service <= ds.busyFrom {
		return at, true
	}
	return ds.busyUntil, false
}

// occupyRead schedules a read: each touched die serves its share (one read
// service per touched die, in parallel); the op completes when the slowest
// die finishes plus the bus transfer. Contending with an ongoing program or
// erase is recorded as a stall.
func (d *Device) occupyRead(at sim.Time, off int64, n int) sim.Time {
	slowest := at
	stalled := false
	for die := range d.dieShares(off, n) {
		start, gapFit := d.dieSchedule(die, at, d.cfg.ReadLatency)
		if start > at {
			stalled = true
		}
		dieDone := start + d.cfg.ReadLatency
		if !gapFit {
			d.occupyDie(die, start, dieDone)
		}
		if dieDone > slowest {
			slowest = dieDone
		}
	}
	if stalled {
		d.stats.StalledReads++
	}
	return slowest + d.transfer(n)
}

// occupyWrite schedules a program: each die programs its share of pages in
// parallel, scaled by the FTL relocation penalty for random writes.
func (d *Device) occupyWrite(at sim.Time, off int64, n, penalty int) sim.Time {
	slowest := at
	for die, bytes := range d.dieShares(off, n) {
		pages := (bytes + int64(d.cfg.PageSize) - 1) / int64(d.cfg.PageSize)
		service := sim.Time(int64(d.cfg.ProgramLatency) * pages * int64(penalty))
		start, gapFit := d.dieSchedule(die, at, service)
		dieDone := start + service
		if !gapFit {
			d.occupyDie(die, start, dieDone)
		}
		if dieDone > slowest {
			slowest = dieDone
		}
	}
	return slowest + d.transfer(n)
}

// occupyDie extends or opens a die's busy period for [start, done). An
// operation that begins while the die is still busy (start ≤ busyUntil)
// continues the current period; otherwise a new period opens at start, so
// work scheduled in the future does not make the die look busy now.
func (d *Device) occupyDie(die int, start, done sim.Time) {
	ds := &d.dies[die]
	if start > ds.busyUntil {
		ds.busyFrom = start
	}
	if done > ds.busyUntil {
		ds.busyUntil = done
	}
}

// BusyRangeAt reports whether any die serving [off, off+n) is busy at time
// t — the §4.4 signal: a read aimed at those dies would stall behind an
// in-flight program or erase, so the scheduler reconstructs instead.
func (d *Device) BusyRangeAt(t sim.Time, off int64, n int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for die := range d.dieShares(off, n) {
		ds := d.dies[die]
		if ds.busyFrom <= t && t < ds.busyUntil {
			return true
		}
	}
	return false
}

// BusyAt reports whether any die of the drive is busy at time t.
func (d *Device) BusyAt(t sim.Time) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, ds := range d.dies {
		if ds.busyFrom <= t && t < ds.busyUntil {
			return true
		}
	}
	return false
}

// Fail takes the drive offline (pulled from the shelf). All subsequent
// operations return ErrFailed until Revive. Data is preserved, as pulling a
// drive does not erase it.
func (d *Device) Fail() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed = true
}

// Revive brings a failed drive back online.
func (d *Device) Revive() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed = false
}

// Failed reports whether the drive is offline.
func (d *Device) Failed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.failed
}

// CorruptBlock marks the erase block containing off bad, simulating charge
// leakage on worn flash (§5.1). Reads will fail until it is erased.
func (d *Device) CorruptBlock(off int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	bi := d.blockIndex(off)
	if !d.blocks[bi].bad {
		d.blocks[bi].bad = true
		d.stats.BadBlocks++
	}
}

// FlipBit deterministically flips one bit of the byte at off — the test
// hook for injecting a single latent error at a known location. Like
// BitFlipRate damage, the flip is silent: reads succeed and return the
// damaged byte.
func (d *Device) FlipBit(off int64, bit uint) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if off < 0 || off >= d.cfg.Capacity {
		return
	}
	d.flip(d.blockIndex(off), off%int64(d.cfg.EraseBlockSize), bit)
	d.stats.BitFlips++
}

// Stats returns a snapshot of the drive's counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Wear returns the P/E count of the erase block containing off.
func (d *Device) Wear(off int64) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.blocks[d.blockIndex(off)].wear
}

// WriteAmplification returns flash bytes written divided by host bytes
// written, the endurance metric for experiment E8.
func (d *Device) WriteAmplification() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stats.HostBytesWritten == 0 {
		return 0
	}
	return float64(d.stats.FlashBytesWritten) / float64(d.stats.HostBytesWritten)
}
