package core

import (
	"testing"

	"purity/internal/medium"
	"purity/internal/sim"
)

// BenchmarkReadStages measures the read path layer by layer, in real time,
// against a volume whose address map spans several pyramid patches plus a
// memtable (a 32 KiB-cblock prefill overwritten by scattered 4 KiB writes,
// with checkpoints in between):
//
//	resolve   — medium.ResolveAll for one 4 KiB read: the address-map
//	            scans (AddrCovering, AddrCeil) and medium-table floors;
//	full/hit  — a complete 4 KiB ReadAt served from the cblock cache;
//	full/miss — a complete 4 KiB ReadAt whose cblock is not cached
//	            (segment read, checksum, decompress).
//
// full/hit − resolve is the per-read engine overhead (locking, CPU model,
// hedging bookkeeping); full/miss − full/hit is the device read path.
// Run with -benchmem so a regression points at one layer.

const (
	readBenchIO       = 4 << 10
	readBenchVolBytes = int64(32 << 20)
)

// benchReadArray builds the read benchmarks' array. The cblock cache holds
// a single entry, so repeating one offset always hits and striding across
// cblocks always misses.
func benchReadArray(b *testing.B) (*Array, VolumeID, sim.Time) {
	b.Helper()
	cfg := DefaultConfig()
	cfg.Shelf.Drives = 11
	cfg.Shelf.DriveConfig.Capacity = 512 << 20
	cfg.CBlockCacheEntries = 1
	a, err := Format(cfg)
	if err != nil {
		b.Fatal(err)
	}
	vol, now, err := a.CreateVolume(0, "rs", readBenchVolBytes)
	if err != nil {
		b.Fatal(err)
	}
	const chunk = 32 << 10
	for off := int64(0); off < readBenchVolBytes; off += chunk {
		if now, err = a.WriteAt(now, vol, off, compressiblePayload(uint64(off), chunk)); err != nil {
			b.Fatal(err)
		}
	}
	r := sim.NewRand(7)
	for round := 0; round < 3; round++ {
		if now, err = a.FlushAll(now); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 1024; i++ {
			off := int64(r.Intn(int(readBenchVolBytes/readBenchIO))) * readBenchIO
			if now, err = a.WriteAt(now, vol, off, compressiblePayload(r.Uint64(), readBenchIO)); err != nil {
				b.Fatal(err)
			}
		}
	}
	return a, vol, now
}

// readBenchOffset spreads iteration i over the volume with a stride that
// lands on a different 32 KiB cblock every time.
func readBenchOffset(i int) int64 {
	const units = readBenchVolBytes / readBenchIO
	return (int64(i) * 1031 % units) * readBenchIO
}

func BenchmarkReadStages(b *testing.B) {
	a, vol, now := benchReadArray(b)

	b.Run("resolve", func(b *testing.B) {
		a.mu.Lock()
		row, _, err := a.volumeLocked(now, vol)
		a.mu.Unlock()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sector := uint64(readBenchOffset(i)) / 512
			a.mu.Lock()
			_, _, err := medium.ResolveAll(now, (*lookupAdapter)(a), row.Medium, sector, readBenchIO/512)
			a.mu.Unlock()
			if err != nil {
				b.Fatal(err)
			}
		}
	})

	// Full reads run one at a time on the sim clock too: each is issued
	// when the previous one completed, so the device model never queues
	// and hedging stays quiet, as on an idle array.
	full := func(b *testing.B, off func(i int) int64) {
		at := now
		b.SetBytes(readBenchIO)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, done, err := a.ReadAt(at, vol, off(i), readBenchIO)
			if err != nil {
				b.Fatal(err)
			}
			at = done
		}
	}
	b.Run("full/hit", func(b *testing.B) { full(b, func(int) int64 { return readBenchOffset(0) }) })
	b.Run("full/miss", func(b *testing.B) { full(b, readBenchOffset) })
}
