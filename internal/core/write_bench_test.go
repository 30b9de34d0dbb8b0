package core

import (
	"encoding/binary"
	"testing"

	"purity/internal/sim"
)

// BenchmarkWriteStages measures the two halves of the staged write path
// separately, in real time:
//
//	prepare — the pure-CPU stage (compression + block hashing) that runs
//	          before the engine lock and scales with cores;
//	full    — a complete WriteAt (prepare + the serial commit section).
//
// The /dup variants write a duplicate of a sealed cblock, the common case
// on clone-heavy workloads: prepare finds it in the recent index and skips
// compression, and the commit section maps it without storing new bytes.
//
// commit cost = full − prepare, and the prepare/full ratio is the
// parallelizable fraction p of a write. This locates where a single
// write's CPU goes; for what concurrency actually buys, run E13 (the
// sharded-commit scaling experiment, measured not projected) on a
// multi-core host.

// compressiblePayload builds n bytes that look like database pages:
// random row headers with zeroed tails, ≈2-3× compressible, so the Pack
// stage does representative work.
func compressiblePayload(seed uint64, n int) []byte {
	buf := make([]byte, n)
	sim.NewRand(seed).Bytes(buf)
	for i := 0; i < n; i += 64 {
		end := i + 64
		if end > n {
			end = n
		}
		for j := i + 24; j < end; j++ {
			buf[j] = 0
		}
	}
	return buf
}

func benchWriteArray(b *testing.B) *Array {
	b.Helper()
	cfg := DefaultConfig()
	cfg.Shelf.Drives = 11
	cfg.Shelf.DriveConfig.Capacity = 512 << 20
	a, err := Format(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

func BenchmarkWriteStages(b *testing.B) {
	const io = 32 << 10
	const volBytes = int64(16 << 20)

	b.Run("prepare", func(b *testing.B) {
		a := benchWriteArray(b)
		data := compressiblePayload(1, io)
		b.SetBytes(io)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.prepareWrite(0, data); err != nil {
				b.Fatal(err)
			}
		}
	})

	// sealedDup returns an array whose volume holds one sealed copy of a
	// 32 KiB payload, and the payload.
	sealedDup := func(b *testing.B) (*Array, VolumeID, []byte, sim.Time) {
		a := benchWriteArray(b)
		vol, now, err := a.CreateVolume(0, "ws", volBytes)
		if err != nil {
			b.Fatal(err)
		}
		data := compressiblePayload(1, io)
		if now, err = a.WriteAt(now, vol, 0, data); err != nil {
			b.Fatal(err)
		}
		if now, err = a.FlushAll(now); err != nil {
			b.Fatal(err)
		}
		return a, vol, data, now
	}

	b.Run("prepare/dup", func(b *testing.B) {
		a, _, data, _ := sealedDup(b)
		b.SetBytes(io)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.prepareWrite(0, data); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("full/dup", func(b *testing.B) {
		a, vol, data, now := sealedDup(b)
		b.SetBytes(io)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := (int64(i+1) * io) % volBytes
			d, err := a.WriteAt(now, vol, off, data)
			if err != nil {
				b.Fatal(err)
			}
			now = d
		}
		b.StopTimer()
		if hits := a.Stats().DedupHits; hits < int64(b.N) {
			b.Fatalf("%d dedup hits over %d duplicate writes", hits, b.N)
		}
	})

	b.Run("full", func(b *testing.B) {
		a := benchWriteArray(b)
		vol, _, err := a.CreateVolume(0, "ws", volBytes)
		if err != nil {
			b.Fatal(err)
		}
		data := compressiblePayload(1, io)
		var now sim.Time
		b.SetBytes(io)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Stamp each sector with the iteration so content stays unique
			// and the dedup search takes its common miss path.
			for s := 0; s < io; s += 512 {
				binary.LittleEndian.PutUint64(data[s:], uint64(i)<<16|uint64(s))
			}
			off := (int64(i) * io) % volBytes
			d, err := a.WriteAt(now, vol, off, data)
			if err != nil {
				b.Fatal(err)
			}
			now = d
		}
	})
}
