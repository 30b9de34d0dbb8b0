package ssd

import (
	"bytes"
	"testing"
	"testing/quick"

	"purity/internal/sim"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Capacity = 16 << 20
	cfg.EraseBlockSize = 256 << 10
	return cfg
}

func newDevice(t *testing.T) *Device {
	t.Helper()
	d, err := New("ssd0", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewRejectsBadConfig(t *testing.T) {
	bad := []Config{
		{},
		{Capacity: 1 << 20, EraseBlockSize: 3000, PageSize: 4096, Dies: 4},    // cap not multiple
		{Capacity: 1 << 20, EraseBlockSize: 1 << 18, PageSize: 4095, Dies: 4}, // block not multiple of page
		{Capacity: -5, EraseBlockSize: 1 << 18, PageSize: 4096, Dies: 4},
	}
	for i, cfg := range bad {
		if _, err := New("x", cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	d := newDevice(t)
	data := make([]byte, 12345)
	sim.NewRand(1).Bytes(data)
	if _, err := d.WriteAt(0, data, 4096); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := d.ReadAt(0, got, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	d := newDevice(t)
	got := make([]byte, 8192)
	got[0] = 0xff
	if _, err := d.ReadAt(0, got, 1<<20); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("unwritten byte %d = %#x", i, b)
		}
	}
}

// TestZeroPagesHoldNoMemory checks the model's sparse storage: pages that
// only ever receive zeros are not allocated yet read back as zeros, a
// write straddling page and block boundaries round-trips, and zeros
// written over data replace it.
func TestZeroPagesHoldNoMemory(t *testing.T) {
	d := newDevice(t)
	ps := d.cfg.PageSize
	allocated := func() int {
		n := 0
		for _, pages := range d.data {
			for _, pg := range pages {
				if pg != nil {
					n++
				}
			}
		}
		return n
	}
	// Eight pages starting mid-page, just before a block boundary: only the
	// two ranges holding nonzero bytes cost memory.
	buf := make([]byte, 8*ps)
	buf[10] = 1
	buf[5*ps+7] = 2
	off := int64(d.cfg.EraseBlockSize) - int64(3*ps) - 100
	if _, err := d.WriteAt(0, buf, off); err != nil {
		t.Fatal(err)
	}
	if got := allocated(); got != 2 {
		t.Fatalf("%d pages allocated, want 2", got)
	}
	got := make([]byte, len(buf))
	if _, err := d.ReadAt(0, got, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("sparse write did not round-trip")
	}
	// Zeros over data: the page stays allocated and now reads as zeros.
	if _, err := d.WriteAt(0, make([]byte, 16), off); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadAt(0, got[:16], off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:16], make([]byte, 16)) {
		t.Fatalf("zeros over data read back %x", got[:16])
	}
}

func TestBounds(t *testing.T) {
	d := newDevice(t)
	buf := make([]byte, 10)
	if _, err := d.ReadAt(0, buf, d.Capacity()-5); err != ErrBounds {
		t.Fatalf("read past end: %v", err)
	}
	if _, err := d.WriteAt(0, buf, -1); err != ErrBounds {
		t.Fatalf("negative write: %v", err)
	}
	if _, err := d.Erase(0, 100); err != ErrBounds {
		t.Fatalf("unaligned erase: %v", err)
	}
}

func TestFailRevive(t *testing.T) {
	d := newDevice(t)
	d.Fail()
	if !d.Failed() {
		t.Fatal("Failed() false after Fail")
	}
	buf := make([]byte, 10)
	if _, err := d.ReadAt(0, buf, 0); err != ErrFailed {
		t.Fatalf("read on failed drive: %v", err)
	}
	if _, err := d.WriteAt(0, buf, 0); err != ErrFailed {
		t.Fatalf("write on failed drive: %v", err)
	}
	// Data survives a pull/reinsert.
	d.Revive()
	if _, err := d.WriteAt(0, []byte("persist"), 0); err != nil {
		t.Fatal(err)
	}
	d.Fail()
	d.Revive()
	got := make([]byte, 7)
	if _, err := d.ReadAt(0, got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "persist" {
		t.Fatalf("data lost across pull: %q", got)
	}
}

func TestSequentialWriteLatency(t *testing.T) {
	d := newDevice(t)
	cfg := d.Config()
	data := make([]byte, cfg.PageSize)
	done, err := d.WriteAt(0, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	// One page programmed plus a 4 KiB bus transfer.
	expected := cfg.ProgramLatency + sim.Time(int64(cfg.TransferPerKiB)*4)
	if done != expected {
		t.Fatalf("sequential page program done at %v, want %v", done, expected)
	}
}

func TestRandomWritePenalty(t *testing.T) {
	d := newDevice(t)
	cfg := d.Config()
	page := make([]byte, cfg.PageSize)

	// First write: sequential.
	if _, err := d.WriteAt(0, page, 0); err != nil {
		t.Fatal(err)
	}
	s0 := d.Stats()
	if s0.RandomWrites != 0 {
		t.Fatalf("first write counted as random")
	}
	// Overwrite the same page: random, penalized.
	if _, err := d.WriteAt(sim.Second, page, 0); err != nil {
		t.Fatal(err)
	}
	s1 := d.Stats()
	if s1.RandomWrites != 1 {
		t.Fatalf("RandomWrites = %d, want 1", s1.RandomWrites)
	}
	if s1.FlashBytesWritten <= s1.HostBytesWritten {
		t.Fatalf("no write amplification: flash=%d host=%d", s1.FlashBytesWritten, s1.HostBytesWritten)
	}
	if d.WriteAmplification() <= 1 {
		t.Fatalf("WriteAmplification = %v, want > 1", d.WriteAmplification())
	}
}

func TestAppendAfterEraseIsSequential(t *testing.T) {
	d := newDevice(t)
	cfg := d.Config()
	page := make([]byte, cfg.PageSize)
	if _, err := d.WriteAt(0, page, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Erase(sim.Second, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteAt(2*sim.Second, page, 0); err != nil {
		t.Fatal(err)
	}
	if s := d.Stats(); s.RandomWrites != 0 {
		t.Fatalf("append after erase counted as random (%d)", s.RandomWrites)
	}
}

func TestReadStallsBehindProgram(t *testing.T) {
	// A read issued to a die mid-program completes only after the program:
	// the latency spike Purity's scheduler exists to avoid.
	d := newDevice(t)
	cfg := d.Config()
	big := make([]byte, 4*cfg.PageSize)
	wDone, err := d.WriteAt(0, big, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, cfg.PageSize)
	rDone, err := d.ReadAt(10*sim.Microsecond, buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rDone < wDone {
		t.Fatalf("read finished at %v, before program at %v", rDone, wDone)
	}
	if s := d.Stats(); s.StalledReads != 1 {
		t.Fatalf("StalledReads = %d, want 1", s.StalledReads)
	}
	if !d.BusyAt(10 * sim.Microsecond) {
		t.Fatal("BusyAt false during program")
	}
	if d.BusyAt(wDone + rDone) {
		t.Fatal("BusyAt true after all work done")
	}
}

func TestReadsOnSeparateDiesDontStall(t *testing.T) {
	d := newDevice(t)
	cfg := d.Config()
	// Write to die 0 (offset 0); read from die 1 (one DieStripe over): the
	// channels are independent, so no interference.
	page := make([]byte, cfg.PageSize)
	if _, err := d.WriteAt(0, page, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, cfg.PageSize)
	done, err := d.ReadAt(0, buf, int64(cfg.DieStripe))
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.ReadLatency + sim.Time(int64(cfg.TransferPerKiB)*4)
	if done != want {
		t.Fatalf("cross-die read done at %v, want %v", done, want)
	}
	// A read aimed at the writing die IS busy; BusyRangeAt sees exactly that.
	if !d.BusyRangeAt(sim.Microsecond, 0, cfg.PageSize) {
		t.Fatal("BusyRangeAt false on the programming die")
	}
	// Die 2 never saw work: idle.
	if d.BusyRangeAt(sim.Microsecond, 2*int64(cfg.DieStripe), cfg.PageSize) {
		t.Fatal("BusyRangeAt true on an idle die")
	}
}

func TestEraseWearAndFailure(t *testing.T) {
	cfg := testConfig()
	cfg.PELimit = 10
	cfg.WearFailureProb = 1.0 // deterministic failure past limit
	d, err := New("worn", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.PELimit; i++ {
		if _, err := d.Erase(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if d.Wear(0) != cfg.PELimit {
		t.Fatalf("wear = %d, want %d", d.Wear(0), cfg.PELimit)
	}
	// One more erase pushes past the limit: block goes bad.
	if _, err := d.Erase(0, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if _, err := d.ReadAt(0, buf, 0); err != ErrCorrupt {
		t.Fatalf("read of worn-out block: %v, want ErrCorrupt", err)
	}
	// Erasing again clears the bad flag (fresh mapping), matching the
	// paper's observation that scrub+rewrite keeps worn flash usable.
	if _, err := d.Erase(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadAt(0, buf, 0); err != ErrCorrupt {
		// Still past the limit with prob 1.0, so it goes bad again.
		t.Logf("block failed again as configured: %v", err)
	}
}

func TestCorruptBlockDetected(t *testing.T) {
	d := newDevice(t)
	if _, err := d.WriteAt(0, []byte("abc"), 0); err != nil {
		t.Fatal(err)
	}
	d.CorruptBlock(0)
	buf := make([]byte, 3)
	if _, err := d.ReadAt(0, buf, 0); err != ErrCorrupt {
		t.Fatalf("read of corrupted block: %v, want ErrCorrupt", err)
	}
	if d.Stats().BadBlocks != 1 {
		t.Fatalf("BadBlocks = %d, want 1", d.Stats().BadBlocks)
	}
}

func TestStatsAccounting(t *testing.T) {
	d := newDevice(t)
	data := make([]byte, 10000)
	if _, err := d.WriteAt(0, data, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5000)
	if _, err := d.ReadAt(0, buf, 0); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.HostBytesWritten != 10000 || s.HostBytesRead != 5000 {
		t.Fatalf("stats = %+v", s)
	}
	if s.FlashBytesWritten != 10000 {
		t.Fatalf("sequential write amplified: %d", s.FlashBytesWritten)
	}
}

func TestRoundTripProperty(t *testing.T) {
	d := newDevice(t)
	capacity := d.Capacity()
	f := func(seed uint64, offRaw uint32, lenRaw uint16) bool {
		n := int(lenRaw)%8192 + 1
		off := int64(offRaw) % (capacity - int64(n))
		data := make([]byte, n)
		sim.NewRand(seed).Bytes(data)
		if _, err := d.WriteAt(0, data, off); err != nil {
			return false
		}
		got := make([]byte, n)
		if _, err := d.ReadAt(0, got, off); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyMonotonicity(t *testing.T) {
	// Completion times never precede issue times, and per-die busy times
	// only move forward.
	d := newDevice(t)
	r := sim.NewRand(3)
	page := make([]byte, d.Config().PageSize)
	now := sim.Time(0)
	for i := 0; i < 200; i++ {
		off := int64(r.Intn(60)) * int64(d.Config().PageSize)
		var done sim.Time
		var err error
		if r.Intn(2) == 0 {
			done, err = d.WriteAt(now, page, off)
		} else {
			done, err = d.ReadAt(now, page, off)
		}
		if err != nil {
			t.Fatal(err)
		}
		if done < now {
			t.Fatalf("op %d completed at %v before issue at %v", i, done, now)
		}
		now += sim.Time(r.Intn(int(sim.Millisecond)))
	}
}

func BenchmarkWrite128KiB(b *testing.B) {
	d, _ := New("bench", DefaultConfig())
	data := make([]byte, 128<<10)
	b.SetBytes(int64(len(data)))
	var now sim.Time
	for i := 0; i < b.N; i++ {
		off := (int64(i) * int64(len(data))) % (d.Capacity() - int64(len(data)))
		off -= off % int64(len(data))
		var err error
		now, err = d.WriteAt(now, data, off)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func TestFlipBitIsSilentAndCounted(t *testing.T) {
	d := newDevice(t)
	data := make([]byte, 8192)
	sim.NewRand(5).Bytes(data)
	if _, err := d.WriteAt(0, data, 0); err != nil {
		t.Fatal(err)
	}
	d.FlipBit(100, 3)
	got := make([]byte, len(data))
	if _, err := d.ReadAt(0, got, 0); err != nil {
		t.Fatalf("flip must be silent, read returned %v", err)
	}
	for i := range got {
		want := data[i]
		if i == 100 {
			want ^= 1 << 3
		}
		if got[i] != want {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], want)
		}
	}
	if n := d.Stats().BitFlips; n != 1 {
		t.Fatalf("BitFlips = %d, want 1", n)
	}
	// Rewriting the range clears the damage — the repair path scrub uses.
	if _, err := d.WriteAt(0, data, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadAt(0, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("rewrite did not clear the flipped bit")
	}
}

func TestBitFlipRateInjectsLatentErrors(t *testing.T) {
	cfg := testConfig()
	cfg.BitFlipRate = 1.0 // every program flips one bit in the touched block
	d, err := New("flaky", cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4096)
	sim.NewRand(6).Bytes(data)
	if _, err := d.WriteAt(0, data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := d.ReadAt(0, got, 0); err != nil {
		t.Fatalf("latent error must be silent, read returned %v", err)
	}
	diff := 0
	for i := range got {
		for b := got[i] ^ data[i]; b != 0; b &= b - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bits differ, want exactly 1", diff)
	}
	if n := d.Stats().BitFlips; n != 1 {
		t.Fatalf("BitFlips = %d, want 1", n)
	}
}
