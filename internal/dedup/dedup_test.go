package dedup

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"

	"purity/internal/sim"
)

func TestHashDistinct(t *testing.T) {
	a := make([]byte, BlockSize)
	b := make([]byte, BlockSize)
	b[0] = 1
	if Hash(a) == Hash(b) {
		t.Fatal("trivially different blocks collide")
	}
	if Hash(a) != Hash(a) {
		t.Fatal("hash not deterministic")
	}
}

func TestHashBlocks(t *testing.T) {
	data := make([]byte, 4*BlockSize)
	sim.NewRand(1).Bytes(data)
	hs := HashBlocks(data)
	if len(hs) != 4 {
		t.Fatalf("got %d hashes", len(hs))
	}
	for i := range hs {
		if hs[i] != Hash(data[i*BlockSize:(i+1)*BlockSize]) {
			t.Fatalf("hash %d mismatch", i)
		}
	}
}

func TestRecentIndexEviction(t *testing.T) {
	idx := NewRecentIndex(4)
	for i := uint64(0); i < 10; i++ {
		idx.Add(i, Candidate{Segment: i})
	}
	if idx.Len() != 4 {
		t.Fatalf("Len = %d, want 4", idx.Len())
	}
	// Oldest entries evicted, newest retained.
	if _, ok := idx.Lookup(0); ok {
		t.Fatal("entry 0 not evicted")
	}
	if c, ok := idx.Lookup(9); !ok || c.Segment != 9 {
		t.Fatal("entry 9 missing")
	}
	// A second Add for a present hash keeps the first candidate and does
	// not grow the index.
	idx.Add(9, Candidate{Segment: 99})
	if idx.Len() != 4 {
		t.Fatalf("Len after second Add = %d", idx.Len())
	}
	if c, _ := idx.Lookup(9); c.Segment != 9 {
		t.Fatalf("second Add replaced the first candidate: got segment %d", c.Segment)
	}
}

// TestRecentIndexForget: Forget drops an entry only while it still holds
// the stale candidate, and a forgotten key's ring slot neither evicts the
// key's later re-insertion early nor lets the index outgrow its capacity.
func TestRecentIndexForget(t *testing.T) {
	idx := NewRecentIndex(4)
	stale, fresh := Candidate{Segment: 1}, Candidate{Segment: 2}
	idx.Add(7, stale)
	idx.Forget(7, fresh) // not the recorded candidate: no-op
	if c, ok := idx.Lookup(7); !ok || c != stale {
		t.Fatalf("Forget of another candidate removed the entry: %v,%v", c, ok)
	}
	idx.Forget(7, stale)
	if _, ok := idx.Lookup(7); ok {
		t.Fatal("Forget left the stale entry in place")
	}
	// The hash is re-added with a new candidate; a late Forget of the old
	// one (another writer that also found it stale) must not delete it.
	idx.Add(7, fresh)
	idx.Forget(7, stale)
	if c, ok := idx.Lookup(7); !ok || c != fresh {
		t.Fatalf("Forget deleted a replaced entry: %v,%v", c, ok)
	}
	// 7 was re-inserted second; the first slot it owned is orphaned. Three
	// more inserts fill the ring without evicting it, the fourth evicts it.
	for h := uint64(100); h < 103; h++ {
		idx.Add(h, Candidate{Segment: h})
	}
	if _, ok := idx.Lookup(7); !ok || idx.Len() != 4 {
		t.Fatalf("orphaned ring slot evicted the re-added key (Len %d)", idx.Len())
	}
	idx.Add(103, Candidate{Segment: 103})
	if _, ok := idx.Lookup(7); ok {
		t.Fatal("re-added key outlived its FIFO window")
	}
	for h := uint64(200); h < 300; h++ {
		idx.Add(h, Candidate{Segment: h})
		if h%3 == 0 {
			idx.Forget(h-1, Candidate{Segment: h - 1})
		}
		if n := idx.Len(); n > 4 {
			t.Fatalf("Len %d exceeds capacity 4", n)
		}
	}
}

func TestShouldRecord(t *testing.T) {
	recorded := 0
	for i := 0; i < 64; i++ {
		if ShouldRecord(i, 8) {
			recorded++
		}
	}
	if recorded != 8 {
		t.Fatalf("recorded %d of 64 hashes at 1/8 sampling", recorded)
	}
	if !ShouldRecord(0, 8) {
		t.Fatal("block 0 must always be recorded")
	}
	if !ShouldRecord(5, 1) || !ShouldRecord(5, 0) {
		t.Fatal("sampling ≤ 1 must record everything")
	}
}

// fakeFetch serves one candidate cblock from memory.
func fakeFetch(sectors []byte) FetchFunc {
	return func(Candidate) ([]byte, bool) { return sectors, true }
}

func TestExtendAnchorFullMatch(t *testing.T) {
	blob := make([]byte, 16*BlockSize)
	sim.NewRand(2).Bytes(blob)
	// New write is an exact duplicate; anchor in the middle.
	run, ok := ExtendAnchor(blob, 7, Candidate{SectorIdx: 7}, fakeFetch(blob))
	if !ok {
		t.Fatal("anchor verify failed")
	}
	if run.Start != 0 || run.Count != 16 || run.CandStart != 0 {
		t.Fatalf("run = %+v, want full 16 blocks", run)
	}
}

func TestExtendAnchorMisaligned(t *testing.T) {
	// Candidate cblock holds blocks [A0..A15]. The new write contains
	// [junk, junk, A3..A12, junk]: the duplicate run starts at block 2 of
	// the write and sector 3 of the candidate — arbitrary alignment.
	cand := make([]byte, 16*BlockSize)
	sim.NewRand(3).Bytes(cand)
	write := make([]byte, 13*BlockSize)
	sim.NewRand(4).Bytes(write)
	copy(write[2*BlockSize:12*BlockSize], cand[3*BlockSize:13*BlockSize])

	// Anchor at write block 5 == candidate sector 6.
	run, ok := ExtendAnchor(write, 5, Candidate{SectorIdx: 6}, fakeFetch(cand))
	if !ok {
		t.Fatal("anchor verify failed")
	}
	if run.Start != 2 || run.Count != 10 || run.CandStart != 3 {
		t.Fatalf("run = %+v, want start 2 count 10 candStart 3", run)
	}
}

func TestExtendAnchorCollisionRejected(t *testing.T) {
	cand := make([]byte, 4*BlockSize)
	write := make([]byte, 4*BlockSize)
	sim.NewRand(5).Bytes(cand)
	sim.NewRand(6).Bytes(write)
	if _, ok := ExtendAnchor(write, 1, Candidate{SectorIdx: 1}, fakeFetch(cand)); ok {
		t.Fatal("non-matching anchor verified")
	}
}

func TestExtendAnchorStaleCandidate(t *testing.T) {
	write := make([]byte, 4*BlockSize)
	// Fetch failure (GC moved the data).
	if _, ok := ExtendAnchor(write, 0, Candidate{}, func(Candidate) ([]byte, bool) { return nil, false }); ok {
		t.Fatal("stale candidate accepted")
	}
	// SectorIdx outside the fetched cblock.
	small := make([]byte, 2*BlockSize)
	if _, ok := ExtendAnchor(write, 0, Candidate{SectorIdx: 9}, fakeFetch(small)); ok {
		t.Fatal("out-of-range sector index accepted")
	}
}

func TestAnchorDetectsRunsAtAllAlignments(t *testing.T) {
	// The paper's claim (§4.7): duplicate sequences of ≥ 8 blocks are
	// detected regardless of alignment, using sampled hashes. Simulate the
	// full pipeline: candidate written with 1/8 hash sampling; a new write
	// duplicates 8 of its blocks at every possible phase; at least one
	// sampled hash must hit, and anchor extension must recover ≥ the
	// overlapping run.
	r := sim.NewRand(7)
	cand := make([]byte, 64*BlockSize)
	r.Bytes(cand)
	candHashes := HashBlocks(cand)
	idx := NewRecentIndex(1024)
	for i, h := range candHashes {
		if ShouldRecord(i, Sampling) {
			idx.Add(h, Candidate{SectorIdx: uint64(i)})
		}
	}
	for phase := 0; phase < 40; phase++ {
		write := make([]byte, 16*BlockSize)
		r.Bytes(write)
		// 8 duplicate blocks from candidate offset `phase`, placed at
		// write block 4.
		copy(write[4*BlockSize:12*BlockSize], cand[phase*BlockSize:(phase+8)*BlockSize])

		found := false
		for i, h := range HashBlocks(write) {
			c, ok := idx.Lookup(h)
			if !ok {
				continue
			}
			run, ok := ExtendAnchor(write, i, c, fakeFetch(cand))
			if ok && run.Count >= 8 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("phase %d: 8-block duplicate run not detected", phase)
		}
	}
}

func TestExtendAnchorProperty(t *testing.T) {
	// The returned run must actually be byte-identical.
	f := func(seed uint64, anchorRaw, phaseRaw uint8) bool {
		r := sim.NewRand(seed)
		cand := make([]byte, 32*BlockSize)
		r.Bytes(cand)
		write := make([]byte, 16*BlockSize)
		r.Bytes(write)
		phase := int(phaseRaw) % 16
		copy(write[4*BlockSize:12*BlockSize], cand[phase*BlockSize:(phase+8)*BlockSize])
		anchor := 4 + int(anchorRaw)%8
		ci := phase + anchor - 4
		run, ok := ExtendAnchor(write, anchor, Candidate{SectorIdx: uint64(ci)}, fakeFetch(cand))
		if !ok {
			return false
		}
		a := write[run.Start*BlockSize : (run.Start+run.Count)*BlockSize]
		b := cand[run.CandStart*BlockSize : (run.CandStart+run.Count)*BlockSize]
		return bytes.Equal(a, b) && run.Count >= 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHash512(b *testing.B) {
	block := make([]byte, BlockSize)
	sim.NewRand(1).Bytes(block)
	b.SetBytes(BlockSize)
	for i := 0; i < b.N; i++ {
		Hash(block)
	}
}

// fifoModel is the map-plus-ring reference for one stripe: the first
// candidate for a hash is kept, each insertion takes the next ring slot and
// evicts the key that owns it, and Forget drops a key only if it still
// holds the given candidate, leaving its slot unowned.
type fifoModel struct {
	entries map[uint64]Candidate
	slot    map[uint64]int // ring slot owned by each live key
	ring    []uint64
	pos     int
}

func newFIFOModel(capacity int) *fifoModel {
	return &fifoModel{entries: map[uint64]Candidate{}, slot: map[uint64]int{}, ring: make([]uint64, capacity)}
}

func (m *fifoModel) add(h uint64, c Candidate) {
	if _, ok := m.entries[h]; ok {
		return
	}
	if old := m.ring[m.pos]; m.slot[old] == m.pos {
		if _, ok := m.entries[old]; ok {
			delete(m.entries, old)
			delete(m.slot, old)
		}
	}
	m.ring[m.pos] = h
	m.entries[h], m.slot[h] = c, m.pos
	m.pos = (m.pos + 1) % len(m.ring)
}

func (m *fifoModel) forget(h uint64, c Candidate) {
	if got, ok := m.entries[h]; ok && got == c {
		delete(m.entries, h)
		delete(m.slot, h)
	}
}

// TestRecentStripeAgainstModel churns one open-addressed stripe with random
// adds, forgets and lookups and compares every observation against the
// map-plus-ring model the table replaces. Small key spaces force constant
// probe-chain collisions and back-shift deletes.
func TestRecentStripeAgainstModel(t *testing.T) {
	for _, keySpace := range []uint64{7, 40, 1000} {
		st := newRecentStripe(16)
		model := newFIFOModel(16)
		rng := sim.NewRand(uint64(keySpace) * 7919)
		for step := 0; step < 20000; step++ {
			h := uint64(rng.Intn(int(keySpace)))
			switch op := rng.Intn(6); {
			case op < 2:
				var got Candidate
				i, ok := st.find(h)
				if ok {
					got = st.vals[i]
				}
				want, wok := model.entries[h]
				if ok != wok || got != want {
					t.Fatalf("keySpace %d step %d: find(%d) = %v,%v want %v,%v",
						keySpace, step, h, got, ok, want, wok)
				}
				continue
			case op == 2:
				// Forget either the recorded candidate or a stale one.
				c := model.entries[h]
				if rng.Intn(2) == 0 {
					c.Segment++
				}
				st.forget(h, c)
				model.forget(h, c)
			default:
				c := Candidate{Segment: uint64(step), SectorIdx: h}
				st.add(h, c)
				model.add(h, c)
			}
			if st.n != len(model.entries) {
				t.Fatalf("keySpace %d step %d: n = %d want %d", keySpace, step, st.n, len(model.entries))
			}
		}
	}
}

// TestRecentIndexAgainstStripedModel models the full striped index: each
// stripe is an independent FIFO of 1/Nth the capacity, routed by the low
// hash bits folded with the high half.
func TestRecentIndexAgainstStripedModel(t *testing.T) {
	const capacity = 64
	for _, keySpace := range []uint64{90, 4000} {
		idx := NewRecentIndex(capacity)
		nStripes := len(idx.stripes)
		if nStripes < 2 {
			t.Fatalf("capacity %d built %d stripes; want striping", capacity, nStripes)
		}
		models := make([]*fifoModel, nStripes)
		for i := range models {
			models[i] = newFIFOModel(capacity / nStripes)
		}
		rng := sim.NewRand(keySpace * 104729)
		for step := 0; step < 20000; step++ {
			// Keys spread over all 64 bits, so routing sees both halves.
			h := uint64(rng.Intn(int(keySpace))) * 0x9E3779B97F4A7C15
			m := models[(h^h>>32)&idx.mask]
			switch op := rng.Intn(7); {
			case op < 2:
				got, ok := idx.Lookup(h)
				want, wok := m.entries[h]
				if ok != wok || got != want {
					t.Fatalf("keySpace %d step %d: Lookup(%d) = %v,%v want %v,%v",
						keySpace, step, h, got, ok, want, wok)
				}
				continue
			case op == 2:
				c := m.entries[h]
				idx.Forget(h, c)
				m.forget(h, c)
			default:
				c := Candidate{Segment: uint64(step), SectorIdx: h}
				idx.Add(h, c)
				m.add(h, c)
			}
			total := 0
			for _, sm := range models {
				total += len(sm.entries)
			}
			if idx.Len() != total {
				t.Fatalf("keySpace %d step %d: Len = %d want %d", keySpace, step, idx.Len(), total)
			}
		}
	}
}

// TestRecentIndexConcurrent hammers the striped index from many goroutines
// with overlapping key ranges, mixing adds, lookups and forgets — run under
// -race by scripts/check.sh. Every hit must return a value some goroutine
// actually stored for that hash.
func TestRecentIndexConcurrent(t *testing.T) {
	idx := NewRecentIndex(1 << 10)
	const (
		workers = 8
		keys    = 512
		steps   = 4000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := sim.NewRand(uint64(w+1) * 31337)
			for i := 0; i < steps; i++ {
				h := uint64(rng.Intn(keys)) * 0x9E3779B9
				if i%3 == 0 {
					if c, ok := idx.Lookup(h); ok && c.SectorIdx != h {
						t.Errorf("worker %d: Lookup(%d) returned candidate for wrong hash %d", w, h, c.SectorIdx)
						return
					}
					continue
				}
				if i%5 == 1 {
					idx.Forget(h, Candidate{Segment: uint64(w), SectorIdx: h})
					continue
				}
				idx.Add(h, Candidate{Segment: uint64(w), SectorIdx: h})
			}
		}()
	}
	wg.Wait()
	if n := idx.Len(); n == 0 {
		t.Fatal("index empty after concurrent churn")
	}
}

// corePattern is internal/core's test payload: every 16-byte run is one
// random uint64's eight bytes, twice.
func corePattern(seed uint64, n int) []byte {
	out := make([]byte, n)
	r := sim.NewRand(seed)
	for i := 0; i < n; i += 16 {
		v := r.Uint64()
		for j := 0; j < 16 && i+j < n; j++ {
			out[i+j] = byte(v >> (j % 8 * 8))
		}
	}
	return out
}

// TestRecentIndexStripesSpreadPattern pins the stripe routing against the
// core tests' payload. An FNV-1a hash's low bits depend only on the low
// bits of each input byte, and corePattern repeats every byte an even
// number of times, so routing by the low bits crowds a few stripes. Over
// 8,192 blocks every stripe must hold within 25% of its even share (the
// binomial spread is about 6%).
func TestRecentIndexStripesSpreadPattern(t *testing.T) {
	idx := NewRecentIndex(1 << 16)
	n := len(idx.stripes)
	if n < 16 {
		t.Fatalf("%d stripes; the check needs 16", n)
	}
	counts := make([]int, n)
	stripeOf := map[*recentStripe]int{}
	for i, s := range idx.stripes {
		stripeOf[s] = i
	}
	blocks := 0
	for seed := uint64(1); seed <= 8; seed++ {
		for _, h := range HashBlocks(corePattern(seed, 512<<10)) {
			counts[stripeOf[idx.stripe(h)]]++
			blocks++
		}
	}
	share := float64(blocks) / float64(n)
	for i, c := range counts {
		if float64(c) < 0.75*share || float64(c) > 1.25*share {
			t.Fatalf("stripe %d holds %d of %d blocks, want %.0f ± 25%% (all: %v)", i, c, blocks, share, counts)
		}
	}
}
