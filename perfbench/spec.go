package main

import (
	"bytes"
	"fmt"

	"purity/internal/cblock"
	"purity/internal/core"
	"purity/internal/sim"
	"purity/internal/workload"
)

// Issuing slots: 2 connections x 4 outstanding requests. The sim pass runs
// the same 8 slots as simulated clients.
const (
	conns        = 2
	slotsPerConn = 4
	slots        = conns * slotsPerConn
)

// spec is one named workload. The comments on specs say why each exists.
type spec struct {
	name      string
	ioSize    int
	readFrac  float64
	zipf      float64 // zipf skew of offsets; 0 = uniform
	class     workload.DataClass
	volumes   int   // volumes the slots write: clones when golden is set
	volBytes  int64 // bytes per volume
	golden    bool  // volumes are clones of one prefilled snapshot
	gcEvery   int64 // user bytes written between GC cycles; 0 = no GC
	simWrites int   // sim pass length, in writes
}

// The engine checkpoints every 2048 commits (BackgroundEvery x
// CheckpointEvery), counting the prefill's writes and volume creation.
// simWrites puts the simulated power loss late in a checkpoint interval, so
// recovery replays a long NVRAM log: 1930 commits on oltp, 1900 on vdi. On
// overwrite it falls 120 writes after the fifth GC cycle.

var specs = []spec{
	// Small ops, so fixed per-op costs dominate; 256 MiB of unique
	// database content is 8192 cblocks against a 4096-entry cblock cache,
	// so reads miss. The only workload where the read path leads.
	{name: "oltp", ioSize: 4 << 10, readFrac: 0.7, zipf: 0.99, class: workload.ClassDatabase,
		volumes: 2, volBytes: 128 << 20, simWrites: 5000},
	// Large duplicate-heavy writes to 8 clones of one golden image (all
	// four commit lanes busy): prepare, the dedup index, lane group
	// commit and NVRAM lead. The working set fits in the cache.
	{name: "vdi", ioSize: 32 << 10, readFrac: 0.2, class: workload.ClassVDI,
		volumes: 8, volBytes: 64 << 20, golden: true, simWrites: 9826},
	// Random overwrite of one full volume with an operator GC every
	// 16 MiB written: GC, segment seal/parity, erases and write
	// amplification lead. Not in BENCHMARK.json: its GC work depends on
	// which units a seed overwrites, so it does not repeat across seeds
	// (README.md has the figures).
	{name: "overwrite", ioSize: 64 << 10, readFrac: 0.1, class: workload.ClassDatabase,
		volumes: 1, volBytes: 64 << 20, gcEvery: 16 << 20, simWrites: 1400},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// contentSeed fixes the bytes the workloads write. The run's seed picks the
// op stream (which offsets, reads or writes, in what order), not the data:
// with seeded data, how many VDI extents are unique, and so the dedup and
// compression work of a run, varied by several percent from seed to seed.
const contentSeed = 0x5eed

// oracle knows the content of every block of every data volume: each unit
// holds the prefill (or golden image) until a slot overwrites it, and each
// slot owns a disjoint set of offsets, so the content of every op-sized
// unit is known exactly. Content is a pure function of (volume, unit, write
// id): write id 0 is the prefill, and the k-th write of slot s has id
// k*slots+s+1, so every slot writes the same sequence of payloads on every
// seed.
type oracle struct {
	spec   spec
	seed   uint64          // op stream seed
	vols   []core.VolumeID // data volumes (clones for vdi)
	golden core.VolumeID   // the golden volume, when spec.golden
	units  int64           // op-sized units per volume
	ids    [][]uint32      // [volume][unit] write id of the last acked write
}

func newOracle(s spec, seed uint64) *oracle {
	o := &oracle{spec: s, seed: seed, units: s.volBytes / int64(s.ioSize)}
	o.ids = make([][]uint32, s.volumes)
	for i := range o.ids {
		o.ids[i] = make([]uint32, o.units)
	}
	return o
}

// writeID is the id of a slot's k-th write.
func writeID(slot int, k int) uint32 { return uint32(k*slots + slot + 1) }

// shareOf returns how many slots share a volume.
func (o *oracle) shareOf() int { return slots / o.spec.volumes }

// slotVolume maps a slot to the volume it issues to: oltp gives each
// connection a volume, vdi each slot a clone, overwrite shares one.
func (o *oracle) slotVolume(slot int) int { return slot / o.shareOf() }

// slotUnits is how many units a slot owns in its volume.
func (o *oracle) slotUnits() int64 { return o.units / int64(o.shareOf()) }

// unitOf maps a slot's r-th owned unit to the volume unit: units are dealt
// round-robin, so a zipf rank of 0 is the hottest low offset of every slot.
func (o *oracle) unitOf(slot int, r int64) int64 {
	return r*int64(o.shareOf()) + int64(slot%o.shareOf())
}

// fill writes the content of unit u of volume v as write id w left it.
func (o *oracle) fill(dst []byte, v int, u int64, w uint32) {
	unitBlocks := uint64(o.spec.ioSize / cblock.SectorSize)
	volBlocks := uint64(o.spec.volBytes / cblock.SectorSize)
	g := workload.NewGen(contentSeed, o.spec.class)
	var idx uint64
	switch {
	case o.spec.golden && w == 0:
		g.Instance = uint64(o.golden)
		idx = uint64(u) * unitBlocks
	case w == 0:
		g.Instance = uint64(o.vols[v])
		idx = uint64(v)*volBlocks + uint64(u)*unitBlocks
	default:
		// Past every prefill index, so database content, which is
		// unique per block index, never repeats.
		g.Instance = uint64(o.vols[v])
		idx = uint64(o.spec.volumes)*volBlocks + uint64(w-1)*unitBlocks
	}
	g.Fill(dst, idx)
}

// check compares a read of unit u of volume v against its last acked
// write.
func (o *oracle) check(got []byte, v int, u int64, scratch []byte) error {
	o.fill(scratch, v, u, o.ids[v][u])
	if !bytes.Equal(got, scratch) {
		return fmt.Errorf("content mismatch: volume %d offset %d write id %d",
			o.vols[v], u*int64(o.spec.ioSize), o.ids[v][u])
	}
	return nil
}

// slotGen draws one slot's op sequence; the wire and sim passes use the
// same per-slot streams for one seed.
type slotGen struct {
	rng  *sim.Rand
	zipf *sim.Zipf
	n    int64
}

func newSlotGen(o *oracle, slot int) *slotGen {
	g := &slotGen{rng: sim.NewRand(o.seed*1_000_003 + uint64(slot)*7919 + 1), n: o.slotUnits()}
	if o.spec.zipf > 0 {
		g.zipf = sim.NewZipf(g.rng, g.n, o.spec.zipf)
	}
	return g
}

// next returns whether the op reads and which owned unit it targets.
func (g *slotGen) next(readFrac float64) (read bool, r int64) {
	read = g.rng.Float64() < readFrac
	if g.zipf != nil {
		return read, g.zipf.Next()
	}
	return read, g.rng.Int63n(g.n)
}
