package main

import (
	"container/heap"
	"fmt"
	"time"

	"purity/internal/cblock"
	"purity/internal/core"
	"purity/internal/dedup"
	"purity/internal/sim"
)

// simIdle separates the prefill from the first op on the sim clock, so the
// pass does not start inside the prefill's device backlog.
const simIdle = sim.Second

// simResult is what one sim pass measured. Latencies and the recovery time
// are on the simulated clock and repeat exactly for a seed; setup and the
// spans are wall time.
type simResult struct {
	setup             time.Duration
	readUs, writeUs   []float64
	recoverTime       sim.Time
	userBytes         int64
	reads, writes     int64
	attempted, failed int64
	readBack          int64
	before, after     core.StatsSnapshot
	gcCycles          int
	tr                *tracer
}

func (r *simResult) writeAmp() float64 {
	return ratio(float64(r.after.FlashStats.FlashBytesWritten-r.before.FlashStats.FlashBytesWritten), float64(r.userBytes))
}

// simClient is one slot on the sim clock: it issues its next op when the
// previous one completes.
type simClient struct {
	slot   int
	next   sim.Time
	gen    *slotGen
	writes int
}

type simHeap []*simClient

func (h simHeap) Len() int { return len(h) }
func (h simHeap) Less(i, j int) bool {
	if h[i].next != h[j].next {
		return h[i].next < h[j].next
	}
	return h[i].slot < h[j].slot
}
func (h simHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *simHeap) Push(x any)   { *h = append(*h, x.(*simClient)) }
func (h *simHeap) Pop() any {
	old := *h
	c := old[len(old)-1]
	*h = old[:len(old)-1]
	return c
}

// runSim issues the workload's mix from one goroutine with explicit
// sim.Time against a freshly formatted array, 8 simulated clients in a
// closed loop, until it has written s.simWrites times, with RunGC at the
// workload's byte cadence. Then it
// simulates power loss: the array is dropped without a flush, core.OpenAt
// recovers from the shelf, and every unit the pass wrote is read back and
// compared with its last acked content. The prefill is not read back:
// reading all of it would cost more than the rest of the run.
func runSim(s spec, seed uint64, traced bool) (*simResult, error) {
	res := &simResult{}
	if traced {
		res.tr = newTracer()
	}
	sb := res.tr.buf()
	start := time.Now()
	cfg := arrayConfig()
	a, err := core.Format(cfg)
	if err != nil {
		return nil, fmt.Errorf("format: %w", err)
	}
	o, now, err := populate(a, s, seed)
	if err != nil {
		return nil, err
	}
	res.setup = time.Since(start)
	res.before = a.Stats()

	h := make(simHeap, 0, slots)
	for slot := 0; slot < slots; slot++ {
		heap.Push(&h, &simClient{slot: slot, next: now + simIdle, gen: newSlotGen(o, slot)})
	}
	buf := make([]byte, s.ioSize)
	scratch := make([]byte, s.ioSize)
	end := now
	// RunGC holds the array's world lock, which the engine does not model
	// on the sim clock: an op that arrives before the last GC cycle ended
	// starts when it ends, and its latency counts the wait.
	var gcEnd sim.Time
	// The pass ends after a fixed number of writes rather than ops: the
	// engine checkpoints every BackgroundEvery*CheckpointEvery commits, so
	// the NVRAM log recovery replays is then the same length on every seed.
	for op := int64(0); res.writes < int64(s.simWrites); op++ {
		c := heap.Pop(&h).(*simClient)
		read, r := c.gen.next(s.readFrac)
		v := o.slotVolume(c.slot)
		u := o.unitOf(c.slot, r)
		off := u * int64(s.ioSize)
		res.attempted++
		issue := max(c.next, gcEnd)
		root := sb.begin("op", op, -1)
		var done sim.Time
		if read {
			sp := sb.begin("core.ReadAt", op, root)
			data, d, err := a.ReadAt(issue, o.vols[v], off, s.ioSize)
			sb.end(sp)
			if err == nil {
				err = o.check(data, v, u, scratch)
			}
			sb.end(root)
			if err != nil {
				res.failed++
				return res, fmt.Errorf("sim read: %w", err)
			}
			done = d
			res.reads++
			res.readUs = append(res.readUs, float64(done-c.next)/1e3)
		} else {
			w := writeID(c.slot, c.writes)
			o.fill(buf, v, u, w)
			if traced {
				timePrepare(sb, op, root, buf)
			}
			sp := sb.begin("core.WriteAt", op, root)
			d, err := a.WriteAt(issue, o.vols[v], off, buf)
			sb.end(sp)
			sb.end(root)
			if err != nil {
				res.failed++
				return res, fmt.Errorf("sim write: %w", err)
			}
			done = d
			o.ids[v][u] = w
			c.writes++
			res.writes++
			res.writeUs = append(res.writeUs, float64(done-c.next)/1e3)
			n := res.userBytes + int64(s.ioSize)
			if s.gcEvery > 0 && n/s.gcEvery != res.userBytes/s.gcEvery {
				sp := sb.begin("core.RunGC", op, -1)
				_, d, err := a.RunGC(done)
				sb.end(sp)
				if err != nil {
					res.failed++
					return res, fmt.Errorf("sim GC: %w", err)
				}
				done = d
				gcEnd = d
				res.gcCycles++
			}
			res.userBytes = n
		}
		c.next = done
		if done > end {
			end = done
		}
		heap.Push(&h, c)
	}
	res.after = a.Stats()

	// Power loss: drop the array with whatever it had not flushed.
	sh := a.Shelf()
	a = nil
	sp := sb.begin("core.Open", -1, -1)
	b, rs, err := core.OpenAt(cfg, sh, end, false)
	sb.end(sp)
	if err != nil {
		res.failed++
		return res, fmt.Errorf("recover: %w", err)
	}
	res.recoverTime = rs.TotalTime
	at := end + rs.TotalTime
	read, lost, err := readBack(b, o, at)
	res.readBack = read
	res.attempted += read
	res.failed += lost
	if err != nil {
		return res, err
	}
	return res, nil
}

// readBack reads every unit the pass wrote from the recovered array and
// counts those that differ from their last acked content. It returns the
// units read and the units lost.
func readBack(b *core.Array, o *oracle, at sim.Time) (read, lost int64, err error) {
	scratch := make([]byte, o.spec.ioSize)
	for v, vol := range o.vols {
		for u, w := range o.ids[v] {
			if w == 0 {
				continue
			}
			data, done, rerr := b.ReadAt(at, vol, int64(u)*int64(o.spec.ioSize), o.spec.ioSize)
			if rerr != nil {
				return read, lost + 1, fmt.Errorf("read back volume %d: %w", vol, rerr)
			}
			at = done
			read++
			if cerr := o.check(data, v, int64(u), scratch); cerr != nil {
				lost++
				if err == nil {
					err = fmt.Errorf("lost acked write after recovery: %w", cerr)
				}
			}
		}
	}
	return read, lost, err
}

// hashSink keeps the re-timed hashing from being optimised away.
var hashSink []uint64

// timePrepare re-runs the write path's prepare stages on the payload, one
// cblock extent at a time as the engine splits it, so their cost shows as
// spans of their own beside the core.WriteAt span.
func timePrepare(sb *spanBuf, op int64, parent int32, data []byte) {
	exts, err := cblock.SplitWrite(len(data))
	if err != nil {
		return
	}
	for _, ext := range exts {
		part := data[ext.Offset : ext.Offset+ext.Len]
		sp := sb.begin("cblock.Pack", op, parent)
		_, err := cblock.Pack(part, true)
		sb.end(sp)
		if err != nil {
			return
		}
		sp = sb.begin("dedup.HashBlocks", op, parent)
		hashSink = dedup.HashBlocks(part)
		sb.end(sp)
	}
}
