package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"purity/internal/client"
	"purity/internal/controller"
	"purity/internal/server"
)

// warmup runs before the measured window of a workload without GC, so the
// cache and the Go heap settle first.
const warmup = time.Second

// gcCycleNominal is about how long one 16 MiB overwrite cycle (writes plus
// GC) took on a 2-core x86 host when the benchmark was defined. A GC
// workload measures a fixed number of cycles, seconds/gcCycleNominal, so
// its window lasts about `seconds` there.
const gcCycleNominal = 1500 * time.Millisecond

// wireRig is the array served in-process on loopback TCP in the shipping
// configuration (default server.Config, Pace off), dialled by the tagged
// pipelined protocol.
type wireRig struct {
	pair    *controller.Pair
	srv     *server.Server
	l       net.Listener
	served  chan error
	clients []*client.Client
	o       *oracle
}

// newWireRig formats, prefills, serves and dials; the time it takes is one
// setup_s sample.
func newWireRig(s spec, seed uint64) (*wireRig, time.Duration, error) {
	start := time.Now()
	pair, err := controller.NewPair(controller.DefaultConfig(), arrayConfig())
	if err != nil {
		return nil, 0, fmt.Errorf("format: %w", err)
	}
	o, _, err := populate(pair.Array(), s, seed)
	if err != nil {
		return nil, 0, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	r := &wireRig{pair: pair, srv: server.NewWithConfig(pair, controller.Primary, server.DefaultConfig()),
		l: l, served: make(chan error, 1), o: o}
	go func() { r.served <- r.srv.Serve(l) }()
	for i := 0; i < conns; i++ {
		c, err := client.DialPipelined(l.Addr().String())
		if err != nil {
			return nil, 0, errors.Join(fmt.Errorf("dial: %w", err), r.close())
		}
		r.clients = append(r.clients, c)
	}
	return r, time.Since(start), nil
}

// close hangs up, drains the server and waits for Serve to return.
func (r *wireRig) close() error {
	var errs []error
	for _, c := range r.clients {
		errs = append(errs, c.Close())
	}
	errs = append(errs, r.srv.Shutdown(10*time.Second))
	errs = append(errs, <-r.served)
	return errors.Join(errs...)
}

// protocolErrors counts wire-level faults the server saw: frames it could
// not parse or that broke the protocol. Any of them fails the run.
func (r *wireRig) protocolErrors() int64 {
	f := r.srv.Frontend()
	return f.MalformedFrames.Load() + f.OversizedFrames.Load() + f.DuplicateTags.Load() + f.RejectedReads.Load()
}

const (
	opRead = iota
	opWrite
	opGC
)

// opRec is one completed op of a slot, timed from the benchmark's side.
type opRec struct {
	end  time.Duration // completion, since the pass epoch
	lat  time.Duration
	kind uint8
}

// wireResult is what one wire pass measured. Latencies, ops and GC time
// cover only the measured window; the runtime and server counters cover
// the whole pass.
type wireResult struct {
	setup                 time.Duration
	window                time.Duration
	ops                   int64
	readUs, writeUs       []float64
	gcTime                time.Duration
	gcCycles              int
	attempted, failed     int64
	errs                  []error
	totalOps              int64
	heapMean, heapPeak    float64
	rt                    runtimeDelta
	admissionWaits        int64
	protocolErrors        int64
	laneRecords, laneLead int64
	laneWaits, laneCommit int64
	tr                    *tracer
}

func (w *wireResult) iops() float64 { return ratio(float64(w.ops), w.window.Seconds()) }

// runWire serves a freshly populated array and drives it with a closed
// loop of 8 slots (2 connections x 4 outstanding requests) for `seconds`
// after warmup. A workload with GC measures a fixed number of whole GC
// cycles instead: the window opens when the first GC completes and closes
// when the cycle count is reached. Each cycle costs more than the last, as
// the address map grows, so a fixed window would hold a varying share of
// cheap and dear cycles; a fixed count does the same work on every run.
func runWire(s spec, seed uint64, seconds time.Duration, traced bool) (*wireResult, error) {
	rig, setup, err := newWireRig(s, seed)
	if err != nil {
		return nil, err
	}
	res := &wireResult{setup: setup}
	if traced {
		res.tr = newTracer()
	}
	arr := rig.pair.Array()
	lanes0 := arr.LaneTelemetry()
	rt0 := takeRuntimeSnap()
	heap := startHeapSampler(10 * time.Millisecond)

	d := &driver{rig: rig, spec: s, epoch: time.Now(), gcDone: make(chan time.Duration), stopCh: make(chan struct{})}
	slotRes := make([]slotResult, slots)
	var wg sync.WaitGroup
	for slot := 0; slot < slots; slot++ {
		sb := res.tr.buf()
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			slotRes[slot] = d.runSlot(slot, newSlotGen(rig.o, slot), sb)
		}(slot)
	}

	var wStart, wEnd time.Duration
	var windowErr error
	if s.gcEvery == 0 {
		wStart, wEnd = warmup, warmup+seconds
		time.Sleep(time.Until(d.epoch.Add(wEnd)))
	} else {
		cycles := max(2, int((seconds+gcCycleNominal/2)/gcCycleNominal))
		limit := time.NewTimer(warmup + 6*seconds + time.Minute)
		seen := 0
	wait:
		for {
			select {
			case t := <-d.gcDone:
				if seen == 0 {
					wStart = t
				}
				if seen == cycles {
					wEnd = t
					break wait
				}
				seen++
			case <-limit.C:
				windowErr = fmt.Errorf("wire pass: %d of %d GC cycles completed in %v", seen, cycles, warmup+6*seconds+time.Minute)
				break wait
			}
		}
		limit.Stop()
	}
	d.stop.Store(true)
	close(d.stopCh)
	wg.Wait()
	res.heapMean, res.heapPeak = heap.stopMeanPeak()
	res.rt = rt0.to(takeRuntimeSnap())
	lanes1 := arr.LaneTelemetry()
	for i, l := range lanes1.Lanes {
		l0 := lanes0.Lanes[i]
		res.laneRecords += l.BatchRecords - l0.BatchRecords
		res.laneLead += l.BatchesLed - l0.BatchesLed
		res.laneWaits += l.QueueWaits - l0.QueueWaits
		res.laneCommit += l.Commits - l0.Commits
	}
	res.admissionWaits = rig.srv.Frontend().AdmissionWaits.Load()
	res.protocolErrors = rig.protocolErrors()
	if err := rig.close(); err != nil {
		res.errs = append(res.errs, fmt.Errorf("teardown: %w", err))
		res.failed++
	}
	if windowErr != nil {
		return nil, windowErr
	}

	res.window = wEnd - wStart
	for _, sr := range slotRes {
		res.attempted += sr.attempted
		res.failed += sr.failed
		if sr.err != nil {
			res.errs = append(res.errs, sr.err)
		}
		for _, r := range sr.recs {
			if r.kind != opGC {
				res.totalOps++
			}
			if r.end <= wStart || r.end > wEnd {
				continue
			}
			switch r.kind {
			case opRead:
				res.ops++
				res.readUs = append(res.readUs, float64(r.lat)/1e3)
			case opWrite:
				res.ops++
				res.writeUs = append(res.writeUs, float64(r.lat)/1e3)
			case opGC:
				res.gcTime += r.lat
				res.gcCycles++
			}
		}
	}
	return res, nil
}

// driver is the state the slots of one wire pass share.
type driver struct {
	rig     *wireRig
	spec    spec
	epoch   time.Time
	stop    atomic.Bool
	written atomic.Int64
	gcDone  chan time.Duration // GC completion times, until stopCh closes
	stopCh  chan struct{}
}

type slotResult struct {
	recs              []opRec
	attempted, failed int64
	err               error
}

// runSlot issues one slot's ops until the pass stops or an op fails. Each
// read is checked byte for byte against the last acked content. A failed
// op ends the slot: what it left on the array is unknown.
func (d *driver) runSlot(slot int, gen *slotGen, sb *spanBuf) slotResult {
	var res slotResult
	o, s := d.rig.o, d.spec
	c := d.rig.clients[slot/slotsPerConn]
	v := o.slotVolume(slot)
	vol := uint64(o.vols[v])
	buf := make([]byte, s.ioSize)
	scratch := make([]byte, s.ioSize)
	opID := int64(slot) << 40
	writes := 0
	fail := func(err error) slotResult {
		res.failed++
		res.err = fmt.Errorf("slot %d: %w", slot, err)
		return res
	}
	for ; !d.stop.Load(); opID++ {
		read, r := gen.next(s.readFrac)
		u := o.unitOf(slot, r)
		off := u * int64(s.ioSize)
		res.attempted++
		root := sb.begin("op", opID, -1)
		if read {
			t0 := time.Now()
			sp := sb.begin("client.ReadAt", opID, root)
			data, err := c.ReadAt(vol, off, s.ioSize)
			sb.end(sp)
			t1 := time.Now()
			if err == nil {
				err = o.check(data, v, u, scratch)
			}
			sb.end(root)
			if err != nil {
				return fail(err)
			}
			res.recs = append(res.recs, opRec{end: t1.Sub(d.epoch), lat: t1.Sub(t0), kind: opRead})
			continue
		}
		w := writeID(slot, writes)
		o.fill(buf, v, u, w)
		t0 := time.Now()
		sp := sb.begin("client.WriteAt", opID, root)
		err := c.WriteAt(vol, off, buf)
		sb.end(sp)
		t1 := time.Now()
		sb.end(root)
		if err != nil {
			return fail(err)
		}
		o.ids[v][u] = w
		writes++
		res.recs = append(res.recs, opRec{end: t1.Sub(d.epoch), lat: t1.Sub(t0), kind: opWrite})
		if s.gcEvery == 0 {
			continue
		}
		if n := d.written.Add(int64(s.ioSize)); n/s.gcEvery != (n-int64(s.ioSize))/s.gcEvery {
			t0 := time.Now()
			sp := sb.begin("client.GC", opID, -1)
			_, err := d.rig.clients[0].GC()
			sb.end(sp)
			t1 := time.Now()
			if err != nil {
				return fail(fmt.Errorf("GC: %w", err))
			}
			res.recs = append(res.recs, opRec{end: t1.Sub(d.epoch), lat: t1.Sub(t0), kind: opGC})
			select {
			case d.gcDone <- t1.Sub(d.epoch):
			case <-d.stopCh:
			}
		}
	}
	return res
}
