// Command perfbench is the repository's benchmark: it runs one named
// workload against the array in the configuration purity-server ships
// with, in two passes, and prints every metric by name and unit.
//
// The wire pass (wall clock) serves the array in-process on loopback TCP
// and drives it through the tagged pipelined client with a closed loop of 2
// connections x 4 outstanding requests. The sim pass (simulated clock)
// issues the same mix and seed from one goroutine with explicit sim.Time,
// then simulates power loss and recovers. Every read is checked byte for
// byte, and every block is read back after recovery; any mismatch, error or
// protocol fault fails the run.
//
// Usage:
//
//	perfbench -workload oltp|vdi|overwrite -seed N -seconds S -trace 0|1 [-spans DIR]
//
// With -trace 0 it prints the end-to-end metrics. With -trace 1 it runs an
// untraced wire pass, a traced wire pass and a traced sim pass, writes the
// spans under DIR and prints the per-layer metrics and the tracing
// overhead. The last line of output is one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: oltp, vdi or overwrite")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured wall seconds of the wire pass")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	spans := flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	s, err := findSpec(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		log.Fatalln("need -workload oltp|vdi|overwrite, -seconds > 0, -trace 0|1:", err)
	}
	secs := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 1 {
		res, err = runTraced(s, *seed, secs, *spans)
	} else {
		res, err = runEndToEnd(s, *seed, secs)
	}
	if err != nil {
		log.Println(err)
		res.Correct = false
		if res.Failed == 0 {
			res.Failed = 1
		}
	}
	if res.Attempted == 0 {
		res.Attempted = 1
	}
	printResult(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// printMetrics prints one metric a line, sorted by name.
func printMetrics(prefix string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s%-36s %14.4f %s\n", prefix, n, m[n].Value, m[n].Unit)
	}
}

// printResult prints each metric on its own line, then the JSON line.
func printResult(res result) {
	printMetrics("", res.Metrics)
	out, err := json.Marshal(res)
	if err != nil {
		log.Fatalln(err)
	}
	fmt.Println(string(out))
}

// gated are the end-to-end metrics of the JSON result, the ones
// BENCHMARK.json bounds. They repeat across seeds well inside their bounds
// on oltp and vdi.
var gated = []string{
	"iops", "read_p50_us", "write_p50_us", "heap_live_mib",
	"sim_read_mean_us", "sim_write_mean_us", "reduction_ratio", "write_amp", "setup_s",
}

// runEndToEnd runs the untraced wire and sim passes and one more setup,
// and reports the end-to-end metrics. setup_s is the median of the three
// setups: the wire rig's, the sim array's and the extra one.
//
// The metrics outside gated are printed as diagnostics only: wall-clock
// p99s on a shared 2-core host, sim p99.9s of a few thousand samples (the
// sim clock's latencies are discrete, so its percentiles jump between a
// few values), and the sim recovery time, which is a function of the
// write count and the same on nearly every seed.
func runEndToEnd(s spec, seed uint64, seconds time.Duration) (result, error) {
	res := result{Metrics: map[string]metric{}}
	t0 := time.Now()
	w, err := runWire(s, seed, seconds, false)
	if err != nil {
		return res, fmt.Errorf("wire pass: %w", err)
	}
	res.Attempted += w.attempted
	res.Failed += w.failed + w.protocolErrors
	for _, e := range w.errs {
		log.Println(e)
	}
	fmt.Printf("wire: %d ops in %v (%d reads, %d writes, %d GC cycles taking %v); pass took %v\n",
		w.ops, w.window.Round(time.Millisecond), len(w.readUs), len(w.writeUs), w.gcCycles,
		w.gcTime.Round(time.Millisecond), time.Since(t0).Round(time.Millisecond))
	runtime.GC()
	t0 = time.Now()

	sm, err := runSim(s, seed, false)
	if sm != nil {
		res.Attempted += sm.attempted
		res.Failed += sm.failed
	}
	if err != nil {
		return res, fmt.Errorf("sim pass: %w", err)
	}
	fmt.Printf("sim: %d reads, %d writes, %d GC cycles, %.1f MiB written, %d units read back after recovery; pass took %v\n",
		sm.reads, sm.writes, sm.gcCycles, float64(sm.userBytes)/(1<<20), sm.readBack, time.Since(t0).Round(time.Millisecond))
	runtime.GC()

	extra, err := timeSetup(s, seed)
	if err != nil {
		return res, fmt.Errorf("setup: %w", err)
	}
	setups := []float64{w.setup.Seconds(), sm.setup.Seconds(), extra.Seconds()}
	fmt.Printf("setup samples: %.3f %.3f %.3f s\n", setups[0], setups[1], setups[2])

	m := map[string]metric{
		"iops":              {w.iops(), "ops/s"},
		"read_p50_us":       {percentile(w.readUs, 50), "us"},
		"read_p99_us":       {percentile(w.readUs, 99), "us"},
		"write_p50_us":      {percentile(w.writeUs, 50), "us"},
		"write_p99_us":      {percentile(w.writeUs, 99), "us"},
		"sim_read_mean_us":  {mean(sm.readUs), "us"},
		"sim_read_p999_us":  {percentile(sm.readUs, 99.9), "us"},
		"sim_write_mean_us": {mean(sm.writeUs), "us"},
		"sim_write_p999_us": {percentile(sm.writeUs, 99.9), "us"},
		"sim_recover_ms":    {float64(sm.recoverTime) / 1e6, "ms"},
		"reduction_ratio":   {sm.after.ReductionRatio, "x"},
		"write_amp":         {sm.writeAmp(), "ratio"},
		"heap_live_mib":     {w.heapMean / (1 << 20), "MiB"},
		"heap_peak_mib":     {w.heapPeak / (1 << 20), "MiB"},
		"setup_s":           {percentile(setups, 50), "s"},
	}
	for _, n := range gated {
		res.Metrics[n] = m[n]
		delete(m, n)
	}
	m["fail_ratio"] = metric{ratio(float64(res.Failed), float64(res.Attempted)), "ratio"}
	fmt.Printf("samples: wire %d reads, %d writes; sim %d reads, %d writes\n", len(w.readUs), len(w.writeUs), sm.reads, sm.writes)
	printMetrics("diagnostic ", m)
	res.Correct = res.Failed == 0
	return res, nil
}

// timeSetup formats and populates one more array, only to time it.
func timeSetup(s spec, seed uint64) (time.Duration, error) {
	start := time.Now()
	r, _, err := newWireRig(s, seed)
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	return d, r.close()
}

// runTraced runs an untraced wire pass for the baseline and the counters,
// then a traced wire pass and a traced sim pass, writes their spans and
// reports the per-layer metrics.
func runTraced(s spec, seed uint64, seconds time.Duration, spanDir string) (result, error) {
	res := result{Metrics: map[string]metric{}}
	base, err := runWire(s, seed, seconds, false)
	if err != nil {
		return res, fmt.Errorf("untraced wire pass: %w", err)
	}
	runtime.GC()
	w, err := runWire(s, seed, seconds, true)
	if err != nil {
		return res, fmt.Errorf("traced wire pass: %w", err)
	}
	runtime.GC()
	sm, err := runSim(s, seed, true)
	if sm != nil {
		res.Attempted += sm.attempted
		res.Failed += sm.failed
	}
	if err != nil {
		return res, fmt.Errorf("traced sim pass: %w", err)
	}
	for _, p := range []*wireResult{base, w} {
		res.Attempted += p.attempted
		res.Failed += p.failed + p.protocolErrors
		for _, e := range p.errs {
			log.Println(e)
		}
	}

	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", s.name, seed))
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return res, err
	}
	if err := w.tr.write(path, "wire"); err != nil {
		return res, fmt.Errorf("write spans: %w", err)
	}
	if err := sm.tr.write(path, "sim"); err != nil {
		return res, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %d wire + %d sim written to %s\n", w.tr.spanCount(), sm.tr.spanCount(), path)
	wt, st := w.tr.selfTimes(), sm.tr.selfTimes()
	wt.print("wire")
	st.print("sim")

	m := res.Metrics
	ops := float64(base.totalOps)
	m["runtime.cpu_us_per_op"] = metric{ratio(float64(base.rt.cpu.Microseconds()), ops), "us"}
	m["runtime.alloc_bytes_per_op"] = metric{ratio(float64(base.rt.allocBytes), ops), "B"}
	m["runtime.gc_cpu_frac"] = metric{base.rt.gcCPUFrac, "ratio"}
	m["runtime.busy_frac"] = metric{base.rt.busyFrac(), "ratio"}

	m["client.read_us_p50"] = metric{percentile(durUs(wt.durs["client.ReadAt"]), 50), "us"}
	m["client.read_us_p99"] = metric{percentile(durUs(wt.durs["client.ReadAt"]), 99), "us"}
	m["client.write_us_p50"] = metric{percentile(durUs(wt.durs["client.WriteAt"]), 50), "us"}
	m["client.write_us_p99"] = metric{percentile(durUs(wt.durs["client.WriteAt"]), 99), "us"}

	m["server.admission_waits_per_kop"] = metric{ratio(float64(base.admissionWaits)*1000, ops), "count"}
	m["server.protocol_errors"] = metric{float64(base.protocolErrors + w.protocolErrors), "count"}

	coreRead, coreWrite := durUs(st.durs["core.ReadAt"]), durUs(st.durs["core.WriteAt"])
	m["core.read_us_p50"] = metric{percentile(coreRead, 50), "us"}
	m["core.read_us_p99"] = metric{percentile(coreRead, 99), "us"}
	m["core.write_us_p50"] = metric{percentile(coreWrite, 50), "us"}
	m["core.write_us_p99"] = metric{percentile(coreWrite, 99), "us"}
	m["core.frontend_read_us"] = metric{m["client.read_us_p50"].Value - m["core.read_us_p50"].Value, "us"}
	m["core.frontend_write_us"] = metric{m["client.write_us_p50"].Value - m["core.write_us_p50"].Value, "us"}
	b, a := sm.before, sm.after
	m["core.cache_hit_ratio"] = metric{ratio(float64(a.CacheHits-b.CacheHits), float64(a.CacheHits-b.CacheHits+a.CacheMisses-b.CacheMisses)), "ratio"}
	m["core.dedup_hit_ratio"] = metric{ratio(float64(a.DedupHits-b.DedupHits), float64(a.DedupHits-b.DedupHits+a.DedupMisses-b.DedupMisses)), "ratio"}
	m["core.lane_batch_records"] = metric{ratio(float64(base.laneRecords), float64(base.laneLead)), "count"}
	m["core.lane_queue_waits_per_commit"] = metric{ratio(float64(base.laneWaits), float64(base.laneCommit)), "ratio"}
	m["core.nvram_appends_per_write"] = metric{ratio(float64(a.NVRAMAppends-b.NVRAMAppends), float64(sm.writes)), "ratio"}
	m["core.checkpoints_per_kop"] = metric{ratio(float64(a.Checkpoints-b.Checkpoints)*1000, float64(sm.reads+sm.writes)), "count"}
	m["core.hedged_reads_per_kread"] = metric{ratio(float64(a.HedgedReads-b.HedgedReads)*1000, float64(sm.reads)), "count"}

	m["cblock.pack_us"] = metric{perWriteUs(st.durs["cblock.Pack"], sm.writes), "us"}
	m["dedup.hash_us"] = metric{perWriteUs(st.durs["dedup.HashBlocks"], sm.writes), "us"}

	shardReads := float64(a.SegRead.DirectShardReads - b.SegRead.DirectShardReads + a.SegRead.ReconstructedReads - b.SegRead.ReconstructedReads)
	m["layout.shard_bytes_per_read"] = metric{ratio(float64(a.SegRead.ShardBytesRead-b.SegRead.ShardBytesRead), float64(sm.reads)), "B"}
	m["layout.reconstructed_read_ratio"] = metric{ratio(float64(a.SegRead.ReconstructedReads-b.SegRead.ReconstructedReads), shardReads), "ratio"}
	m["ssd.stalled_read_ratio"] = metric{ratio(float64(a.FlashStats.StalledReads-b.FlashStats.StalledReads), shardReads), "ratio"}

	if s.gcEvery > 0 {
		// Only a GC workload runs GC cycles, erases AUs or moves data.
		m["client.gc_ms"] = metric{meanMs(wt.durs["client.GC"]), "ms"}
		m["client.gc_wall_frac"] = metric{ratio(base.gcTime.Seconds(), base.window.Seconds()), "ratio"}
		m["core.gc_ms"] = metric{meanMs(st.durs["core.RunGC"]), "ms"}
		m["core.gc_bytes_moved_per_user_byte"] = metric{ratio(float64(a.GCBytesMoved-b.GCBytesMoved), float64(sm.userBytes)), "ratio"}
		m["ssd.erases_per_user_mib"] = metric{ratio(float64(a.FlashStats.Erases-b.FlashStats.Erases), float64(sm.userBytes)/(1<<20)), "count"}
	}
	m["trace.overhead_frac"] = metric{1 - ratio(w.iops(), base.iops()), "ratio"}
	res.Correct = res.Failed == 0
	return res, nil
}

func meanMs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds)) / 1e6
}

// perWriteUs is the total of ds per write, in microseconds.
func perWriteUs(ds []time.Duration, writes int64) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return ratio(float64(sum)/1e3, float64(writes))
}
