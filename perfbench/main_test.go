package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"purity/internal/core"
)

// shrink scales a workload down to a few MiB so a test runs it in seconds.
func shrink(s spec) spec {
	s.volBytes = 4 << 20
	if s.gcEvery > 0 {
		s.gcEvery = 1 << 20
	}
	s.simWrites = 300
	return s
}

func TestShrunkWorkloadsVerify(t *testing.T) {
	for _, s := range specs {
		s := shrink(s)
		t.Run(s.name, func(t *testing.T) {
			w, err := runWire(s, 7, 300*time.Millisecond, false)
			if err != nil {
				t.Fatal(err)
			}
			if w.failed != 0 || w.protocolErrors != 0 || len(w.errs) != 0 {
				t.Fatalf("wire pass: failed=%d protocol errors=%d errs=%v", w.failed, w.protocolErrors, w.errs)
			}
			if w.ops == 0 || len(w.readUs) == 0 || len(w.writeUs) == 0 {
				t.Fatalf("wire pass measured %d ops (%d reads, %d writes)", w.ops, len(w.readUs), len(w.writeUs))
			}
			if s.gcEvery > 0 && w.gcCycles == 0 {
				t.Fatal("wire pass of a GC workload measured no GC cycle")
			}
			sm, err := runSim(s, 7, false)
			if err != nil {
				t.Fatal(err)
			}
			if sm.failed != 0 || sm.readBack == 0 || sm.reads == 0 {
				t.Fatalf("sim pass: failed=%d read back=%d reads=%d", sm.failed, sm.readBack, sm.reads)
			}
		})
	}
}

// simSignature renders everything a sim pass reports on the simulated
// clock, and the engine counters it reads.
func simSignature(r *simResult) string {
	counters := func(st core.StatsSnapshot) string {
		st.WriteLatency, st.ReadLatency = nil, nil
		return fmt.Sprintf("%+v", st)
	}
	return fmt.Sprintf("read=%v\nwrite=%v\nrecover=%d user=%d gc=%d readback=%d\nbefore=%s\nafter=%s",
		r.readUs, r.writeUs, r.recoverTime, r.userBytes, r.gcCycles, r.readBack,
		counters(r.before), counters(r.after))
}

func TestSimPassRepeatsExactly(t *testing.T) {
	for _, s := range specs {
		s := shrink(s)
		t.Run(s.name, func(t *testing.T) {
			a, err := runSim(s, 11, false)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runSim(s, 11, false)
			if err != nil {
				t.Fatal(err)
			}
			if sa, sb := simSignature(a), simSignature(b); sa != sb {
				t.Fatalf("two sim passes with one seed differ:\n%s\n---\n%s", sa, sb)
			}
			c, err := runSim(s, 12, false)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(a.writeUs, c.writeUs) && reflect.DeepEqual(a.readUs, c.readUs) {
				t.Fatal("sim passes with different seeds have identical latencies")
			}
		})
	}
}

func TestVerifierRejectsWrongBlock(t *testing.T) {
	s := shrink(specs[0])
	a, err := core.Format(arrayConfig())
	if err != nil {
		t.Fatal(err)
	}
	o, now, err := populate(a, s, 3)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, s.ioSize)
	o.fill(buf, 1, 5, writeID(4, 0))
	if now, err = a.WriteAt(now, o.vols[1], 5*int64(s.ioSize), buf); err != nil {
		t.Fatal(err)
	}
	o.ids[1][5] = writeID(4, 0)
	data, now, err := a.ReadAt(now, o.vols[1], 5*int64(s.ioSize), s.ioSize)
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]byte, s.ioSize)
	if err := o.check(data, 1, 5, scratch); err != nil {
		t.Fatalf("correct block rejected: %v", err)
	}
	if read, lost, err := readBack(a, o, now); err != nil || read != 1 || lost != 0 {
		t.Fatalf("read back of the correct block: read=%d lost=%d err=%v", read, lost, err)
	}

	// Expect a write the array never acked.
	o.ids[1][5] = writeID(4, 1)
	if err := o.check(data, 1, 5, scratch); err == nil {
		t.Fatal("wrong expected block accepted")
	}
	if _, lost, err := readBack(a, o, now); err == nil || lost != 1 {
		t.Fatalf("read back with a wrong expected block: lost=%d err=%v", lost, err)
	}
	// The prefill of another volume is not this volume's content.
	o.ids[1][5] = writeID(4, 0)
	if err := o.check(data, 0, 5, scratch); err == nil {
		t.Fatal("another volume's block accepted")
	}
}

func TestTracedRunWritesSpans(t *testing.T) {
	dir := t.TempDir()
	s := shrink(specs[1])
	res, err := runTraced(s, 5, 300*time.Millisecond, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("traced run not correct: %+v", res)
	}
	_, perLayer := benchmarkNames(t)
	if got := sortedKeys(res.Metrics); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("traced run metrics %v, BENCHMARK.json per_layer %v", got, perLayer)
	}
	for _, name := range []string{"client.write_us_p50", "core.write_us_p50", "cblock.pack_us", "dedup.hash_us"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("metric %s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, "vdi-seed5.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name":"client.WriteAt"`, `"name":"core.WriteAt"`, `"name":"cblock.Pack"`, `"pass":"sim"`, `"parent":"`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("span file lacks %s", want)
		}
	}
}

func TestTracedGCWorkloadMeasuresGC(t *testing.T) {
	res, err := runTraced(shrink(specs[2]), 5, 300*time.Millisecond, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced run not correct: %+v", res)
	}
	for _, name := range []string{"client.gc_ms", "client.gc_wall_frac", "core.gc_ms", "core.gc_bytes_moved_per_user_byte"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("metric %s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
}

// benchmarkNames returns the end-to-end and per-layer metric names
// BENCHMARK.json declares, sorted.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestEndToEndMetricsMatchBenchmarkJSON(t *testing.T) {
	endToEnd, _ := benchmarkNames(t)
	got := append([]string(nil), gated...)
	sort.Strings(got)
	if !reflect.DeepEqual(got, endToEnd) {
		t.Fatalf("gated metrics %v, BENCHMARK.json end_to_end %v", got, endToEnd)
	}
}
