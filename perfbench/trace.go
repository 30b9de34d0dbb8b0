package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call at a layer boundary, recorded from the benchmark's
// own side of the call. Spans of one op share its op id; parent indexes the
// causing span in the same buffer (-1 for an op's root span).
type span struct {
	name       string
	op         int64
	parent     int32
	start, end int64 // ns since the tracer's epoch
}

// tracer owns the span buffers of one pass. Each issuing goroutine records
// into its own buffer, so recording takes no lock; buffers are merged when
// the pass ends. A nil *spanBuf records nothing, which is the untraced run.
type tracer struct {
	epoch time.Time
	bufs  []*spanBuf
}

type spanBuf struct {
	t     *tracer
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// buf returns a new buffer for one goroutine. Call before the goroutine
// starts.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{t: t}
	t.bufs = append(t.bufs, b)
	return b
}

// begin opens a span and returns its index for end and for children.
func (b *spanBuf) begin(name string, op int64, parent int32) int32 {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, span{name: name, op: op, parent: parent, start: int64(time.Since(b.t.epoch))})
	return int32(len(b.spans) - 1)
}

func (b *spanBuf) end(i int32) {
	if b == nil {
		return
	}
	b.spans[i].end = int64(time.Since(b.t.epoch))
}

// layerTimes is the total and self time of every span name, with the
// durations of each name for percentiles.
type layerTimes struct {
	count map[string]int
	self  map[string]time.Duration
	durs  map[string][]time.Duration
}

// selfTimes computes each span's self time: its duration minus the time its
// children cover. Children of one span run on one goroutine one after
// another, so they never overlap and their durations add.
func (t *tracer) selfTimes() layerTimes {
	lt := layerTimes{count: map[string]int{}, self: map[string]time.Duration{}, durs: map[string][]time.Duration{}}
	if t == nil {
		return lt
	}
	for _, b := range t.bufs {
		child := make([]int64, len(b.spans))
		for _, s := range b.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range b.spans {
			d := time.Duration(s.end - s.start)
			lt.count[s.name]++
			lt.self[s.name] += d - time.Duration(child[i])
			lt.durs[s.name] = append(lt.durs[s.name], d)
		}
	}
	return lt
}

// spanCount is the number of spans recorded.
func (t *tracer) spanCount() int {
	n := 0
	if t != nil {
		for _, b := range t.bufs {
			n += len(b.spans)
		}
	}
	return n
}

// write stores the spans as JSON lines, one span per line, with ids unique
// across the pass's buffers.
func (t *tracer) write(path, pass string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type rec struct {
		Pass    string `json:"pass"`
		ID      string `json:"id"`
		Parent  string `json:"parent,omitempty"`
		Name    string `json:"name"`
		Op      int64  `json:"op"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	for bi, b := range t.bufs {
		for i, s := range b.spans {
			r := rec{Pass: pass, ID: fmt.Sprintf("%d.%d", bi, i), Name: s.name, Op: s.op, StartNs: s.start, EndNs: s.end}
			if s.parent >= 0 {
				r.Parent = fmt.Sprintf("%d.%d", bi, s.parent)
			}
			if err := enc.Encode(r); err != nil {
				//lint:ignore errdrop the encode error is the one reported
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		//lint:ignore errdrop the flush error is the one reported
		f.Close()
		return err
	}
	return f.Close()
}

// print prints one line per span name: count, total self time and
// mean self time.
func (lt layerTimes) print(pass string) {
	names := make([]string, 0, len(lt.count))
	for n := range lt.count {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("self %-5s %-18s n=%-7d total=%-12v mean=%v\n", pass, n, lt.count[n],
			lt.self[n].Round(time.Microsecond), (lt.self[n] / time.Duration(lt.count[n])).Round(100*time.Nanosecond))
	}
}
