package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call at a layer boundary. Spans of one op share req;
// parent indexes the tracer's own slice (-1 for an op's root span).
type span struct {
	name       string
	start, end time.Duration // since the run's epoch
	parent     int32
	req        int64
}

// tracer records spans in memory for one goroutine. A nil *tracer is the
// untraced mode: every method is a no-op, so call sites need no branches.
type tracer struct {
	epoch time.Time
	id    int64 // goroutine tag, folded into request ids
	next  int64
	spans []span
}

func newTracer(epoch time.Time, id int64) *tracer { return &tracer{epoch: epoch, id: id} }

// op opens a root span whose clock starts at `from` (a due time for
// open-loop ops, the call start otherwise) and returns its handle.
func (t *tracer) op(name string, from time.Time) (int32, int64) {
	if t == nil {
		return -1, 0
	}
	t.next++
	req := t.id<<40 | t.next
	t.spans = append(t.spans, span{name: name, start: from.Sub(t.epoch), parent: -1, req: req})
	return int32(len(t.spans) - 1), req
}

// add records a finished child span of parent.
func (t *tracer) add(name string, parent int32, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{name: name, start: start.Sub(t.epoch), end: end.Sub(t.epoch), parent: parent, req: req})
}

// begin opens a child span of parent that finish closes.
func (t *tracer) begin(name string, parent int32, req int64, start time.Time) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: start.Sub(t.epoch), parent: parent, req: req})
	return int32(len(t.spans) - 1)
}

// finish closes a span opened by op or begin.
func (t *tracer) finish(i int32, end time.Time) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = end.Sub(t.epoch)
}

// traceReport is what a run's spans add up to.
type traceReport struct {
	// self holds each layer's per-span self time in ms: span duration
	// minus the part of it its child spans cover.
	self map[string]samples
	// dur holds each span name's full durations in ms.
	dur map[string]samples
	// coverage is the lowest, over op types, of the share of op wall time
	// that child spans cover.
	coverage float64
	spans    int
}

// analyze merges every tracer's spans and derives self times and
// per-op coverage.
func analyze(ts []*tracer) traceReport {
	rep := traceReport{self: make(map[string]samples), dur: make(map[string]samples)}
	opWall := make(map[string]time.Duration)
	opCovered := make(map[string]time.Duration)
	for _, t := range ts {
		if t == nil {
			continue
		}
		children := make([][]int32, len(t.spans))
		for i, s := range t.spans {
			if s.parent >= 0 {
				children[s.parent] = append(children[s.parent], int32(i))
			}
		}
		for i, s := range t.spans {
			covered := union(t.spans, children[i], s.start, s.end)
			dur := s.end - s.start
			rep.self[s.name] = append(rep.self[s.name], ms(dur-covered))
			rep.dur[s.name] = append(rep.dur[s.name], ms(dur))
			if s.parent < 0 {
				opWall[s.name] += dur
				opCovered[s.name] += covered
			}
		}
		rep.spans += len(t.spans)
	}
	rep.coverage = 1
	for name, wall := range opWall {
		if c := ratio(float64(opCovered[name]), float64(wall)); wall > 0 && c < rep.coverage {
			rep.coverage = c
		}
	}
	return rep
}

// union measures how much of [lo, hi) the given spans cover.
func union(all []span, idx []int32, lo, hi time.Duration) time.Duration {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(idx))
	for _, i := range idx {
		a, b := all[i].start, all[i].end
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	for k, x := range iv {
		if k == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

// dumpSpans writes every span as one JSON line (times in µs since the
// run's epoch).
func dumpSpans(path string, ts []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range ts {
		if t == nil {
			continue
		}
		for i, s := range t.spans {
			parent := int64(-1)
			if s.parent >= 0 {
				parent = t.id<<40 | int64(s.parent)
			}
			if err := enc.Encode(struct {
				Req    int64   `json:"req"`
				ID     int64   `json:"id"`
				Parent int64   `json:"parent"`
				Name   string  `json:"name"`
				Start  float64 `json:"start_us"`
				End    float64 `json:"end_us"`
			}{s.req, t.id<<40 | int64(i), parent, s.name, us(s.start), us(s.end)}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("dump spans: %w", err)
	}
	return f.Close()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
