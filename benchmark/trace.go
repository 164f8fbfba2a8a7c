package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one
// operation share Op; Parent is the ID of the span that caused this
// one (-1 for an operation's root). Times are nanoseconds since the
// tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; nothing is written until the run ends.
// It is used from one goroutine (the traced pass is single-client).
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID.
func (t *tracer) start(name string, op, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// selfTimes returns, per span ID, the span's duration minus the part
// of its interval that its child spans cover (overlapping children are
// counted once, and a child is clipped to its parent).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		cs := children[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, edge := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// meanByName averages span durations (total) and self times per span
// name, in microseconds.
func meanByName(spans []span) (total, self map[string]float64) {
	st := selfTimes(spans)
	total, self = map[string]float64{}, map[string]float64{}
	n := map[string]int{}
	for i, s := range spans {
		total[s.Name] += float64(s.End-s.Start) / 1e3
		self[s.Name] += float64(st[i]) / 1e3
		n[s.Name]++
	}
	for name, c := range n {
		total[name] /= float64(c)
		self[name] /= float64(c)
	}
	return total, self
}

// traceFile is what a traced run leaves in out/trace-<workload>.json.
type traceFile struct {
	Stamp      map[string]any     `json:"stamp"`
	MeanUs     map[string]float64 `json:"mean_us"`
	SelfMeanUs map[string]float64 `json:"self_mean_us"`
	Spans      []span             `json:"spans"`
}

func writeTrace(path string, stamp map[string]any, spans []span) error {
	total, self := meanByName(spans)
	data, err := json.Marshal(traceFile{Stamp: stamp, MeanUs: total, SelfMeanUs: self, Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
