package main

// The traced run: the same inputs as the served run, with each layer's
// exported function called directly from here and wrapped in a span.
// Spans live in memory and are written out when the run ends.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call. parent is an index into tracer.spans, or -1
// for a root; req groups the spans of one request.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records spans from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0), Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = time.Since(t.t0) }

// do times f as a span.
func (t *tracer) do(name string, parent, req int, f func()) time.Duration {
	id := t.begin(name, parent, req)
	f()
	t.end(id)
	return t.spans[id].dur()
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func (t *tracer) selfTimes() []time.Duration {
	kids := make([][]span, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		cs := kids[i]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, reach := time.Duration(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
