package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share req; parent indexes the span that caused it (-1 for a
// root).
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int32  `json:"parent"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// start opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) start(name string, req int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: now, End: -1})
	return int32(len(t.spans) - 1)
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerRow is one line of the per-layer table: a span name's count, total
// time and self time (its time minus the part its children cover).
type layerRow struct {
	name          string
	count         int
	total, self   time.Duration
	unclosed      int
	outsideParent int
}

// layerTable aggregates spans by name. Children never overlap each other
// within one parent in this benchmark, so self time is the span's duration
// minus the sum of its children's. A child that is not inside its parent's
// interval is counted in outsideParent: a broken nesting.
func layerTable(spans []span) []layerRow {
	childTime := make([]int64, len(spans))
	rows := map[string]*layerRow{}
	row := func(name string) *layerRow {
		r := rows[name]
		if r == nil {
			r = &layerRow{name: name}
			rows[name] = r
		}
		return r
	}
	for _, s := range spans {
		if s.End < 0 {
			row(s.Name).unclosed++
			continue
		}
		if s.Parent >= 0 {
			p := spans[s.Parent]
			childTime[s.Parent] += s.End - s.Start
			if s.Start < p.Start || (p.End >= 0 && s.End > p.End) {
				row(s.Name).outsideParent++
			}
		}
	}
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		r := row(s.Name)
		r.count++
		r.total += time.Duration(s.End - s.Start)
		r.self += time.Duration(s.End - s.Start - childTime[i])
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

func printLayerTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-22s %9s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "self_ms/call")
	for _, r := range rows {
		per := 0.0
		if r.count > 0 {
			per = ms(r.self) / float64(r.count)
		}
		fmt.Fprintf(w, "%-22s %9d %12.1f %12.1f %12.4f", r.name, r.count, ms(r.total), ms(r.self), per)
		if r.unclosed > 0 || r.outsideParent > 0 {
			fmt.Fprintf(w, "  (unclosed %d, outside parent %d)", r.unclosed, r.outsideParent)
		}
		fmt.Fprintln(w)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
