package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one sweep cell, rebuild
// pass or ingest round share a group; Parent is the span that made the
// call (0 for a root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Group  string        `json:"group,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layer is the module a span's name belongs to: the part before the
// first dot ("icp.run" is in layer "icp").
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs share the traced code paths.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// missing lists the names a metric was asked of but no span had,
	// which fails the run rather than reporting a 0.
	missing []string
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(parent int, name, group string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Group: group, Start: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// span runs fn inside a span and passes fn the span's ID, so fn can
// open child spans.
func (t *tracer) span(parent int, name, group string, fn func(id int) error) error {
	id := t.begin(parent, name, group)
	err := fn(id)
	t.end(id)
	return err
}

// durations returns the durations of every closed span with the given
// name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, s.dur())
		}
	}
	return out
}

// quantileMS is the q-quantile, in milliseconds, of the durations of
// the spans with the given name. When there are none it returns zero
// and notes the name as missing.
func (t *tracer) quantileMS(name string, q float64) float64 {
	var xs []float64
	for _, d := range t.durations(name) {
		xs = append(xs, ms(d))
	}
	if len(xs) == 0 && t != nil {
		t.mu.Lock()
		t.missing = append(t.missing, name)
		t.mu.Unlock()
	}
	return quantile(xs, q)
}

// p50ms is the median duration in milliseconds of the named spans.
func (t *tracer) p50ms(name string) float64 { return t.quantileMS(name, 0.5) }

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes attributes the time under the root span to layers. A span's
// self time is its duration minus the part of it covered by its
// children; the root's own self time is the time no layer claimed,
// returned as unattributed.
func (t *tracer) selfTimes(root int) (byLayer map[string]time.Duration, unattributed time.Duration) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	byLayer = make(map[string]time.Duration)
	var walk func(s span)
	walk = func(s span) {
		self := s.dur() - covered(s, children[s.ID])
		if s.ID == root {
			unattributed = self
		} else {
			byLayer[s.layer()] += self
		}
		for _, c := range children[s.ID] {
			walk(c)
		}
	}
	walk(spans[root-1])
	return byLayer, unattributed
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end time.Duration
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// writeSelfTable prints the per-layer self-time table of the root span,
// largest first, with the unattributed time as its own row. It returns
// the unattributed share of the root's duration.
func (t *tracer) writeSelfTable(w io.Writer, root int) float64 {
	byLayer, unattributed := t.selfTimes(root)
	total := t.duration(root)
	type row struct {
		name string
		d    time.Duration
	}
	var rows []row
	for l, d := range byLayer {
		rows = append(rows, row{l, d})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].d != rows[j].d {
			return rows[i].d > rows[j].d
		}
		return rows[i].name < rows[j].name
	})
	rows = append(rows, row{"unattributed", unattributed})
	fmt.Fprintf(w, "%-14s %10s %7s\n", "layer", "self_s", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %10.3f %6.1f%%\n", r.name, r.d.Seconds(), 100*r.d.Seconds()/total.Seconds())
	}
	fmt.Fprintf(w, "%-14s %10.3f %6.1f%%\n", "total", total.Seconds(), 100.0)
	return float64(unattributed) / float64(total)
}

// duration is the length of the closed span id.
func (t *tracer) duration(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].dur()
}
