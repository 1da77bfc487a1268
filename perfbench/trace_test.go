package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	tr := &tracer{spans: []span{
		{ID: 1, Name: "e2e", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "sweep.cell", Start: 10 * ms, End: 60 * ms},
		{ID: 3, Parent: 2, Name: "workload.measure", Start: 20 * ms, End: 40 * ms},
		// Overlaps its sibling and runs past its parent's end: only
		// the uncovered part inside the parent counts.
		{ID: 4, Parent: 2, Name: "workload.measure", Start: 30 * ms, End: 70 * ms},
		{ID: 5, Parent: 1, Name: "icp.run", Start: 80 * ms, End: 90 * ms},
		{ID: 6, Name: "probe", Start: 100 * ms, End: 200 * ms},
	}}
	byLayer, unattributed := tr.selfTimes(1)
	want := map[string]time.Duration{"sweep": 10 * ms, "workload": 60 * ms, "icp": 10 * ms}
	for l, d := range want {
		if byLayer[l] != d {
			t.Errorf("layer %s self %v, want %v", l, byLayer[l], d)
		}
	}
	if len(byLayer) != len(want) {
		t.Errorf("layers %v", byLayer)
	}
	// e2e covers 0–100; its children cover 10–60 and 80–90.
	if unattributed != 40*ms {
		t.Errorf("unattributed %v, want 40ms", unattributed)
	}
	var buf bytes.Buffer
	if frac := tr.writeSelfTable(&buf, 1); frac != 0.4 {
		t.Errorf("unattributed share %v, want 0.4", frac)
	}
	if !strings.Contains(buf.String(), "unattributed") {
		t.Errorf("table has no unattributed row:\n%s", buf.String())
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	called := false
	tr.span(tr.begin(0, "e2e", ""), "icp.run", "", func(id int) error {
		called = id == 0
		return nil
	})
	if !called || tr.durations("icp.run") != nil || tr.p50ms("icp.run") != 0 {
		t.Fatal("a nil tracer must run the call and record nothing")
	}
}
