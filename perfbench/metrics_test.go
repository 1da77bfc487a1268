package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// BENCHMARK.json at the repository root declares the metrics this
// command prints; the two must agree.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	declared := func(defs []metricDef, withBound bool) []metric {
		var out []metric
		for _, d := range defs {
			m := metric{Name: d.Name, Unit: d.Unit, Better: d.Better}
			if withBound {
				b := d.Bound
				m.Bound = &b
			}
			out = append(out, m)
		}
		return out
	}
	if want := declared(endToEnd, true); !reflect.DeepEqual(doc.EndToEnd, want) {
		t.Errorf("end_to_end in BENCHMARK.json differs from endToEnd")
	}
	if want := declared(perLayer, false); !reflect.DeepEqual(doc.PerLayer, want) {
		t.Errorf("per_layer in BENCHMARK.json differs from perLayer")
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not run by the command", w.Name)
		}
	}
}

// README.md documents every metric.
func TestREADMEDocumentsMetrics(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !strings.Contains(string(data), "| `"+d.Name+"` |") {
			t.Errorf("README.md has no row for %s", d.Name)
		}
	}
}
