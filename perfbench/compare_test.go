package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]; for [3, 1, 2]: [1.0, 2.0, 3.0].
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "op_ms_p50", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "throughput_per_s", Better: "higher", Bound: 0.1}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, k float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * k
		}
		return out
	}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same runs", lower, parent, parent, "unchanged"},
		{"faster", lower, parent, shift(parent, 0.8), "better"},
		{"slower beyond the bound", lower, parent, shift(parent, 1.2), "worse"},
		{"slower within the bound", lower, parent, shift(parent, 1.05), "unchanged"},
		{"more throughput", higher, parent, shift(parent, 1.2), "better"},
		{"spread wider than the bound", lower, parent, []float64{70, 130, 80, 120, 75, 125, 100, 95, 105, 100}, "unresolved"},
		{"no pairs", lower, parent, nil, "unresolved"},
	} {
		if got := compareMetric(c.d, c.a, c.b).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareReadsRecords(t *testing.T) {
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for side, dir := range dirs {
		for seed := int64(1); seed <= 3; seed++ {
			res := result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}
			for _, d := range endToEnd {
				res.Metrics[d.Name] = metricValue{Value: float64(10 + side + int(seed)), Unit: d.Unit}
			}
			for _, traced := range []bool{false, true} {
				data, err := json.Marshal(record{Workload: "ingest", Seed: seed, Trace: traced, Time: time.Now(), Result: res})
				if err != nil {
					t.Fatal(err)
				}
				name := filepath.Join(dir, fmt.Sprintf("record-%d-%t.json", seed, traced))
				if err := os.WriteFile(name, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var out strings.Builder
	if err := compare(dirs[0], dirs[1], &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1+len(endToEnd) {
		t.Fatalf("want a header and %d rows, got:\n%s", len(endToEnd), out.String())
	}
	// B reads one higher than A on every run: it wins every pair of a
	// higher-is-better metric and none of a lower-is-better one.
	for _, line := range lines[1:] {
		f := strings.Fields(line)
		want := "0/3"
		if f[1] == "throughput_per_s" || f[1] == "success_rate" {
			want = "3/3"
		}
		if f[0] != "ingest" || !strings.Contains(line, want) {
			t.Errorf("row %q: want %s pairs won", line, want)
		}
	}
}
