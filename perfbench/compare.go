package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loadRecords reads the untraced run records under dir, grouped by
// workload and ordered by seed, then time.
func loadRecords(dir string) (map[string][]record, error) {
	out := make(map[string][]record)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasPrefix(d.Name(), "record-") || filepath.Ext(path) != ".json" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
		return nil
	})
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool {
			if rs[i].Seed != rs[j].Seed {
				return rs[i].Seed < rs[j].Seed
			}
			return rs[i].Time.Before(rs[j].Time)
		})
	}
	return out, err
}

// comparison is one workload × metric row of compare.
type comparison struct {
	a, b       summary
	won, pairs int
	verdict    string
}

// summary is one side's median, quartiles and spread (the quartile
// distance as a share of the median).
type summary struct{ q1, med, q3, spread float64 }

func summarize(xs []float64) summary {
	q1, med, q3 := quartiles(xs)
	s := summary{q1: q1, med: med, q3: q3}
	if med != 0 {
		s.spread = (q3 - q1) / math.Abs(med)
	}
	return s
}

// compareMetric judges b (the change) against a (the parent): better
// when b wins at least nine tenths of the pairs and the medians differ
// by more than a's quartile distance; worse when b's median is worse
// than a's by more than the bound; unresolved when either side spreads
// wider than the bound, unless every run of b beats every run of a;
// otherwise unchanged. Runs pair up in order.
func compareMetric(d metricDef, a, b []float64) comparison {
	c := comparison{a: summarize(a), b: summarize(b), pairs: min(len(a), len(b))}
	better := func(x, y float64) bool { // x better than y
		if d.Better == "higher" {
			return x > y
		}
		return x < y
	}
	for i := 0; i < c.pairs; i++ {
		if better(b[i], a[i]) {
			c.won++
		}
	}
	allBetter := len(a) > 0 && len(b) > 0 // every run of b beats every run of a
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	gain := c.b.med - c.a.med // in b's favour
	if d.Better != "higher" {
		gain = -gain
	}
	worse := 0.0
	if c.a.med != 0 {
		worse = -gain / math.Abs(c.a.med)
	}
	switch {
	case c.pairs == 0:
		c.verdict = "unresolved"
	case 10*c.won >= 9*c.pairs && gain > c.a.q3-c.a.q1:
		c.verdict = "better"
	case worse > d.Bound:
		c.verdict = "worse"
	case math.Max(c.a.spread, c.b.spread) > d.Bound && !allBetter:
		c.verdict = "unresolved"
	default:
		c.verdict = "unchanged"
	}
	return c
}

// compare prints one row per workload × end-to-end metric for the run
// records under dirA (the parent) and dirB (the change).
func compare(dirA, dirB string, w io.Writer) error {
	a, err := loadRecords(dirA)
	if err != nil {
		return err
	}
	b, err := loadRecords(dirB)
	if err != nil {
		return err
	}
	var names []string
	for name := range a {
		if _, ok := b[name]; ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("no workload has untraced records in both %s and %s", dirA, dirB)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-8s %-17s %-6s %40s %40s %7s %6s  %s\n",
		"workload", "metric", "unit", "A median [q1, q3] spread", "B median [q1, q3] spread", "B won", "bound", "verdict")
	for _, name := range names {
		for _, d := range endToEnd {
			xa, xb := values(a[name], d.Name), values(b[name], d.Name)
			c := compareMetric(d, xa, xb)
			fmt.Fprintf(w, "%-8s %-17s %-6s %40s %40s %3d/%-3d %5.0f%%  %s\n",
				name, d.Name, d.Unit, c.a, c.b, c.won, c.pairs, 100*d.Bound, c.verdict)
		}
	}
	return nil
}

func (s summary) String() string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] %5.1f%%", s.med, s.q1, s.q3, 100*s.spread)
}

func values(rs []record, metric string) []float64 {
	var xs []float64
	for _, r := range rs {
		if v, ok := r.Result.Metrics[metric]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}
