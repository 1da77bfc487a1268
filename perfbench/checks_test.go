package main

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"

	pibe "repro"
	"repro/internal/bench"
	"repro/internal/sweep"
)

// Every output check must fail the run when the expected value it
// compares against is corrupted. Each test first shows the check
// passing on real output, then failing on a corrupted expectation.

func testEnv(t *testing.T) *env {
	return &env{seed: 1, dir: t.TempDir(), stdout: io.Discard, stderr: io.Discard, metrics: map[string]float64{}}
}

func TestSweepCheckFailsOnCorruptedExpectation(t *testing.T) {
	want, err := loadSweepReport(filepath.Join("..", sweepReportPath))
	if err != nil {
		t.Fatal(err)
	}
	s, err := bench.NewSuiteKernel(pibe.KernelConfig{Seed: referenceSeed})
	if err != nil {
		t.Fatal(err)
	}
	s.Sys.SetMeasureWorkers(1)
	combos, err := sweep.CombosByName("retpoline")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sweep.Run(s, sweep.Config{ICPGrid: sweepGrid, InlineGrid: sweepGrid, Combos: combos})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSweep(rep, want); err != nil {
		t.Fatalf("committed surface: %v", err)
	}

	corrupt := *want
	corrupt.Cells = append([]sweep.Cell(nil), want.Cells...)
	for i, c := range corrupt.Cells {
		if c.Combo == "retpoline" && c.ICPBudget == sweepGrid[1] && c.InlineBudget == 0 {
			corrupt.Cells[i].ICPWeightFrac += 1e-12
		}
	}
	if err := checkSweep(rep, &corrupt); err == nil || !strings.Contains(err.Error(), "committed") {
		t.Fatalf("corrupted committed cell: got %v", err)
	}

	// The held-out checks: a clamped geomean, and a top cell that is
	// not below its origin.
	bad := *rep
	bad.Cells = append([]sweep.Cell(nil), rep.Cells...)
	bad.Cells[1].GeomeanClamped = 1
	if err := checkSweep(&bad, nil); err == nil {
		t.Fatal("clamped geomean passed")
	}
	bad.Cells[1].GeomeanClamped = 0
	bad.Cells[len(bad.Cells)-1].Geomean = bad.Cells[0].Geomean
	if err := checkSweep(&bad, nil); err == nil {
		t.Fatal("top cell equal to its origin passed")
	}
}

func TestRebuildChecksFailOnCorruptedExpectation(t *testing.T) {
	e := testEnv(t)
	ks, _, err := setupRebuild(e, 0, rebuildKernels)
	if err != nil {
		t.Fatal(err)
	}
	k := ks[0]
	if _, err := rebuildPass(e, nil, 0, 0, k); err != nil {
		t.Fatal(err)
	}
	if len(e.checkErrs) != 0 || len(k.digests) != len(sweep.DefaultCombos()) {
		t.Fatalf("first pass: %v, %d digests", e.checkErrs, len(k.digests))
	}
	// A traced pass builds phase by phase; its images must equal the
	// ones System.Build made.
	if _, err := rebuildPass(e, newTracer(), 0, 1, k); err != nil {
		t.Fatal(err)
	}
	if len(e.checkErrs) != 0 {
		t.Fatalf("traced pass: %v", e.checkErrs)
	}
	k.digests["all"] = "0000000000000000"
	if _, err := rebuildPass(e, nil, 0, 2, k); err != nil {
		t.Fatal(err)
	}
	if len(e.checkErrs) != 1 || !strings.Contains(e.checkErrs[0].Error(), "digest") {
		t.Fatalf("corrupted digest: %v", e.checkErrs)
	}

	p, err := k.sys.Profile(pibe.DBench, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := pibe.ReadProfile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRoundTrip(buf.Bytes(), q); err != nil {
		t.Fatal(err)
	}
	written := append([]byte(nil), buf.Bytes()...)
	written[len(written)/2] ^= 1
	if err := checkRoundTrip(written, q); err == nil {
		t.Fatal("corrupted serialization passed")
	}

	img, err := k.sys.Build(pibe.BuildConfig{Defenses: pibe.Defenses{Retpolines: true}})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkImage(img.Mod, pibe.Defenses{Retpolines: true}, digest(img.Mod)); err != nil {
		t.Fatal(err)
	}
	if err := checkImage(img.Mod, pibe.AllDefenses, ""); err == nil {
		t.Fatal("image checked against defenses it was not built with passed")
	}
}

func TestIngestCheckFailsOnCorruptedExpectation(t *testing.T) {
	e := testEnv(t)
	var flat []byte
	if _, _, err := ingestOnce(e, nil, &flat); err != nil {
		t.Fatal(err)
	}
	if len(e.checkErrs) != 0 {
		t.Fatalf("clean run: %v", e.checkErrs)
	}
	corrupt := append([]byte(nil), flat...)
	corrupt[len(corrupt)-2] ^= 1
	it, _, err := ingestOnce(e, nil, &corrupt)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.checkErrs) != 1 || !strings.Contains(e.checkErrs[0].Error(), "flat merge") {
		t.Fatalf("corrupted flat merge: %v", e.checkErrs)
	}
	if err := checkIngest(flat, flat, it.stats, poisonKernels*ingestRounds+1, ingestTenants/4); err == nil {
		t.Fatal("wrong injected poison count passed")
	}
	if err := checkIngest(flat, flat, it.stats, poisonKernels*ingestRounds, ingestTenants/4+1); err == nil {
		t.Fatal("wrong eviction count passed")
	}
}

// A failed check makes the run print correct=false and fail.
func TestFailedCheckFailsTheRun(t *testing.T) {
	fail := func(e *env) error {
		e.op("op", nil)
		e.check(io.ErrUnexpectedEOF)
		for _, d := range endToEnd {
			e.metrics[d.Name] = 1
		}
		return nil
	}
	var out bytes.Buffer
	err := runWorkload("fake", workloadDef{run: fail, trace: fail}, 1, 1, false, t.TempDir(), &out, io.Discard)
	if err != errIncorrect {
		t.Fatalf("got %v, want %v", err, errIncorrect)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if last := lines[len(lines)-1]; !strings.HasPrefix(last, `{"correct":false,"attempted":1,"failed":0,`) {
		t.Fatalf("last line %s", last)
	}
}

// A traced run in which an operation failed is incorrect: the failed
// operation's share is missing from the per-layer counts.
func TestFailedTracedOperationFailsTheRun(t *testing.T) {
	fail := func(e *env) error {
		e.op("op", nil)
		e.op("op", io.ErrUnexpectedEOF)
		e.metrics["kernel.generate_ms"] = 1
		return nil
	}
	var out bytes.Buffer
	w := workloadDef{run: fail, trace: fail, layers: []string{"kernel.generate_ms"}}
	if err := runWorkload("fake", w, 1, 1, true, t.TempDir(), &out, io.Discard); err != errIncorrect {
		t.Fatalf("got %v, want %v", err, errIncorrect)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if last := lines[len(lines)-1]; !strings.HasPrefix(last, `{"correct":false,"attempted":2,"failed":1,`) {
		t.Fatalf("last line %s", last)
	}
}

// A traced run must measure exactly the per-layer metrics its workload
// lists, and every span a metric is read from must exist; otherwise the
// run fails instead of printing a 0.
func TestTracedRunMeasuresItsLayers(t *testing.T) {
	layers := []string{"kernel.generate_ms", "icp.run_ms"}
	for _, tc := range []struct {
		name string
		fn   func(e *env) error
	}{
		{"missing", func(e *env) error {
			e.op("op", nil)
			e.metrics["kernel.generate_ms"] = 1
			return nil
		}},
		{"undeclared", func(e *env) error {
			e.op("op", nil)
			e.metrics["kernel.generate_ms"] = 1
			e.metrics["icp.run_ms"] = 1
			e.metrics["ir.clone_ms"] = 1
			return nil
		}},
		{"unknown", func(e *env) error {
			e.op("op", nil)
			e.metrics["kernel.generate_ms"] = 1
			e.metrics["icp.run_ms"] = 1
			e.metrics["icp.runtime_ms"] = 1
			return nil
		}},
		{"no spans", func(e *env) error {
			e.op("op", nil)
			e.metrics["kernel.generate_ms"] = 1
			e.metrics["icp.run_ms"] = e.tr.p50ms("icp.run")
			return nil
		}},
	} {
		w := workloadDef{run: tc.fn, trace: tc.fn, layers: layers}
		err := runWorkload("fake", w, 1, 1, true, t.TempDir(), io.Discard, io.Discard)
		if err == nil || err == errIncorrect {
			t.Errorf("%s: got %v, want an error", tc.name, err)
		}
	}
	ok := func(e *env) error {
		e.op("op", nil)
		e.tr.span(0, "icp.run", "", func(int) error { return nil })
		e.metrics["kernel.generate_ms"] = 1
		e.metrics["icp.run_ms"] = e.tr.p50ms("icp.run")
		return nil
	}
	w := workloadDef{run: ok, trace: ok, layers: layers}
	if err := runWorkload("fake", w, 1, 1, true, t.TempDir(), io.Discard, io.Discard); err != nil {
		t.Fatalf("complete traced run: %v", err)
	}
}

func TestScheduleCheckFailsWhenTheSenderFallsBehind(t *testing.T) {
	if err := checkSchedule(openRate, time.Second, openRate, minRateFrac); err != nil {
		t.Fatalf("on schedule: %v", err)
	}
	if err := checkSchedule(openRate, 1050*time.Millisecond, openRate, minRateFrac); err != nil {
		t.Fatalf("5%% behind: %v", err)
	}
	if err := checkSchedule(openRate, 1200*time.Millisecond, openRate, minRateFrac); err == nil {
		t.Fatal("a sender 20% behind its offered rate passed")
	}
	if err := checkSchedule(0, 0, openRate, minRateFrac); err == nil {
		t.Fatal("an open loop that sent nothing passed")
	}
}
