package main

import (
	"fmt"
	"runtime"
	"time"

	pibe "repro"
	"repro/internal/bench"
	"repro/internal/cpu"
	"repro/internal/interp"
	"repro/internal/kernel"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// The sweep workload: the paper's headline experiment, a budget grid
// crossed with every defense combo. LMBench measurement (interp, cpu
// and the sharded workload driver) is over 90% of it and builds about a
// tenth, so an interpreter, CPU-model or i-cache change shows here.

// referenceSeed is the kernel seed of the committed BENCH_sweep.json.
// Every sweep run sweeps that kernel, whose cells must equal the
// committed ones, and the held-out kernel --seed selects.
const referenceSeed = 5

// sweepReportPath is the committed surface, relative to the repository
// root the benchmark runs from.
const sweepReportPath = "BENCH_sweep.json"

// sweepGrid is drawn from sweep.DefaultGrid: no optimization and a high
// budget on each axis, crossed with all seven sweep.DefaultCombos.
var sweepGrid = []float64{0, 0.999}

// minSetups is how many set-ups every run times at least; setup_s is
// their median.
const minSetups = 5

// newSweepSuite generates the kernel, collects the suite's profiles and
// pre-warms the LTO-baseline measurement.
func newSweepSuite(tr *tracer, parent int, seed int64) (*bench.Suite, error) {
	var s *bench.Suite
	if err := tr.span(parent, "bench.new_suite", "", func(int) (err error) {
		s, err = bench.NewSuiteKernel(pibe.KernelConfig{Seed: seed})
		return err
	}); err != nil {
		return nil, err
	}
	// As pibe sweep: -measure-workers defaults to GOMAXPROCS, and the
	// sweep pins at least one worker.
	s.Sys.SetMeasureWorkers(max(runtime.GOMAXPROCS(0), 1))
	err := tr.span(parent, "sweep.baseline", "", func(int) error {
		_, err := s.Baseline()
		return err
	})
	return s, err
}

// sweepOnce sets up one kernel and sweeps the grid over it. It starts
// from a collected heap, so the last kernel's garbage is not collected
// on this one's clock.
func sweepOnce(seed int64) (rep *sweep.Report, setup, wall time.Duration, err error) {
	runtime.GC()
	start := time.Now()
	s, err := newSweepSuite(nil, 0, seed)
	if err != nil {
		return nil, 0, 0, err
	}
	setup = time.Since(start)
	start = time.Now()
	rep, err = sweep.Run(s, sweep.Config{ICPGrid: sweepGrid, InlineGrid: sweepGrid, Timings: true})
	return rep, setup, time.Since(start), err
}

// sweepChecked runs sweepOnce and checks and counts its cells.
func sweepChecked(e *env, seed int64, want *sweep.Report) (*sweep.Report, time.Duration, time.Duration, error) {
	rep, setup, wall, err := sweepOnce(seed)
	if err != nil {
		return nil, 0, 0, err
	}
	for _, c := range rep.Cells {
		var err error
		if c.Failed {
			err = fmt.Errorf("%s: %s", c.FailurePhase, c.Failure)
		}
		e.op(fmt.Sprintf("sweep cell %s %g×%g of kernel %d", c.Combo, c.ICPBudget, c.InlineBudget, seed), err)
	}
	if seed != referenceSeed {
		want = nil
	}
	e.check(checkSweep(rep, want))
	return rep, setup, wall, nil
}

func runSweep(e *env) error {
	want, err := loadSweepReport(sweepReportPath)
	if err != nil {
		return err
	}
	var setups, walls, buildMS []float64
	var cells int
	start := time.Now()
	// Whole pairs only, so every run averages the same two kernels
	// however many pairs fit.
	for {
		pairStart := time.Now()
		for _, seed := range []int64{referenceSeed, e.seed} {
			rep, setup, wall, err := sweepChecked(e, seed, want)
			if err != nil {
				return err
			}
			setups = append(setups, setup.Seconds())
			walls = append(walls, wall.Seconds())
			cells += len(rep.Cells)
			for _, c := range rep.Cells {
				buildMS = append(buildMS, c.BuildMS)
			}
		}
		if time.Since(start)+time.Since(pairStart) > e.seconds {
			break
		}
	}
	for len(setups) < minSetups {
		runtime.GC()
		t := time.Now()
		if _, err := newSweepSuite(nil, 0, e.seed); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	e.metrics["setup_s"] = median(setups)
	e.metrics["throughput_per_s"] = float64(cells) / sum(walls)
	e.metrics["op_ms_p50"] = median(buildMS)
	e.metrics["round_ms_p50"] = 1000 * median(walls)
	return nil
}

// traceSweep sweeps the reference kernel three times: through sweep.Run,
// whose cells the other two must reproduce; cell by cell untraced; and
// cell by cell with a span around every build and every LMBench test.
// The two cell-by-cell sweeps share their schedule, so the difference of
// their times is the cost of the spans. It then probes the layers under
// the corner cells.
func traceSweep(e *env) error {
	tr := e.tr
	want, err := loadSweepReport(sweepReportPath)
	if err != nil {
		return err
	}
	ran, _, _, err := sweepChecked(e, referenceSeed, want)
	if err != nil {
		return err
	}
	plain := make(map[string]sweep.Cell)
	for _, c := range ran.Cells {
		plain[groupName("cell", c.Combo, c.ICPBudget, c.InlineBudget)] = c
	}

	setupID := tr.begin(0, "setup", "")
	s, err := newSweepSuite(tr, setupID, referenceSeed)
	tr.end(setupID)
	if err != nil {
		return err
	}
	base, err := s.Baseline()
	if err != nil {
		return err
	}
	// cells runs every cell through traceCell, checks its geomean and
	// returns the images by group. The suite caches images by name, so
	// each sweep names its own.
	cells := func(tr *tracer, parent int, prefix string) map[string]*pibe.Image {
		images := make(map[string]*pibe.Image)
		for _, combo := range sweep.DefaultCombos() {
			for _, icp := range sweepGrid {
				for _, inl := range sweepGrid {
					group := groupName("cell", combo.Name, icp, inl)
					img, g, err := traceCell(tr, parent, prefix+group, s, base, combo, icp, inl)
					if !e.op(prefix+"sweep "+group, err) {
						continue
					}
					images[group] = img
					if p, ok := plain[group]; !ok || p.Geomean != g {
						e.check(fmt.Errorf("sweep: %s%s geomean %v, sweep.Run %v", prefix, group, g, p.Geomean))
					}
				}
			}
		}
		return images
	}
	start := time.Now()
	cells(nil, 0, "untraced ")
	untracedWall := time.Since(start)
	root := tr.begin(0, "e2e", "")
	images := cells(tr, root, "")
	tr.end(root)
	fmt.Fprintf(e.stdout, "self time of the traced sweep of kernel %d:\n", referenceSeed)
	e.metrics["trace.unattributed_frac"] = tr.writeSelfTable(e.stdout, root)
	e.metrics["trace.overhead_s"] = (tr.duration(root) - untracedWall).Seconds()
	e.metrics["workload.measure_ms_p50"] = tr.p50ms("workload.measure")
	e.metrics["workload.measure_ms_max"] = tr.quantileMS("workload.measure", 1)
	e.metrics["sweep.build_ms_p50"] = tr.p50ms("sweep.build")
	e.metrics["sweep.build_ms_p90"] = tr.quantileMS("sweep.build", 0.9)
	e.metrics["sweep.measure_ms_p50"] = tr.p50ms("sweep.measure")
	e.metrics["sweep.measure_ms_p90"] = tr.quantileMS("sweep.measure", 0.9)
	e.metrics["sweep.baseline_ms"] = tr.p50ms("sweep.baseline")

	return probeSweep(e, s, images)
}

// traceCell builds and measures one cell the way sweep.Run does, one
// LMBench test at a time, and returns the image and its geomean
// overhead. group names the image in the suite's cache and the cell's
// spans.
func traceCell(tr *tracer, parent int, group string, s *bench.Suite, base []pibe.Latency, combo sweep.Combo, icp, inl float64) (*pibe.Image, float64, error) {
	cell := tr.begin(parent, "sweep.cell", group)
	defer tr.end(cell)
	bc := pibe.BuildConfig{
		Profile:  s.ProfLM,
		Defenses: combo.Defenses,
		Optimize: pibe.OptimizeConfig{ICPBudget: icp, InlineBudget: inl},
	}
	var img *pibe.Image
	if err := tr.span(cell, "sweep.build", group, func(int) (err error) {
		img, err = s.Image(group, bc)
		return err
	}); err != nil {
		return nil, 0, err
	}
	specs := s.Sys.Kernel.Specs
	ovs := make([]float64, len(specs))
	err := tr.span(cell, "sweep.measure", group, func(id int) error {
		for i, spec := range specs {
			var lat pibe.Latency
			if err := tr.span(id, "workload.measure", group, func(int) (err error) {
				lat, err = img.MeasureBenchmark(pibe.LMBench, spec.Name)
				return err
			}); err != nil {
				return err
			}
			ovs[i] = pibe.Overhead(base[i].Micros, lat.Micros)
		}
		return nil
	})
	g, _ := pibe.GeomeanCounted(ovs)
	return img, g, err
}

// probeSweep measures the layers under the corner cells of every combo
// on the reference kernel, outside the traced sweep: the build phases
// (checked against the sweep's own images), the CPU model's counters
// after a serial-driver measurement, the machine-run time and the
// kernel and profile set-up steps.
func probeSweep(e *env, s *bench.Suite, images map[string]*pibe.Image) error {
	tr := e.tr
	probe := tr.begin(0, "probe", "")
	defer tr.end(probe)
	if err := probeKernel(e, probe, kernelConfig(pibe.KernelConfig{Seed: referenceSeed})); err != nil {
		return err
	}
	for _, f := range []struct {
		w     pibe.Workload
		scale int
	}{{pibe.LMBench, 5}, {pibe.Apache, 4}} { // the scales bench.NewSuiteKernel profiles at
		if err := tr.span(probe, "workload.profile."+f.w.String(), "", func(int) error {
			_, err := s.Sys.Profile(f.w, f.scale)
			return err
		}); err != nil {
			return err
		}
	}
	profileMetrics(e, pibe.LMBench, pibe.Apache)

	k := s.Sys.Kernel
	var counts []phaseCounts
	var stats cpu.Counters
	var last *interp.Program
	for _, combo := range sweep.DefaultCombos() {
		for _, b := range []float64{0, sweepGrid[len(sweepGrid)-1]} {
			group := groupName("cell", combo.Name, b, b)
			img, ok := images[group]
			if !ok {
				continue
			}
			mod, c, err := phaseBuild(tr, probe, group, k, s.ProfLM.Raw(), combo.Defenses, b, b)
			if !e.op("phase build "+group, err) {
				continue
			}
			e.check(checkImage(mod, combo.Defenses, digest(img.Mod)))
			counts = append(counts, c)
			prog, err := interp.Compile(img.Mod)
			if !e.op("compile "+group, err) {
				continue
			}
			st, err := serialCounters(k, prog)
			if !e.op("serial measurement "+group, err) {
				continue
			}
			addCounters(&stats, st)
			last = prog
		}
	}
	phaseTotals(e, counts)
	cpuMetrics(e, stats)
	if last == nil {
		return fmt.Errorf("sweep: no corner cell built")
	}
	return machineRun(e, k, last)
}

// serialCounters measures every LMBench test with the serial driver
// and sums the CPU model's counters, which after each test hold its
// last measured round.
func serialCounters(k *kernel.Kernel, prog *interp.Program) (cpu.Counters, error) {
	var total cpu.Counters
	r, err := workload.NewRunner(k, prog, workload.LMBench, 71)
	if err != nil {
		return total, err
	}
	for _, spec := range k.Specs {
		if _, err := r.Measure(spec.Name); err != nil {
			return total, err
		}
		addCounters(&total, r.CPU.Stats)
	}
	return total, nil
}

func addCounters(dst *cpu.Counters, c cpu.Counters) {
	dst.Instructions += c.Instructions
	dst.BTBHits += c.BTBHits
	dst.BTBMisses += c.BTBMisses
	dst.RSBHits += c.RSBHits
	dst.RSBMisses += c.RSBMisses
	dst.PHTHits += c.PHTHits
	dst.PHTMisses += c.PHTMisses
	dst.ICacheHits += c.ICacheHits
	dst.ICacheMisses += c.ICacheMisses
	dst.ThunkedCalls += c.ThunkedCalls
	dst.ThunkedRets += c.ThunkedRets
}

func cpuMetrics(e *env, c cpu.Counters) {
	rate := func(miss, hit int64) float64 {
		if miss+hit == 0 {
			return 0
		}
		return float64(miss) / float64(miss+hit)
	}
	e.metrics["cpu.instructions"] = float64(c.Instructions)
	e.metrics["cpu.icache_accesses"] = float64(c.ICacheHits + c.ICacheMisses)
	e.metrics["cpu.icache_miss_rate"] = rate(c.ICacheMisses, c.ICacheHits)
	e.metrics["cpu.btb_miss_rate"] = rate(c.BTBMisses, c.BTBHits)
	e.metrics["cpu.rsb_miss_rate"] = rate(c.RSBMisses, c.RSBHits)
	e.metrics["cpu.pht_miss_rate"] = rate(c.PHTMisses, c.PHTHits)
	e.metrics["cpu.thunked_calls"] = float64(c.ThunkedCalls)
	e.metrics["cpu.thunked_rets"] = float64(c.ThunkedRets)
}

// machineRun times warmed Machine.RunIndex calls over every LMBench
// entry of prog and the simulated cycles per host second they model.
func machineRun(e *env, k *kernel.Kernel, prog *interp.Program) error {
	const warm, runs = 3, 20
	res, err := workload.BuildResolver(k, prog, workload.LMBench)
	if err != nil {
		return err
	}
	mc := interp.NewMachine(prog, 1)
	mc.CPU = cpu.New(cpu.DefaultParams())
	mc.Res = res
	var host time.Duration
	var cycles int64
	var calls int
	for _, spec := range k.Specs {
		idx := prog.FuncIndex(k.Entries[spec.Name])
		for i := 0; i < warm; i++ {
			if err := mc.RunIndex(idx); err != nil {
				return err
			}
		}
		c0 := mc.CPU.Cycles
		start := time.Now()
		for i := 0; i < runs; i++ {
			if err := mc.RunIndex(idx); err != nil {
				return err
			}
		}
		host += time.Since(start)
		cycles += mc.CPU.Cycles - c0
		calls += runs
	}
	e.metrics["interp.machine_run_ns"] = float64(host.Nanoseconds()) / float64(calls)
	e.metrics["interp.sim_mcycles_per_s"] = float64(cycles) / host.Seconds() / 1e6
	return nil
}
