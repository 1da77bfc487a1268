// Command perfbench is the repository's benchmark. It drives the PIBE
// reproduction through the public functions of its modules on three
// workloads — sweep, rebuild and ingest (see README.md for why each) —
// checks that their outputs are right, and prints every end-to-end
// metric, or with --trace 1 every per-layer metric, as the last line of
// standard output:
//
//	perfbench --workload sweep --seed 1 --seconds 20 --trace 0
//	perfbench compare DIR_A DIR_B
//
// Run it from the repository root (it reads the committed
// BENCH_sweep.json there), normally through run.sh, which builds it.
// Every run writes a record with the box fingerprint under --out;
// traced runs also write their spans and a CPU profile there. compare
// sets two directories of such records side by side.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"

	pibe "repro"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workloadDef is one benchmark workload: its untraced run, its traced run
// and the per-layer metrics the traced run must measure. The other
// per-layer metrics are layers it does not exercise; they print as 0.
type workloadDef struct {
	run, trace func(*env) error
	layers     []string
}

var workloads = map[string]workloadDef{
	"sweep": {runSweep, traceSweep, slices.Concat(traceLayers, profileLayers(pibe.LMBench, pibe.Apache), buildLayers, []string{
		"workload.measure_ms_p50", "workload.measure_ms_max",
		"interp.machine_run_ns", "interp.sim_mcycles_per_s",
		"cpu.instructions", "cpu.icache_accesses", "cpu.icache_miss_rate", "cpu.btb_miss_rate",
		"cpu.rsb_miss_rate", "cpu.pht_miss_rate", "cpu.thunked_calls", "cpu.thunked_rets",
		"sweep.build_ms_p50", "sweep.build_ms_p90", "sweep.measure_ms_p50", "sweep.measure_ms_p90", "sweep.baseline_ms",
	})},
	"rebuild": {runRebuild, traceRebuild, slices.Concat(traceLayers, profileLayers(flavors...), buildLayers, []string{
		"pibe.build_ms_p90", "prof.write_ms", "prof.read_ms", "prof.merge_ms", "prof.bytes", "attack.evaluate_ms",
	})},
	"ingest": {runIngest, traceIngest, slices.Concat(traceLayers, profileLayers(flavors...), []string{
		"ingest.submit_us_p50", "ingest.submit_us_p99", "ingest.open_ms_p99", "ingest.end_round_ms",
		"ingest.snapshot_ms", "ingest.merge_us_p50", "ingest.merge_us_p99", "ingest.queue_high_water",
		"ingest.batches", "ingest.evictions", "ingest.resurrections", "fleet.stripe_merge_imbalance",
		"ckpt.state_bytes", "resilience.poison", "resilience.quarantine_dropped", "resilience.trips",
		"loadgen.lag_ms_p99", "loadgen.late_frac", "loadgen.delta_gen_us",
	})},
}

// traceLayers are measured by every traced run, buildLayers by every
// traced run that builds images phase by phase.
var (
	traceLayers = []string{"kernel.generate_ms", "trace.overhead_s", "trace.unattributed_frac"}
	buildLayers = []string{
		"ir.clone_ms", "ir.verify_ms", "interp.compile_ms",
		"ir.instrs.clone", "ir.instrs.icp", "ir.instrs.inline", "ir.instrs.harden",
		"icp.run_ms", "icp.promoted_sites", "inline.run_ms", "inline.elided_return_frac",
		"harden.apply_ms", "harden.defended_sites",
	}
)

// profileLayers are the profiling-time metrics of the given flavors.
func profileLayers(fs ...pibe.Workload) []string {
	var out []string
	for _, f := range fs {
		out = append(out, "workload.profile_ms."+f.String())
	}
	return out
}

// env is the state of one benchmark run: its inputs, the operations it
// attempted, the output checks that failed and the metrics it measured.
type env struct {
	seed    int64
	seconds time.Duration
	dir     string  // this run's output directory
	tr      *tracer // nil in untraced runs
	stdout  io.Writer
	stderr  io.Writer

	attempted, failed int
	checkErrs         []error
	metrics           map[string]float64
}

// op counts one attempted operation and reports whether it succeeded.
func (e *env) op(what string, err error) bool {
	e.attempted++
	if err != nil {
		e.failed++
		fmt.Fprintf(e.stderr, "perfbench: %s failed: %v\n", what, err)
	}
	return err == nil
}

// check records a failed output check; the run then reports
// correct=false and exits 1.
func (e *env) check(err error) {
	if err != nil {
		e.checkErrs = append(e.checkErrs, err)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is what a run leaves under --out for compare.
type record struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Trace       bool        `json:"trace"`
	Seconds     int         `json:"seconds"`
	Time        time.Time   `json:"time"`
	Fingerprint fingerprint `json:"fingerprint"`
	CheckErrors []string    `json:"check_errors,omitempty"`
	Result      result      `json:"result"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: sweep, rebuild or ingest")
	seed := fs.Int64("seed", referenceSeed, "workload seed")
	seconds := fs.Int("seconds", 20, "seconds one run measures")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for run records, spans and CPU profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.Arg(0) == "compare" {
		if fs.NArg() != 3 {
			fmt.Fprintln(stderr, "usage: perfbench compare DIR_A DIR_B")
			return 2
		}
		if err := compare(fs.Arg(1), fs.Arg(2), stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload sweep|rebuild|ingest, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	if err := runWorkload(*name, w, *seed, *seconds, *trace == 1, *out, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

var errIncorrect = errors.New("output checks failed")

func runWorkload(name string, w workloadDef, seed int64, seconds int, trace bool, out string, stdout, stderr io.Writer) error {
	tag := "untraced"
	if trace {
		tag = "traced"
	}
	e := &env{
		seed:    seed,
		seconds: time.Duration(seconds) * time.Second,
		dir:     filepath.Join(out, fmt.Sprintf("%s-seed%d-%s", name, seed, tag)),
		stdout:  stdout,
		stderr:  stderr,
		metrics: make(map[string]float64),
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return err
	}
	fp := boxFingerprint()
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%t\nfingerprint: %s\n", name, seed, seconds, trace, fp)

	fn, defs, want := w.run, endToEnd, make(map[string]bool)
	for _, d := range endToEnd {
		want[d.Name] = true
	}
	if trace {
		fn, defs, want = w.trace, perLayer, make(map[string]bool)
		for _, n := range w.layers {
			want[n] = true
		}
		e.tr = newTracer()
		prof, err := os.Create(filepath.Join(e.dir, "cpu.pprof"))
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return err
		}
		err = fn(e)
		pprof.StopCPUProfile()
		if cerr := prof.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if err := e.tr.write(filepath.Join(e.dir, "spans.jsonl")); err != nil {
			return err
		}
		if len(e.tr.missing) > 0 {
			return fmt.Errorf("%s recorded no spans named %s", name, strings.Join(e.tr.missing, ", "))
		}
		// A traced operation that failed left its share out of the
		// per-layer counts, which would then read as a real change.
		if e.failed > 0 {
			e.check(fmt.Errorf("%d of %d traced operations failed", e.failed, e.attempted))
		}
	} else {
		if err := fn(e); err != nil {
			return err
		}
		e.metrics["peak_rss_mb"] = peakRSSMB()
		if e.attempted > 0 {
			e.metrics["success_rate"] = float64(e.attempted-e.failed) / float64(e.attempted)
		}
	}

	res := result{Correct: len(e.checkErrs) == 0, Attempted: e.attempted, Failed: e.failed, Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		v, ok := e.metrics[d.Name]
		if ok != want[d.Name] {
			return fmt.Errorf("%s measured %s: %t, should have: %t", name, d.Name, ok, want[d.Name])
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for n := range e.metrics {
		if _, ok := res.Metrics[n]; !ok {
			return fmt.Errorf("%s measured %s, which is not a metric of this run", name, n)
		}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("%s attempted no operations", name)
	}
	rec := record{Workload: name, Seed: seed, Trace: trace, Seconds: seconds, Time: time.Now().UTC(), Fingerprint: fp, Result: res}
	for _, err := range e.checkErrs {
		rec.CheckErrors = append(rec.CheckErrors, err.Error())
		fmt.Fprintf(stderr, "perfbench: check failed: %v\n", err)
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	// One record per run, so repeated runs of one seed accumulate for
	// compare instead of overwriting each other.
	recPath := filepath.Join(e.dir, fmt.Sprintf("record-%d.json", time.Now().UnixNano()))
	if err := os.WriteFile(recPath, append(data, '\n'), 0o644); err != nil {
		return err
	}

	printMetrics(stdout, res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// printMetrics prints one "name value unit" line per metric, sorted.
func printMetrics(w io.Writer, m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// groupName joins the parts of a span group ID, e.g. "pass:3".
func groupName(kind string, parts ...any) string {
	s := make([]string, len(parts))
	for i, p := range parts {
		s[i] = fmt.Sprint(p)
	}
	return kind + ":" + strings.Join(s, "/")
}
