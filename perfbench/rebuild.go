package main

import (
	"bytes"
	"fmt"
	"time"

	pibe "repro"
	"repro/internal/attack"
	"repro/internal/ir"
	"repro/internal/sweep"
)

// The rebuild workload: the pibe profile → pibe build deployment flow
// on scaled kernels. Each pass profiles all four flavors (the
// interpreter with the recorder on), round-trips every profile through
// its serialization, merges them, builds one image per defense combo
// and attacks each image. Profiling and the build phases dominate; no
// LMBench measurement runs.

const (
	// rebuildScale enlarges the kernel (sweep.ScaledKernelConfig) so
	// that build phases weigh as they do on a real kernel.
	rebuildScale = 2
	// rebuildBudget is the ICP and inlining budget of every build.
	rebuildBudget = 0.999
	// profileOpsScale is the operation scale pibe profile uses.
	profileOpsScale = 5
	// rebuildKernels is how many kernels the passes rotate over.
	rebuildKernels = 3
	// minBuilds puts at least ten builds beyond the reported p90.
	minBuilds = 100
)

// rebuildKernel is one generated kernel and the image digests its first
// pass built, which every later pass must reproduce.
type rebuildKernel struct {
	seed    int64
	sys     *pibe.System
	digests map[string]string
}

// setupRebuild generates the kernels a run rotates over and returns the
// set-up time of each, timing further set-ups of the kernels that
// follow them (and dropping those kernels) until there are n.
func setupRebuild(e *env, parent int, n int) ([]*rebuildKernel, []float64, error) {
	var ks []*rebuildKernel
	var setups []float64
	for i := int64(0); i < int64(max(n, rebuildKernels)); i++ {
		seed := e.seed + i
		start := time.Now()
		var sys *pibe.System
		if err := e.tr.span(parent, "pibe.new_kernel", "", func(int) (err error) {
			sys, err = pibe.NewSyntheticKernel(sweep.ScaledKernelConfig(seed, rebuildScale))
			return err
		}); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if len(ks) < rebuildKernels {
			ks = append(ks, &rebuildKernel{seed: seed, sys: sys, digests: make(map[string]string)})
		}
	}
	return ks, setups, nil
}

// passStats is what one rebuild pass measured.
type passStats struct {
	wall      time.Duration // the pass without its output checks
	buildMS   []float64     // each build's time
	counts    []phaseCounts // traced passes only
	profBytes int           // serialized size of the four profiles
}

// rebuildPass runs one pass over k and checks its outputs. With a
// tracer it builds through phaseBuild, spanning every phase, instead of
// System.Build; the digest check holds both to the same images.
func rebuildPass(e *env, tr *tracer, parent int, pass int, k *rebuildKernel) (passStats, error) {
	var st passStats
	group := groupName("pass", pass)
	id := tr.begin(parent, "rebuild.pass", group)
	start := time.Now()

	// Each check runs as soon as its output exists, before the merge
	// changes a profile it reads back and before the next build
	// replaces an image; its time is left out of the pass's.
	var checking time.Duration
	check := func(fn func() error) {
		t := time.Now()
		tr.span(id, "perfbench.check", group, func(int) error {
			e.check(fn())
			return nil
		})
		checking += time.Since(t)
	}
	var merged *pibe.Profile
	for _, f := range flavors {
		var p *pibe.Profile
		err := tr.span(id, "workload.profile."+f.String(), group, func(int) (err error) {
			p, err = k.sys.Profile(f, profileOpsScale)
			return err
		})
		if !e.op(fmt.Sprintf("profile %s of kernel %d", f, k.seed), err) {
			continue
		}
		var buf bytes.Buffer
		err = tr.span(id, "prof.write", group, func(int) error {
			_, err := p.WriteTo(&buf)
			return err
		})
		if !e.op("write profile", err) {
			continue
		}
		var q *pibe.Profile
		err = tr.span(id, "prof.read", group, func(int) (err error) {
			q, err = pibe.ReadProfile(bytes.NewReader(buf.Bytes()))
			return err
		})
		if !e.op("read profile", err) {
			continue
		}
		st.profBytes += buf.Len()
		check(func() error { return checkRoundTrip(buf.Bytes(), q) })
		if merged == nil {
			merged = q
			continue
		}
		tr.span(id, "prof.merge", group, func(int) error { merged.Merge(q); return nil })
	}
	if merged == nil {
		tr.end(id)
		return st, fmt.Errorf("rebuild: no profile of kernel %d", k.seed)
	}

	for _, combo := range sweep.DefaultCombos() {
		var mod *ir.Module
		var report func() attack.Report
		t := time.Now()
		var err error
		if tr == nil {
			var img *pibe.Image
			img, err = k.sys.Build(pibe.BuildConfig{
				Profile:  merged,
				Defenses: combo.Defenses,
				Optimize: pibe.OptimizeConfig{ICPBudget: rebuildBudget, InlineBudget: rebuildBudget},
			})
			if err == nil {
				mod, report = img.Mod, img.SecurityReport
			}
		} else {
			err = tr.span(id, "rebuild.build", group, func(bid int) error {
				m, c, err := phaseBuild(tr, bid, group, k.sys.Kernel, merged.Raw(), combo.Defenses, rebuildBudget, rebuildBudget)
				st.counts = append(st.counts, c)
				mod, report = m, func() attack.Report { return attack.Evaluate(m) }
				return err
			})
		}
		st.buildMS = append(st.buildMS, ms(time.Since(t)))
		if !e.op(fmt.Sprintf("build %s of kernel %d", combo.Name, k.seed), err) {
			continue
		}
		tr.span(id, "attack.evaluate", group, func(int) error { report(); return nil })
		// The first image of each combo must uphold the hardening
		// invariants; every later one must equal it, and so upholds
		// them too.
		check(func() error {
			got, want := digest(mod), k.digests[combo.Name]
			if want == "" {
				k.digests[combo.Name] = got
				return checkImage(mod, combo.Defenses, "")
			}
			if got != want {
				return fmt.Errorf("rebuild: kernel %d %s: image digest %s, first pass %s", k.seed, combo.Name, got, want)
			}
			return nil
		})
	}
	st.wall = time.Since(start) - checking
	tr.end(id)
	return st, nil
}

func runRebuild(e *env) error {
	ks, setups, err := setupRebuild(e, 0, minSetups)
	if err != nil {
		return err
	}
	var passes, buildMS []float64
	start := time.Now()
	// Whole rotations only, so every run weighs the kernels alike.
	for p := 0; p%rebuildKernels != 0 || len(buildMS) < minBuilds || time.Since(start) < e.seconds; p++ {
		st, err := rebuildPass(e, nil, 0, p, ks[p%rebuildKernels])
		if err != nil {
			return err
		}
		passes = append(passes, st.wall.Seconds())
		buildMS = append(buildMS, st.buildMS...)
	}
	e.metrics["setup_s"] = median(setups)
	e.metrics["throughput_per_s"] = float64(len(buildMS)) / sum(passes)
	e.metrics["op_ms_p50"] = median(buildMS)
	e.metrics["round_ms_p50"] = 1000 * median(passes)
	return nil
}

// traceRebuild runs two rotations untraced, then the same two traced,
// phase by phase; every traced image must equal its untraced one.
func traceRebuild(e *env) error {
	tr := e.tr
	setupID := tr.begin(0, "setup", "")
	ks, _, err := setupRebuild(e, setupID, rebuildKernels)
	tr.end(setupID)
	if err != nil {
		return err
	}
	const passes = 2 * rebuildKernels
	var untraced, traced time.Duration
	var buildMS []float64
	for p := 0; p < passes; p++ {
		st, err := rebuildPass(e, nil, 0, p, ks[p%rebuildKernels])
		if err != nil {
			return err
		}
		untraced += st.wall
		buildMS = append(buildMS, st.buildMS...)
	}
	e.metrics["pibe.build_ms_p90"] = quantile(buildMS, 0.9)

	root := tr.begin(0, "e2e", "")
	var counts []phaseCounts
	var profBytes []float64
	for p := 0; p < passes; p++ {
		st, err := rebuildPass(e, tr, root, p, ks[p%rebuildKernels])
		if err != nil {
			return err
		}
		traced += st.wall
		counts = append(counts, st.counts...)
		profBytes = append(profBytes, float64(st.profBytes))
	}
	tr.end(root)
	fmt.Fprintf(e.stdout, "self time of %d traced rebuild passes:\n", passes)
	e.metrics["trace.unattributed_frac"] = tr.writeSelfTable(e.stdout, root)
	e.metrics["trace.overhead_s"] = (traced - untraced).Seconds()
	profileMetrics(e, flavors...)
	phaseTotals(e, counts)
	for _, name := range []string{"prof.write", "prof.read", "prof.merge", "attack.evaluate"} {
		e.metrics[name+"_ms"] = tr.p50ms(name)
	}
	e.metrics["prof.bytes"] = median(profBytes)

	probe := tr.begin(0, "probe", "")
	defer tr.end(probe)
	return probeKernel(e, probe, kernelConfig(sweep.ScaledKernelConfig(e.seed, rebuildScale)))
}
