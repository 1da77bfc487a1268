package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	pibe "repro"
	"repro/internal/harden"
	"repro/internal/icp"
	"repro/internal/inline"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/kernel"
	"repro/internal/prof"
)

// hardenConfig is the hardening configuration System.Build derives from
// d. The image digest check catches any drift from pibe's own mapping:
// a phase build with a different configuration yields a different
// module.
func hardenConfig(d pibe.Defenses) harden.Config {
	return harden.Config{
		Retpolines: d.Retpolines, RetRetpolines: d.RetRetpolines, LVICFI: d.LVICFI,
		LLVMCFI: d.LLVMCFI, StackProtector: d.StackProtector, SafeStack: d.SafeStack,
		FineIBT: d.FineIBT, PACCFI: d.PACCFI, VeriFence: d.VeriFence,
		RSBRefill: d.RSBRefill,
	}
}

// digest identifies a module's IR: a SHA-256 over every field of its
// functions, blocks and instructions except the layout address, so
// laying a module out does not change it. It is an order of magnitude
// cheaper than hashing ir.PrintModule's text.
func digest(m *ir.Module) string {
	h := sha256.New()
	var b []byte
	num := func(v int64) { b = binary.AppendVarint(b, v) }
	str := func(s string) { num(int64(len(s))); b = append(b, s...) }
	flag := func(v bool) {
		if v {
			num(1)
		} else {
			num(0)
		}
	}
	for _, f := range m.Funcs {
		str(f.Name)
		str(f.Subsystem)
		num(int64(f.Params))
		num(int64(f.Attrs))
		num(int64(f.NumRegs))
		num(int64(len(f.Blocks)))
		for _, bl := range f.Blocks {
			str(bl.Name)
			num(int64(len(bl.Instrs)))
			for i := range bl.Instrs {
				in := &bl.Instrs[i]
				for _, v := range []int64{int64(in.Op), int64(in.Size), int64(in.Cycles), int64(in.Reg),
					int64(in.Args), int64(in.Site), int64(in.Orig), int64(in.Defense),
					int64(math.Float32bits(in.Prob)), int64(in.Trip), int64(len(in.Targets))} {
					num(v)
				}
				str(in.Callee)
				str(in.Then)
				str(in.Else)
				for _, t := range in.Targets {
					str(t)
				}
				flag(in.UseFlag)
				flag(in.JumpTable)
				flag(in.Asm)
			}
		}
		h.Write(b)
		b = b[:0]
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// phaseCounts are the per-build counts of the traced phase build.
type phaseCounts struct {
	instrs        [4]int64 // after clone, icp, inline and harden
	promotedSites int
	elidedReturn  float64 // -1 when inlining did not run
	defendedSites int
}

// phaseBuild builds the image System.Build would build for (p, d,
// budgets) — same passes, options and order — but calls each pass
// itself so the traced run can span it. Callers check its digest
// against System.Build's image.
func phaseBuild(tr *tracer, parent int, group string, k *kernel.Kernel, p *prof.Profile, d pibe.Defenses, icpBudget, inlineBudget float64) (*ir.Module, phaseCounts, error) {
	c := phaseCounts{elidedReturn: -1}
	instrs := func(i int, mod *ir.Module) {
		tr.span(parent, "trace.ir_stats", group, func(int) error {
			c.instrs[i] = ir.CollectStats(mod).Instrs
			return nil
		})
	}
	var mod *ir.Module
	tr.span(parent, "ir.clone", group, func(int) error { mod = k.Mod.Clone(); return nil })
	instrs(0, mod)
	var extra map[ir.SiteID]uint64
	if icpBudget > 0 {
		var res *icp.Result
		if err := tr.span(parent, "icp.run", group, func(int) (err error) {
			res, err = icp.Run(mod, p, icp.Options{Budget: icpBudget})
			return err
		}); err != nil {
			return nil, c, err
		}
		c.promotedSites = res.PromotedSites
		extra = res.NewSiteWeights
	}
	instrs(1, mod)
	if inlineBudget > 0 {
		var res *inline.Result
		if err := tr.span(parent, "inline.run", group, func(int) (err error) {
			res, err = inline.Run(mod, p, inline.Options{Budget: inlineBudget, ExtraWeights: extra})
			return err
		}); err != nil {
			return nil, c, err
		}
		c.elidedReturn = res.ElidedReturnFraction()
	}
	instrs(2, mod)
	var census *harden.Census
	if err := tr.span(parent, "harden.apply", group, func(int) (err error) {
		census, err = harden.Apply(mod, hardenConfig(d))
		return err
	}); err != nil {
		return nil, c, err
	}
	c.defendedSites = census.DefendedICalls + census.DefendedReturns
	instrs(3, mod)
	if err := tr.span(parent, "ir.verify", group, func(int) error {
		return ir.Verify(mod, ir.VerifyOptions{})
	}); err != nil {
		return nil, c, err
	}
	err := tr.span(parent, "interp.compile", group, func(int) error {
		_, err := interp.Compile(mod)
		return err
	})
	return mod, c, err
}

// phaseTotals sums phase counts over the builds of a traced run into
// the per-layer metrics.
func phaseTotals(e *env, cs []phaseCounts) {
	var instrs [4]float64
	var promoted, defended float64
	var elided []float64
	for _, c := range cs {
		for i, n := range c.instrs {
			instrs[i] += float64(n)
		}
		promoted += float64(c.promotedSites)
		defended += float64(c.defendedSites)
		if c.elidedReturn >= 0 {
			elided = append(elided, c.elidedReturn)
		}
	}
	for i, pass := range []string{"clone", "icp", "inline", "harden"} {
		e.metrics["ir.instrs."+pass] = instrs[i]
	}
	e.metrics["icp.promoted_sites"] = promoted
	e.metrics["harden.defended_sites"] = defended
	e.metrics["inline.elided_return_frac"] = median(elided)
	for _, name := range []string{"ir.clone", "ir.verify", "interp.compile", "icp.run", "inline.run", "harden.apply"} {
		e.metrics[name+"_ms"] = e.tr.p50ms(name)
	}
}

// flavors are the four profiling workloads, in the order pibe lists them.
var flavors = []pibe.Workload{pibe.LMBench, pibe.Apache, pibe.Nginx, pibe.DBench}

// profileMetrics reports the median profiling time of each flavor in fs.
func profileMetrics(e *env, fs ...pibe.Workload) {
	for _, f := range fs {
		e.metrics["workload.profile_ms."+f.String()] = e.tr.p50ms("workload.profile." + f.String())
	}
}

// probeKernel times kernel generation on its own: System and Suite
// construction generate the kernel inside one call.
func probeKernel(e *env, parent int, cfg kernel.Config) error {
	err := e.tr.span(parent, "kernel.generate", "", func(int) error {
		_, err := kernel.Generate(cfg)
		return err
	})
	e.metrics["kernel.generate_ms"] = e.tr.p50ms("kernel.generate")
	return err
}

// kernelConfig is the kernel configuration NewSyntheticKernel generates
// for c.
func kernelConfig(c pibe.KernelConfig) kernel.Config {
	return kernel.Config{Seed: c.Seed, ColdFuncs: c.ColdFuncs, HelperLayers: c.HelperLayers}
}
