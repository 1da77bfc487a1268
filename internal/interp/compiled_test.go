package interp

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/ir"
	"repro/internal/kernel"
)

// The compiled tier's contract is byte-identical observables against
// the interpreter: same resolve trace, same outcome, same Cycles, same
// Stats, for any program, seed and fault mode. These tests enforce it
// over the real synthetic kernel and over fuzz-generated programs.

// enginePair is two machines over the same program — interpreter
// reference and compiled candidate — with independent CPU models and
// identical seeds, plus FNV digests of their resolve streams.
type enginePair struct {
	ref, cand *Machine
}

func newEnginePair(p *Program, res *Resolver, seed int64, maxDepth int, maxSteps int64) *enginePair {
	mk := func(eng Engine) *Machine {
		mc := NewMachine(p, seed)
		mc.CPU = cpu.New(cpu.DefaultParams())
		mc.Res = res
		mc.Engine = eng
		if maxDepth > 0 {
			mc.MaxDepth = maxDepth
		}
		if maxSteps > 0 {
			mc.MaxSteps = maxSteps
		}
		return mc
	}
	return &enginePair{ref: mk(EngineInterp), cand: mk(EngineCompiled)}
}

// runBoth runs one rep on each machine and returns the two observations
// (outcome, resolve digest, cycles, stats).
func observedRun(mc *Machine, p *Program, entry string) (string, string, int64, cpu.Counters) {
	h := fnv.New64a()
	mc.OnResolve = func(orig ir.SiteID, target int32) {
		fmt.Fprintf(h, "%d>%s\n", orig, p.FuncName(int(target)))
	}
	err := mc.Run(entry)
	mc.OnResolve = nil
	outcome := "ok"
	if err != nil {
		outcome = err.Error()
	}
	return outcome, fmt.Sprintf("%016x", h.Sum64()), mc.CPU.Cycles, mc.CPU.Stats
}

// checkPair runs reps paired executions and fails on the first
// divergence. Models are not reset between reps, so warm predictor
// state (BTB/PHT/RSB/icache) must also stay in lockstep: any drift
// shows up as a cycle mismatch in a later rep, and the models' contents
// are compared directly after every rep.
func checkPair(t *testing.T, pair *enginePair, p *Program, entry string, reps int) {
	t.Helper()
	for r := 0; r < reps; r++ {
		refOut, refDig, refCyc, refStats := observedRun(pair.ref, p, entry)
		candOut, candDig, candCyc, candStats := observedRun(pair.cand, p, entry)
		if refOut != candOut {
			t.Fatalf("%s rep %d: outcome diverged:\n  interp:   %s\n  compiled: %s", entry, r, refOut, candOut)
		}
		if refDig != candDig {
			t.Fatalf("%s rep %d: resolve digest diverged: interp %s, compiled %s", entry, r, refDig, candDig)
		}
		if refCyc != candCyc {
			t.Fatalf("%s rep %d: cycles diverged: interp %d, compiled %d", entry, r, refCyc, candCyc)
		}
		if refStats != candStats {
			t.Fatalf("%s rep %d: stats diverged:\n  interp:   %+v\n  compiled: %+v", entry, r, refStats, candStats)
		}
		sameModelState(t, fmt.Sprintf("%s rep %d", entry, r), pair.ref.CPU, pair.cand.CPU)
	}
}

// kernelResolver installs a deterministic skewed distribution for every
// site of a generated kernel.
func kernelResolver(t testing.TB, k *kernel.Kernel, p *Program) *Resolver {
	t.Helper()
	res := NewResolverSized(p.SiteBound())
	for _, site := range k.Sites {
		idx := make([]int, len(site.Targets))
		w := make([]uint64, len(site.Targets))
		for i, tgt := range site.Targets {
			idx[i] = p.FuncIndex(tgt)
			w[i] = uint64(i*i + 1)
		}
		d, err := NewDist(idx, w)
		if err != nil {
			t.Fatalf("NewDist: %v", err)
		}
		res.Set(site.ID, d)
	}
	return res
}

// TestCompiledEquivalenceKernel proves cycle-exact equivalence over the
// full synthetic kernel: every syscall entry, several machine seeds,
// warm models carried across reps.
func TestCompiledEquivalenceKernel(t *testing.T) {
	k, err := kernel.Generate(kernel.Config{Seed: 1})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	p, err := Compile(k.Mod)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	res := kernelResolver(t, k, p)
	for _, seed := range []int64{1, 7, 12345} {
		for _, spec := range k.Specs {
			pair := newEnginePair(p, res, seed, 0, 0)
			checkPair(t, pair, p, k.Entries[spec.Name], 4)
		}
	}
}

// TestCompiledEquivalenceFaults drives both engines into every fault
// class — fuel exhaustion, depth exhaustion, unresolved sites — and
// requires identical outcomes and identical partial charges.
func TestCompiledEquivalenceFaults(t *testing.T) {
	k, err := kernel.Generate(kernel.Config{Seed: 2})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	p, err := Compile(k.Mod)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	res := kernelResolver(t, k, p)
	entry := k.Entries[k.Specs[0].Name]
	t.Run("fuel", func(t *testing.T) {
		pair := newEnginePair(p, res, 3, 0, 25)
		checkPair(t, pair, p, entry, 3)
	})
	t.Run("depth", func(t *testing.T) {
		pair := newEnginePair(p, res, 3, 2, 0)
		checkPair(t, pair, p, entry, 3)
	})
	t.Run("unresolved", func(t *testing.T) {
		pair := newEnginePair(p, NewResolver(), 3, 0, 0)
		checkPair(t, pair, p, entry, 3)
	})
	t.Run("refill-rsb", func(t *testing.T) {
		pair := newEnginePair(p, res, 3, 0, 0)
		pair.ref.RefillRSB = true
		pair.cand.RefillRSB = true
		checkPair(t, pair, p, entry, 3)
	})
}

// TestCompiledFallback pins the eligibility rule: a machine carrying
// interpreter-only state (here a recorder) runs the interpreter even
// with Engine=EngineCompiled, and behaves identically to an explicit
// interpreter machine.
func TestCompiledFallback(t *testing.T) {
	k, err := kernel.Generate(kernel.Config{Seed: 1})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	p, err := Compile(k.Mod)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	res := kernelResolver(t, k, p)
	entry := k.Entries[k.Specs[0].Name]

	pair := newEnginePair(p, res, 9, 0, 0)
	pair.ref.Rec = NewRecorder(p)
	pair.cand.Rec = NewRecorder(p)
	if pair.cand.compiledEligible() {
		t.Fatal("machine with recorder must not be compiled-eligible")
	}
	checkPair(t, pair, p, entry, 2)
	refProf, err := pair.ref.Rec.Profile()
	if err != nil {
		t.Fatalf("ref profile: %v", err)
	}
	candProf, err := pair.cand.Rec.Profile()
	if err != nil {
		t.Fatalf("cand profile: %v", err)
	}
	if refProf.Hash() != candProf.Hash() {
		t.Fatal("recorder output diverged between fallback and interpreter machines")
	}
}

// TestCompiledSuperblockEdges covers superblock shapes genModule never
// emits: a jump chain past the 32-merge cap, jump-only cycles that must
// fuel-fault at the same step with the same partial charges, and a chain
// whose merged target holds a resolve, so a may-fault segment (charged
// per event) sits between batched ones; a jump to a block without a
// terminator must not merge and that block's tail run must be charged
// before the fell-through trap. shape checks that block 0 of fn
// really compiles to the superblock the case is about.
func TestCompiledSuperblockEdges(t *testing.T) {
	leaves := func(mod *ir.Module) {
		for _, name := range []string{"t1", "t2"} {
			b := ir.NewFunction(mod, name, 0)
			b.ALU(3)
			b.Ret()
		}
	}
	// chain40: entry calls a function whose 40 blocks each jump to the
	// next; block sizes vary so some span several i-cache lines.
	chain40 := func() (*ir.Module, ir.SiteID) {
		mod := ir.NewModule()
		b := ir.NewFunction(mod, "f0", 0)
		b.ALU(2)
		b.Call("chain", 0)
		b.Call("chain", 1)
		b.Ret()
		c := ir.NewFunction(mod, "chain", 0)
		for i := 0; i < 40; i++ {
			c.ALU(1 + (i*7)%40)
			next := fmt.Sprintf("b%d", i+1)
			c.Jmp(next)
			c.NewBlock(next)
		}
		c.ALU(2)
		c.Ret()
		return mod, 0
	}
	// cycle: entry calls spin, whose three blocks jump in a ring forever.
	cycle := func() (*ir.Module, ir.SiteID) {
		mod := ir.NewModule()
		b := ir.NewFunction(mod, "f0", 0)
		b.ALU(1)
		b.Call("spin", 0)
		b.Ret()
		s := ir.NewFunction(mod, "spin", 0)
		s.ALU(3)
		s.Jmp("b")
		s.NewBlock("b")
		s.ALU(40)
		s.Jmp("c")
		s.NewBlock("c")
		s.Jmp("entry")
		return mod, 0
	}
	// selfLoop: the entry block jumps to itself; the root is already in
	// the chain, so nothing merges.
	selfLoop := func() (*ir.Module, ir.SiteID) {
		mod := ir.NewModule()
		b := ir.NewFunction(mod, "f0", 0)
		b.ALU(5)
		b.Jmp("entry")
		return mod, 0
	}
	// resolveMid: a batched entry block jumps into a block holding a
	// resolve feeding an icall, which jumps on into a batched return
	// block — batched, per-event, batched in one superblock.
	var site ir.SiteID
	resolveMid := func() (*ir.Module, ir.SiteID) {
		mod := ir.NewModule()
		b := ir.NewFunction(mod, "f0", 0)
		b.ALU(4)
		b.Jmp("mid")
		b.NewBlock("mid")
		b.ALU(3)
		var reg int32
		site, reg = b.Resolve()
		b.ALU(2)
		b.ICall(site, reg, 1)
		b.ALU(1)
		b.Jmp("out")
		b.NewBlock("out")
		b.ALU(5)
		b.Ret()
		leaves(mod)
		return mod, site
	}
	// fallThrough: blocks without a terminator, which only a malformed
	// module has. The first jumps to the second, which is never merged;
	// the second holds a resolve, so its tail run is charged per event
	// just before the trap.
	fallThrough := func() (*ir.Module, ir.SiteID) {
		mod := ir.NewModule()
		b := ir.NewFunction(mod, "f0", 0)
		b.ALU(2)
		b.Jmp("x")
		b.NewBlock("x")
		b.ALU(3)
		site, _ = b.Resolve()
		b.ALU(4)
		leaves(mod)
		return mod, site
	}
	type shape struct {
		fn       string
		seams    int   // seams in block 0's plan
		last     ckind // kind of its last event
		perEvent bool  // some seam carries a per-event run
	}
	cases := []struct {
		name     string
		build    func() (*ir.Module, ir.SiteID)
		maxSteps int64
		dists    bool
		fault    string // expected error substring; "" runs to completion
		shape    shape
	}{
		{"chain-past-cap", chain40, 0, false, "", shape{"chain", 32, cJmp, false}},
		{"chain-past-cap-fuel", chain40, 36, false, "step budget", shape{"chain", 32, cJmp, false}},
		{"cycle-fuel", cycle, 1000, false, "step budget", shape{"spin", 2, cJmp, false}},
		{"self-loop-fuel", selfLoop, 999, false, "step budget", shape{"f0", 0, cJmp, false}},
		{"resolve-in-merged-target", resolveMid, 0, true, "", shape{"f0", 2, cRet, true}},
		{"resolve-in-merged-target-unresolved", resolveMid, 0, false, "no target distribution", shape{"f0", 2, cRet, true}},
		{"resolve-in-merged-target-fuel", resolveMid, 3, true, "step budget", shape{"f0", 2, cRet, true}},
		{"jump-to-unterminated-block", fallThrough, 0, true, "fell through", shape{"f0", 0, cJmp, false}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mod, site := tc.build()
			p, err := Compile(mod)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			fi := p.FuncIndex(tc.shape.fn)
			src := &p.funcs[fi]
			segs := make([]segment, len(src.blocks))
			for bi := range src.blocks {
				segs[bi] = segmentOf(&src.blocks[bi])
			}
			pl := planBlock(&compiled{}, src, segs, 0)
			seams, perEvent := 0, false
			for k, it := range pl.items {
				if it.pre != nil && k > 0 {
					seams++
					perEvent = perEvent || it.pre.preCount != 0
				}
			}
			last := pl.items[len(pl.items)-1].ci
			if seams != tc.shape.seams || last == nil || last.kind != tc.shape.last || perEvent != tc.shape.perEvent {
				t.Fatalf("%s block 0: %d seams, per-event seam %v, last event %v; want %d, %v, kind %d",
					tc.shape.fn, seams, perEvent, last, tc.shape.seams, tc.shape.perEvent, tc.shape.last)
			}
			res := NewResolverSized(p.SiteBound())
			if tc.dists {
				d, err := NewDist([]int{p.FuncIndex("t1"), p.FuncIndex("t2")}, []uint64{3, 1})
				if err != nil {
					t.Fatalf("NewDist: %v", err)
				}
				res.Set(site, d)
			}
			for _, seed := range []int64{1, 2} {
				pair := newEnginePair(p, res, seed, 0, tc.maxSteps)
				checkPair(t, pair, p, "f0", 4)
				if err := pair.ref.Run("f0"); (err == nil) != (tc.fault == "") ||
					(err != nil && !strings.Contains(err.Error(), tc.fault)) {
					t.Fatalf("seed %d: Run = %v, want fault %q", seed, err, tc.fault)
				}
			}
		})
	}
}

// --- fuzz -----------------------------------------------------------

// fz is a tiny splitmix64 stream for deterministic program generation.
type fz struct{ s uint64 }

func (f *fz) next() uint64 {
	f.s += 0x9e3779b97f4a7c15
	z := f.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (f *fz) n(n uint64) uint64 { return f.next() % n }

// genModule builds a random small module exercising every event kind:
// leaf chains, call-free loops, probability and flag branches, switches
// (jump-table and compare-chain), direct calls, indirect calls,
// promoted resolve/cmpfn chains, and random defenses on every
// defendable site. Returns the module and its resolve sites.
func genModule(seed uint64) (*ir.Module, []ir.SiteID) {
	r := &fz{s: seed*2 + 1}
	mod := ir.NewModule()
	n := 3 + int(r.n(5))
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
	}
	var sites []ir.SiteID
	// pickCallee biases toward higher indices so call graphs terminate;
	// occasional back-edges exercise recursion and depth faults.
	pickCallee := func(i int) string {
		if i < n-1 && r.n(8) != 0 {
			return names[i+1+int(r.n(uint64(n-1-i)))]
		}
		return names[r.n(uint64(n))]
	}
	for i := 0; i < n; i++ {
		b := ir.NewFunction(mod, names[i], 0)
		style := r.n(6)
		if i == 0 {
			style = 5 // the entry is always a caller
		}
		switch style {
		case 0: // straight-line leaf
			b.ALU(1 + int(r.n(30)))
			b.Ret()
		case 1: // superblock chain: jmp-merged straight-line segments
			b.ALU(int(r.n(10)))
			b.Jmp("b1")
			b.NewBlock("b1")
			b.ALU(1 + int(r.n(20)))
			if r.n(2) == 0 {
				b.Jmp("b2")
				b.NewBlock("b2")
				b.ALU(1 + int(r.n(6)))
			}
			b.Ret()
		case 2: // call-free counted loop (flat in the interpreter)
			b.ALU(int(r.n(5)))
			b.Jmp("loop")
			b.NewBlock("loop")
			b.ALU(1 + int(r.n(8)))
			b.BrLoop(int32(1+r.n(6)), "loop", "out")
			b.NewBlock("out")
			b.ALU(int(r.n(4)))
			b.Ret()
		case 3: // probability diamond
			b.ALU(int(r.n(6)))
			b.BrProb(float32(r.n(101))/100, "t", "e")
			b.NewBlock("t")
			b.ALU(1 + int(r.n(10)))
			b.Jmp("j")
			b.NewBlock("e")
			b.ALU(1 + int(r.n(10)))
			b.Jmp("j")
			b.NewBlock("j")
			b.Ret()
		case 4: // switch
			k := 2 + int(r.n(4))
			targets := make([]string, k)
			for j := range targets {
				targets[j] = fmt.Sprintf("s%d", j)
			}
			b.ALU(int(r.n(6)))
			b.Switch(targets)
			for j := range targets {
				b.NewBlock(targets[j])
				b.ALU(1 + int(r.n(5)))
				b.Jmp("done")
			}
			b.NewBlock("done")
			b.Ret()
		default: // caller: direct calls, icalls, promoted chains
			b.ALU(int(r.n(12)))
			for j := 0; j < 1+int(r.n(3)); j++ {
				b.Call(pickCallee(i), int(r.n(3)))
				if r.n(3) == 0 {
					b.ALU(1 + int(r.n(5)))
				}
			}
			if r.n(2) == 0 {
				sites = append(sites, b.IndirectCall(int(r.n(3))))
			}
			if r.n(3) == 0 {
				// Promoted chain: resolve, compare, direct fast path,
				// indirect fallback — the shape ICP emits.
				site, reg := b.Resolve()
				tgt := pickCallee(i)
				b.CmpFn(reg, tgt)
				b.BrFlag("d", "ind")
				b.NewBlock("d")
				b.Call(tgt, 1)
				b.Jmp("jn")
				b.NewBlock("ind")
				b.ICall(site, reg, 1)
				b.Jmp("jn")
				b.NewBlock("jn")
				sites = append(sites, site)
			}
			b.Ret()
		}
	}
	// Random defenses and switch lowering, as the hardening pass would
	// assign them.
	fwd := []ir.Defense{ir.DefNone, ir.DefNone, ir.DefRetpoline, ir.DefLVI, ir.DefFencedRetpoline, ir.DefLLVMCFI, ir.DefFineIBT, ir.DefPAC, ir.DefVeriFence}
	bwd := []ir.Defense{ir.DefNone, ir.DefNone, ir.DefRetRetpoline, ir.DefLVIRet, ir.DefFencedRetRet, ir.DefStackProtector, ir.DefSafeStack, ir.DefPACRet}
	for _, f := range mod.Funcs {
		f.ForEachInstr(func(_ *ir.Block, _ int, in *ir.Instr) {
			switch in.Op {
			case ir.OpICall:
				in.Defense = fwd[r.n(uint64(len(fwd)))]
			case ir.OpRet:
				in.Defense = bwd[r.n(uint64(len(bwd)))]
			case ir.OpSwitch:
				if r.n(2) == 0 {
					in.JumpTable = false
				}
				if in.JumpTable && r.n(3) == 0 {
					if r.n(2) == 0 {
						in.Defense = ir.DefVeriFence
					} else {
						in.Defense = ir.DefRetpoline
					}
				}
			}
		})
	}
	return mod, sites
}

// fuzzResolver installs a random distribution for every resolve site.
func fuzzResolver(r *fz, p *Program, sites []ir.SiteID, nFuncs int) (*Resolver, error) {
	res := NewResolverSized(p.SiteBound())
	for _, site := range sites {
		k := 1 + int(r.n(3))
		idx := make([]int, k)
		w := make([]uint64, k)
		for i := range idx {
			idx[i] = int(r.n(uint64(nFuncs)))
			w[i] = 1 + r.n(100)
		}
		d, err := NewDist(idx, w)
		if err != nil {
			return nil, err
		}
		res.Set(site, d)
	}
	return res, nil
}

// FuzzCompiledEquivalence generates random programs and seeds and
// asserts the compiled engine's resolve-trace digest, outcome, cycle
// count, full predictor statistics and model contents are
// byte-identical to the interpreter's — including under tight fuel and
// depth budgets that fault mid-run. geom selects the i-cache: 0 the
// default, otherwise one of smallICaches, where most touches evict.
func FuzzCompiledEquivalence(f *testing.F) {
	f.Add(uint64(1), int64(1), uint8(0), uint16(0), uint8(0))
	f.Add(uint64(2), int64(99), uint8(6), uint16(120), uint8(1))
	f.Add(uint64(3), int64(7), uint8(0), uint16(40), uint8(2))
	f.Add(uint64(12345), int64(-5), uint8(3), uint16(0), uint8(3))
	f.Add(uint64(77), int64(1<<40), uint8(2), uint16(9), uint8(0))
	f.Add(uint64(0xdeadbeef), int64(42), uint8(64), uint16(500), uint8(1))
	f.Add(uint64(9), int64(3), uint8(0), uint16(0), uint8(2))
	f.Add(uint64(10), int64(4), uint8(0), uint16(0), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, runSeed int64, maxDepth uint8, maxSteps uint16, geom uint8) {
		mod, sites := genModule(seed)
		if err := ir.Verify(mod, ir.VerifyOptions{}); err != nil {
			t.Fatalf("generated module does not verify: %v", err)
		}
		p, err := Compile(mod)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		r := &fz{s: seed ^ 0xabcdef}
		res, err := fuzzResolver(r, p, sites, mod.NumFuncs())
		if err != nil {
			t.Fatalf("resolver: %v", err)
		}
		// maxDepth 0 keeps the default; small values exercise depth
		// faults. maxSteps likewise for fuel faults.
		pair := newEnginePair(p, res, runSeed, int(maxDepth), int64(maxSteps))
		if g := int(geom) % (len(smallICaches) + 1); g > 0 {
			params := smallICaches[g-1].params()
			pair.ref.CPU, pair.cand.CPU = cpu.New(params), cpu.New(params)
		}
		checkPair(t, pair, p, "f0", 3)
	})
}

// BenchmarkMachineRunCompiled is the compiled-tier half of the
// dispatch microbenchmark pair (BenchmarkMachineRun in engine_test.go
// is the interpreter half): same program, same mix, Engine set.
func BenchmarkMachineRunCompiled(b *testing.B) {
	mc := newDispatchBenchMachine(b)
	mc.Engine = EngineCompiled
	idx := mc.Prog.FuncIndex("entry")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mc.RunIndex(idx); err != nil {
			b.Fatal(err)
		}
	}
}
