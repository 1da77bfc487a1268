// Package interp executes IR modules. It serves three roles in the
// pipeline, mirroring how the paper uses its profiling and production
// kernel binaries:
//
//   - the profiling run: execution records per-site counts and
//     indirect-target value profiles into a Recorder;
//   - the measurement run: execution drives the cpu.Model, producing
//     cycle counts for each workload operation;
//   - functional validation: transforms must preserve behaviour, which
//     tests check by comparing execution traces before and after.
//
// Compile lowers a module to a Program: per block, the list of its
// control-flow events, each carrying the aggregated cost of the
// straight-line run before it. This file's dispatch loop is the
// per-event reference tier. It charges every event as it happens: the
// step/fuel check and the i-cache touch at block entry, each event's
// preceding run, then the event itself. The threaded-code tier
// (compiled.go) is the fast engine; superblock formation and batched
// segment charging live there, and the equivalence gates hold it
// cycle-exact against this loop.
//
// Execution is iterative: calls push an explicit frame onto a pooled
// frame stack instead of recursing through Go stack frames, so MaxDepth
// is bounded by memory, not by goroutine stack growth.
package interp

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/cpu"
	"repro/internal/ir"
	"repro/internal/resilience"
)

// ckind discriminates compiled instructions. Straight-line runs are not
// instructions at this level at all: compilation folds each run's
// aggregated cost into the preCost/preCount of the control-flow event
// that follows it, so the dispatch loop only ever visits events.
type ckind uint8

const (
	cResolve ckind = iota // function-pointer load
	cCmpFn                // compare register against function
	cBr                   // conditional branch
	cJmp                  // unconditional branch
	cSwitch               // multiway branch
	cCall                 // direct call
	cICall                // indirect call
	cRet                  // return
)

// cinstr is one compiled control-flow event. The layout is compact —
// 56 bytes, under one cache line — because every in-flight image holds
// its Program. Three narrowings make that possible: addresses are int32
// (the image starts at LayoutBase and is far smaller than 2 GiB; Compile
// rejects overflow), kinds that never use a field reuse it (see the
// per-kind comments), and switch target lists live in a per-function
// side table instead of a 24-byte slice header per event. Cost fields
// are int32 — per-run aggregates are bounded by block size times
// per-instruction latency, far below 2^31.
type cinstr struct {
	// preCost/preCount carry the aggregated latency and instruction
	// count of the straight-line run preceding this event (plus the
	// event's own instruction for cCmpFn, whose cycle rides on the
	// fused branch). The loop charges them before the event executes,
	// preserving the exact charge order of per-instruction execution.
	preCost  int32
	preCount int32
	addr     int32 // branch/call/ret instruction address
	// cost: cResolve load latency; cBr taken threshold in 2^-24 units.
	cost int32
	then int32 // cBr/cJmp taken block index
	// els: cBr fall-through block index; cCall/cICall return address
	// (addr + size).
	els int32
	// callee: cCall/cCmpFn function index; cSwitch index into the
	// function's switchTargets side table.
	callee  int32
	trip    int32 // cBr: counted-loop trip count (0 = not counted)
	tripIdx int32 // cBr: index into the frame's trip-counter array
	reg     int32
	orig    ir.SiteID
	site    ir.SiteID
	args    int16 // call argument count (InlineCost caps it far below 2^15)
	kind    ckind
	useFlag bool // cBr: branch on flag
	table   bool // cSwitch: lowered as a jump table
	def     ir.Defense
}

// cblock is one block's event list plus the instruction-cache lines it
// spans. All fields fit int32 — addresses by the layout budget Compile
// enforces, costs because they are per-block aggregates.
type cblock struct {
	instrs   []cinstr
	lineBase int32
	nLines   int32

	// tailCost/tailCount carry a trailing straight-line run with no
	// following event (only possible in a malformed block that falls
	// through); the loop charges it before the fell-through trap, as
	// per-instruction execution would.
	tailCost  int32
	tailCount int32
}

type cfunc struct {
	name     string
	index    int32
	addr     int64
	numRegs  int
	numTrips int
	blocks   []cblock
	// switchTargets holds the per-switch target block lists; cSwitch
	// events index it through their callee field. Hoisting the slices
	// out of cinstr keeps the event record within one cache line.
	switchTargets [][]int32
}

// probThresh converts a branch probability in [0,1] to the 24-bit
// integer threshold the dispatch loop compares a uniform draw against.
func probThresh(p float32) int32 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1 << 24
	}
	return int32(p * (1 << 24))
}

// Program is an executable compilation of an ir.Module. The module is
// laid out (addresses assigned) as part of compilation.
type Program struct {
	mod    *ir.Module
	funcs  []cfunc
	byName map[string]int32

	// Threaded-code form (compiled.go), built lazily on first use and
	// shared by every Machine running this program.
	compileOnce sync.Once
	compiledP   *compiled
}

// LayoutBase is where Compile places the image.
const LayoutBase = 0x1000000

// Compile lowers a module for execution. The module must verify; Compile
// re-checks the invariants it depends on and returns an error otherwise.
func Compile(mod *ir.Module) (*Program, error) {
	if end := mod.Layout(LayoutBase, 16); end > math.MaxInt32 {
		// cinstr stores addresses as int32; an image this large is far
		// outside anything the kernel generator produces.
		return nil, fmt.Errorf("interp: image end address %#x exceeds the 31-bit layout budget", end)
	}
	p := &Program{
		mod:    mod,
		funcs:  make([]cfunc, len(mod.Funcs)),
		byName: make(map[string]int32, len(mod.Funcs)),
	}
	for i, f := range mod.Funcs {
		p.byName[f.Name] = int32(i)
	}
	for i, f := range mod.Funcs {
		cf, err := p.compileFunc(f, int32(i))
		if err != nil {
			return nil, err
		}
		p.funcs[i] = cf
	}
	return p, nil
}

// Module returns the module the program was compiled from.
func (p *Program) Module() *ir.Module { return p.mod }

// FuncIndex returns the dense index of the named function, or -1.
func (p *Program) FuncIndex(name string) int {
	if i, ok := p.byName[name]; ok {
		return int(i)
	}
	return -1
}

// FuncName returns the name of the function at the given index.
func (p *Program) FuncName(idx int) string { return p.funcs[idx].name }

// FuncAddr returns the base address of the function at the given index.
func (p *Program) FuncAddr(idx int) int64 { return p.funcs[idx].addr }

// NumFuncs returns the number of functions in the program.
func (p *Program) NumFuncs() int { return len(p.funcs) }

// SiteBound returns an exclusive upper bound on the site IDs used by the
// program's module, suitable for NewResolverSized.
func (p *Program) SiteBound() int { return int(p.mod.NextSiteID()) }

func (p *Program) compileFunc(f *ir.Function, index int32) (cfunc, error) {
	cf := cfunc{name: f.Name, index: index, addr: f.Addr, numRegs: f.NumRegs}
	blockIdx := make(map[string]int32, len(f.Blocks))
	for i, b := range f.Blocks {
		blockIdx[b.Name] = int32(i)
	}
	lookup := func(name string) (int32, error) {
		if i, ok := blockIdx[name]; ok {
			return i, nil
		}
		return 0, fmt.Errorf("interp: %s: branch to unknown block %q", f.Name, name)
	}
	addr := f.Addr
	cf.blocks = make([]cblock, len(f.Blocks))
	lineSize := int64(64)
	for bi, b := range f.Blocks {
		cb := cblock{lineBase: int32(addr &^ (lineSize - 1))}
		var pendCost, pendCount int32
		appendEvent := func(ci cinstr) {
			ci.preCost += pendCost
			ci.preCount += pendCount
			pendCost, pendCount = 0, 0
			cb.instrs = append(cb.instrs, ci)
		}
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			iaddr := addr
			addr += int64(in.ByteSize())
			switch in.Op {
			case ir.OpALU, ir.OpLoad, ir.OpStore:
				pendCost += int32(in.Latency())
				pendCount++
			case ir.OpResolve:
				appendEvent(cinstr{kind: cResolve, addr: int32(iaddr), site: in.Site, orig: in.Orig, reg: in.Reg, cost: int32(in.Latency())})
			case ir.OpCmpFn:
				tgt, ok := p.byName[in.Callee]
				if !ok {
					return cf, fmt.Errorf("interp: %s: cmpfn against unknown function %q", f.Name, in.Callee)
				}
				// The compare fuses with its branch (macro-fusion); it
				// counts as an instruction but its cycle rides on the
				// branch event.
				appendEvent(cinstr{kind: cCmpFn, addr: int32(iaddr), reg: in.Reg, callee: tgt, preCount: 1})
			case ir.OpBr:
				then, err := lookup(in.Then)
				if err != nil {
					return cf, err
				}
				els, err := lookup(in.Else)
				if err != nil {
					return cf, err
				}
				ci := cinstr{kind: cBr, addr: int32(iaddr), then: then, els: els, cost: probThresh(in.Prob), useFlag: in.UseFlag, trip: in.Trip}
				if in.Trip > 0 {
					ci.tripIdx = int32(cf.numTrips)
					cf.numTrips++
				}
				appendEvent(ci)
			case ir.OpJmp:
				then, err := lookup(in.Then)
				if err != nil {
					return cf, err
				}
				appendEvent(cinstr{kind: cJmp, then: then})
			case ir.OpSwitch:
				ts := make([]int32, len(in.Targets))
				for k, t := range in.Targets {
					ti, err := lookup(t)
					if err != nil {
						return cf, err
					}
					ts[k] = ti
				}
				tbl := int32(len(cf.switchTargets))
				cf.switchTargets = append(cf.switchTargets, ts)
				appendEvent(cinstr{kind: cSwitch, addr: int32(iaddr), callee: tbl, table: in.JumpTable, def: in.Defense})
			case ir.OpCall:
				tgt, ok := p.byName[in.Callee]
				if !ok {
					return cf, fmt.Errorf("interp: %s: call to unknown function %q", f.Name, in.Callee)
				}
				appendEvent(cinstr{kind: cCall, addr: int32(iaddr), els: int32(addr), callee: tgt, site: in.Site, orig: in.Orig, args: int16(in.Args)})
			case ir.OpICall:
				appendEvent(cinstr{kind: cICall, addr: int32(iaddr), els: int32(addr), site: in.Site, orig: in.Orig, reg: in.Reg, args: int16(in.Args), def: in.Defense})
			case ir.OpRet:
				appendEvent(cinstr{kind: cRet, addr: int32(iaddr), def: in.Defense})
			case ir.OpIJump:
				return cf, fmt.Errorf("interp: %s: raw ijump instructions are produced only by lowering and are dispatched via switch", f.Name)
			default:
				return cf, fmt.Errorf("interp: %s: unknown opcode %v", f.Name, in.Op)
			}
		}
		end := addr - 1
		cb.nLines = int32(end/lineSize-int64(cb.lineBase)/lineSize) + 1
		cb.tailCost, cb.tailCount = pendCost, pendCount
		cf.blocks[bi] = cb
	}
	return cf, nil
}

// ICallHook lets a runtime mechanism (the JumpSwitches baseline)
// intercept indirect calls that carry no static defense. Handle returns
// true if it accounted for the timing of the dispatch itself.
type ICallHook interface {
	Handle(m *cpu.Model, site ir.SiteID, siteAddr, targetAddr, retAddr int64, target int32) bool
}

// frame is one pooled activation record on the machine's explicit call
// stack. regs and trips keep their capacity across calls at the same
// depth, so only the live prefix is re-initialised per call.
type frame struct {
	fi       int32
	bi       int32
	ii       int32 // instruction index to resume at within the block
	retAddr  int64
	flag     bool
	entering bool // block-entry accounting (fuel, icache) pending
	regs     []int32
	trips    []int32
}

// Machine executes a Program. CPU, Rec and Hook are all optional; a
// Machine with none of them just validates control flow.
//
// Execution failures — traps, fuel (step-budget) exhaustion, depth
// exhaustion — are reported as *resilience.FaultError values carrying
// the faulting function, so callers can distinguish an abort (after
// which partially recorded state is still usable) from a hard error.
type Machine struct {
	Prog *Program
	CPU  *cpu.Model
	Rec  *Recorder
	Res  *Resolver
	Hook ICallHook
	RNG  *rand.Rand

	// Inject, when non-nil, is consulted for chaos faults: injected traps
	// at function entry, depth exhaustion at each call, fuel exhaustion
	// at each executed block. Injection is deterministic per seed.
	Inject *resilience.Injector

	// MaxDepth bounds call nesting; MaxSteps bounds total executed
	// blocks per Run, so broken control flow fails instead of hanging.
	// Dispatch is iterative, so MaxDepth is limited by memory (one
	// pooled frame per depth), not by Go stack growth.
	MaxDepth int
	MaxSteps int64

	// RefillRSB stuffs the return stack buffer with benign entries at
	// every Run entry, modelling the kernel's RSB refilling on
	// privilege transitions (§6.4 of the paper).
	RefillRSB bool

	// OnResolve, when non-nil, observes every indirect-target resolution:
	// the original site ID (stable across ICP and inlining, which key
	// promoted chains by Orig) and the function index the resolver picked.
	// The sequence of resolutions is preserved by the optimization passes
	// — they reorder dispatch, not resolution — so differential image
	// validation (internal/diffcheck) digests it as the profile-visible
	// observable to compare a candidate image against its reference.
	OnResolve func(orig ir.SiteID, target int32)

	// Engine selects the execution tier. EngineCompiled runs the
	// threaded-code chain (compiled.go) when the machine's configuration
	// permits — no recorder, hook, injector or replaced RNG — and falls
	// back to the interpreter silently otherwise, so callers can set it
	// unconditionally.
	Engine Engine

	stack []frame
	// src is the concrete view of RNG's source and ownRNG the *rand.Rand
	// NewMachine built around it; the dispatch loop uses src only while
	// RNG == ownRNG, so replacing RNG disables the fast path instead of
	// desynchronising the streams.
	src    *fastSource
	ownRNG *rand.Rand
	// vm is the compiled tier's per-machine state; scratchCPU stands in
	// for a nil CPU there (closures charge unconditionally rather than
	// nil-check per event).
	vm         *cvm
	scratchCPU *cpu.Model
}

// fastSource is a splitmix64 rand.Source64. Compared with the standard
// library's lagged-Fibonacci source it has 8 bytes of state instead of
// ~5KB, seeds in O(1) instead of ~600 feedback steps (machines are
// created per measurement rep, so seeding is on the hot path), and each
// draw is three xorshift-multiply rounds with no memory traffic.
// Deterministic per seed, like any Source.
type fastSource struct{ s uint64 }

func newFastSource(seed int64) rand.Source64 { return &fastSource{s: uint64(seed)} }

func (f *fastSource) Seed(seed int64) { f.s = uint64(seed) }

func (f *fastSource) Int63() int64 { return int64(f.Uint64() >> 1) }

func (f *fastSource) Uint64() uint64 {
	f.s += 0x9e3779b97f4a7c15
	z := f.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewMachine returns a Machine with sensible limits and a deterministic
// RNG.
//
// The machine keeps a concrete reference to the source alongside the
// *rand.Rand wrapper: the dispatch loop draws through the concrete
// source (inlinable, no interface dispatch) while RNG remains the
// public handle. Both views share the same state, so draws through
// either produce the same stream — rand.Rand.Uint64 forwards straight
// to the Source64. A caller that replaces RNG simply loses the fast
// path; execution falls back to drawing through RNG.
func NewMachine(p *Program, seed int64) *Machine {
	src := &fastSource{s: uint64(seed)}
	rng := rand.New(src)
	return &Machine{
		Prog:     p,
		RNG:      rng,
		src:      src,
		ownRNG:   rng,
		MaxDepth: 256,
		MaxSteps: 32 << 20,
	}
}

// Run executes the named function to completion.
func (mc *Machine) Run(entry string) error {
	idx := mc.Prog.FuncIndex(entry)
	if idx < 0 {
		return trap(entry, "interp: no function %q", entry)
	}
	return mc.RunIndex(idx)
}

// RunIndex executes the function at the given dense index (FuncIndex)
// to completion. Callers that run the same entry repeatedly (benchmark
// loops, measurement reps) use it to hoist the name lookup.
func (mc *Machine) RunIndex(idx int) error {
	if idx < 0 || idx >= len(mc.Prog.funcs) {
		return trap("entry", "interp: no function at index %d", idx)
	}
	// The entry is "called" from a synthetic address so its final return
	// has a matching RSB entry after warm-up.
	const entryRetAddr = 0x7fff0000
	if mc.Engine == EngineCompiled && mc.compiledEligible() {
		err := mc.runCompiled(int32(idx), entryRetAddr)
		if err != errEngineUnavailable {
			return err
		}
		// Exotic model geometry: fall through to the interpreter.
	}
	if mc.CPU != nil {
		if mc.RefillRSB {
			mc.CPU.RefillRSB()
		}
		mc.CPU.DirectCall(entryRetAddr, 0)
	}
	return mc.exec(int32(idx), entryRetAddr)
}

// trap builds an organic (non-injected) execution trap.
func trap(site, format string, args ...any) error {
	return resilience.Faultf(resilience.PhaseExecute, resilience.KindTrap, site, format, args...)
}

// pushFrame runs the call prologue — depth and chaos checks, recorder
// invoke, register/trip-counter initialisation — and installs the frame
// at the given depth of the pooled stack.
func (mc *Machine) pushFrame(fi int32, depth int, retAddr int64) error {
	f := &mc.Prog.funcs[fi]
	if depth >= mc.MaxDepth || (mc.Inject != nil && mc.Inject.ExhaustDepth()) {
		return resilience.Faultf(resilience.PhaseExecute, resilience.KindDepthExhausted, f.name,
			"interp: call depth exceeds %d at %s", mc.MaxDepth, f.name)
	}
	if mc.Inject != nil {
		if err := mc.Inject.Trap(f.name); err != nil {
			return err
		}
	}
	if mc.Rec != nil {
		mc.Rec.invoke(fi)
	}
	if depth == len(mc.stack) {
		mc.stack = append(mc.stack, frame{})
	}
	fr := &mc.stack[depth]
	fr.fi = fi
	fr.bi = 0
	fr.ii = 0
	fr.retAddr = retAddr
	fr.flag = false
	fr.entering = true
	// Registers hold target indices biased by +1 so that the cleared
	// value 0 means "unresolved" and initialisation is a memclr rather
	// than a sentinel-fill loop.
	if cap(fr.regs) < f.numRegs {
		fr.regs = make([]int32, f.numRegs)
	}
	fr.regs = fr.regs[:f.numRegs]
	clear(fr.regs)
	if cap(fr.trips) < f.numTrips {
		fr.trips = make([]int32, f.numTrips)
	}
	fr.trips = fr.trips[:f.numTrips]
	clear(fr.trips)
	return nil
}

// exec drives the dispatch loop. Each iteration of the outer loop
// resumes the top-of-stack frame: calls suspend the caller (saving its
// resume index) and push the callee; returns pop. Every charge happens
// at its event: block entry takes the step/fuel check and touches the
// block's i-cache lines, each event first charges the straight-line run
// before it, and a block that falls through charges its tail run before
// the trap.
func (mc *Machine) exec(entry int32, retAddr int64) error {
	if err := mc.pushFrame(entry, 0, retAddr); err != nil {
		return err
	}
	model := mc.CPU
	rng := mc.RNG
	src := mc.src
	if rng != mc.ownRNG {
		src = nil // RNG was replaced; draw through the interface
	}
	funcs := mc.Prog.funcs
	res := mc.Res
	rec := mc.Rec
	hook := mc.Hook
	onResolve := mc.OnResolve
	inject := mc.Inject
	var steps int64
	sp := 0
frames:
	for sp >= 0 {
		// Per-frame state lives in locals and is spilled back to the
		// frame only when a call suspends it.
		fr := &mc.stack[sp]
		f := &funcs[fr.fi]
		bi := fr.bi
		flag := fr.flag
		entering := fr.entering
		resume := int(fr.ii)
		regs := fr.regs
		trips := fr.trips
		for {
			b := &f.blocks[bi]
			if entering {
				resume = 0
				steps++
				if steps > mc.MaxSteps || (inject != nil && inject.ExhaustFuel()) {
					return resilience.Faultf(resilience.PhaseExecute, resilience.KindFuelExhausted, f.name,
						"interp: step budget exhausted in %s", f.name)
				}
				if model != nil {
					model.TouchLines(int64(b.lineBase), int(b.nLines))
				}
			}
			next, callee := int32(-1), int32(-1)
			instrs := b.instrs
			for ii := resume; ii < len(instrs); ii++ {
				ci := &instrs[ii]
				if model != nil && ci.preCount != 0 {
					model.AddStraightline(int64(ci.preCost), int64(ci.preCount))
				}
				switch ci.kind {
				case cResolve:
					var d *Dist
					if res != nil {
						d = res.Get(ci.orig)
					}
					if d == nil {
						return trap(f.name, "interp: %s: no target distribution for site %d (orig %d)", f.name, ci.site, ci.orig)
					}
					var tgt int32
					if src != nil {
						tgt = d.pickFast(src)
					} else {
						tgt = d.Pick(rng)
					}
					regs[ci.reg] = tgt + 1
					if onResolve != nil {
						onResolve(ci.orig, tgt)
					}
					if model != nil {
						model.AddStraightline(int64(ci.cost), 1)
					}
				case cCmpFn:
					flag = regs[ci.reg] == ci.callee+1
				case cBr:
					var taken bool
					switch {
					case ci.trip > 0:
						cnt := trips[ci.tripIdx]
						if cnt < ci.trip-1 {
							trips[ci.tripIdx] = cnt + 1
							taken = true
						} else {
							trips[ci.tripIdx] = 0
							taken = false
						}
					case ci.useFlag:
						taken = flag
					default:
						// Integer comparison against the precompiled
						// 24-bit threshold: one Uint64 draw.
						var u uint64
						if src != nil {
							u = src.Uint64()
						} else {
							u = rng.Uint64()
						}
						taken = uint32(u>>40) < uint32(ci.cost)
					}
					if model != nil {
						model.CondBranch(int64(ci.addr), taken)
					}
					if taken {
						next = ci.then
					} else {
						next = ci.els
					}
				case cJmp:
					next = ci.then
				case cSwitch:
					targets := f.switchTargets[ci.callee]
					var k int
					if src != nil {
						k = int(uint64nSrc(src, uint64(len(targets))))
					} else {
						k = int(uint64n(rng, uint64(len(targets))))
					}
					if model != nil {
						if ci.table {
							model.IndirectJump(int64(ci.addr), int64(k), ci.def)
						} else {
							// Compare chain: one predicted compare+branch
							// per skipped case.
							for j := 0; j <= k && j < len(targets)-1; j++ {
								model.CondBranch(int64(ci.addr)+int64(j), j == k)
							}
						}
					}
					next = targets[k]
				case cCall:
					if rec != nil {
						rec.direct(ci.orig, ci.callee)
					}
					if model != nil {
						model.DirectCall(int64(ci.els), int32(ci.args))
					}
					callee = ci.callee
				case cICall:
					tgt := regs[ci.reg] - 1
					if tgt < 0 {
						return trap(f.name, "interp: %s: icall through unresolved register r%d (site %d)", f.name, ci.reg, ci.site)
					}
					if rec != nil {
						rec.indirect(ci.orig, tgt)
					}
					if model != nil {
						ret := int64(ci.els)
						if hook != nil && ci.def == ir.DefNone &&
							hook.Handle(model, ci.orig, int64(ci.addr), funcs[tgt].addr, ret, tgt) {
							// The hook accounted for dispatch; still push the
							// return address for backward-edge fidelity.
							model.DirectCall(ret, int32(ci.args))
						} else {
							model.IndirectCall(int64(ci.addr), funcs[tgt].addr, ret, int32(ci.args), ci.def)
						}
					}
					callee = tgt
				case cRet:
					if model != nil {
						model.Return(fr.retAddr, ci.def)
					}
					sp--
					continue frames
				}
				if callee >= 0 {
					// Suspend this frame at the next event and enter the
					// callee; its return resumes here.
					fr.bi = bi
					fr.ii = int32(ii + 1)
					fr.flag = flag
					fr.entering = false
					if err := mc.pushFrame(callee, sp+1, int64(ci.els)); err != nil {
						return err
					}
					sp++
					continue frames
				}
				if next >= 0 {
					break
				}
			}
			if next < 0 {
				if model != nil && b.tailCount != 0 {
					model.AddStraightline(int64(b.tailCost), int64(b.tailCount))
				}
				return trap(f.name, "interp: %s: block %d fell through without terminator", f.name, bi)
			}
			bi = next
			entering = true
		}
	}
	return nil
}
