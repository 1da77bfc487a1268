package interp

import (
	"slices"
	"testing"

	"repro/internal/cpu"
	"repro/internal/kernel"
)

// The default 64-set × 8-way cache misses about once in 2,000 touches
// on the kernel, so the compiled tier's per-site slot hints are almost
// never stale there. These tests shrink the cache to 4 sets × 2 ways,
// where about 70% of the kernel's touches miss and about 80% of hint
// probes find another line in the hinted slot, and check that the tag
// compare alone keeps the tier cycle-exact.

// smallICache is one tiny i-cache geometry. The 32- and 128-byte lines
// differ from the 64-byte granularity blocks are laid out with, so
// sites re-align and stride by the model's line, as Model.TouchLines
// does, while keeping the hints reserved at compile time.
type smallICache struct {
	name       string
	sets, ways int
	line       int64
}

var smallICaches = []smallICache{
	{"4x2-64B", 4, 2, 64},
	{"4x2-32B", 4, 2, 32},
	{"4x2-128B", 4, 2, 128},
}

func (g smallICache) params() cpu.Params {
	p := cpu.DefaultParams()
	p.ICacheSets, p.ICacheWays, p.ICacheLine = g.sets, g.ways, g.line
	return p
}

// sameModelState fails unless two models hold identical predictor and
// i-cache contents: BTB, PHT, RSB, tags, LRU stamps and the use tick.
// Equal cycles can hide a divergence that has not been charged yet; a
// wrongly trusted hint corrupts the stamps first, and state written to
// the wrong model's arrays shows here before it shows in a count.
func sameModelState(t *testing.T, what string, a, b *cpu.Model) {
	t.Helper()
	var sa, sb cpu.EngineState
	if !a.EngineView(&sa) || !b.EngineView(&sb) {
		t.Fatalf("%s: model geometry has no engine view", what)
	}
	switch {
	case !slices.Equal(sa.BTB, sb.BTB):
		t.Fatalf("%s: BTB diverged", what)
	case !slices.Equal(sa.PHT, sb.PHT):
		t.Fatalf("%s: PHT diverged", what)
	case sa.RSBTop != sb.RSBTop || sa.RSBLen != sb.RSBLen || !slices.Equal(sa.RSB, sb.RSB):
		t.Fatalf("%s: RSB diverged", what)
	case sa.ICTick != sb.ICTick || !slices.Equal(sa.ICTags, sb.ICTags) || !slices.Equal(sa.ICStamp, sb.ICStamp):
		t.Fatalf("%s: i-cache state diverged (tick %d vs %d)", what, sa.ICTick, sb.ICTick)
	}
}

// TestCompiledEquivalenceSmallICache runs every kernel entry under two
// seeds on each tiny geometry, warm models carried across reps, plus
// three sequences that leave hints stale in other ways: one machine
// re-pointed across models of different geometry, ResetAll between
// reps, and an interpreter machine touching the same model between
// compiled runs.
func TestCompiledEquivalenceSmallICache(t *testing.T) {
	k, err := kernel.Generate(kernel.Config{Seed: 1})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	p, err := Compile(k.Mod)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	res := kernelResolver(t, k, p)
	for _, g := range smallICaches {
		t.Run(g.name, func(t *testing.T) {
			for _, seed := range []int64{1, 7} {
				for _, spec := range k.Specs {
					pair := newEnginePair(p, res, seed, 0, 0)
					pair.ref.CPU, pair.cand.CPU = cpu.New(g.params()), cpu.New(g.params())
					checkPair(t, pair, p, k.Entries[spec.Name], 3)
				}
			}
		})
	}

	entries := []string{k.Entries[k.Specs[0].Name], k.Entries[k.Specs[len(k.Specs)-1].Name]}

	t.Run("repoint", func(t *testing.T) {
		// One machine per engine walks a sequence of models: the same
		// tiny model is revisited after the machine ran against the
		// default cache (hints up to 511 must not index 8 slots), a
		// cache too large for uint16 hints (the compiled machine falls
		// back to the interpreter) and tiny caches of other line sizes.
		geoms := []cpu.Params{
			smallICaches[0].params(),
			cpu.DefaultParams(),
			smallICaches[1].params(),
			smallICache{"8192x16-64B", 8192, 16, 64}.params(),
			smallICaches[2].params(),
		}
		const big = 3
		refM := make([]*cpu.Model, len(geoms))
		candM := make([]*cpu.Model, len(geoms))
		for i, g := range geoms {
			refM[i], candM[i] = cpu.New(g), cpu.New(g)
		}
		pair := newEnginePair(p, res, 3, 0, 0)
		for step, gi := range []int{0, 1, 0, 2, 0, big, 0, 4, 0} {
			pair.ref.CPU, pair.cand.CPU = refM[gi], candM[gi]
			// A different second entry per step leaves some sites' hints
			// from the previous model untouched by this run.
			for _, e := range []string{entries[0], k.Entries[k.Specs[1+step].Name]} {
				checkPair(t, pair, p, e, 2)
			}
			vm := pair.cand.vm
			if vm == nil || vm.model != candM[gi] {
				if gi != big {
					t.Fatalf("step %d: compiled tier did not bind its model", step)
				}
				continue
			}
			if gi == big {
				t.Fatalf("step %d: compiled tier bound a cache with more slots than a uint16 hint can name", step)
			}
			// The unsafe probe relies on every hint naming a slot of the
			// bound model, also hints this run's sites never refreshed.
			slots := geoms[gi].ICacheSets * geoms[gi].ICacheWays
			for h, slot := range vm.hints {
				if int(slot) >= slots {
					t.Fatalf("step %d: hint %d names slot %d of a %d-slot cache", step, h, slot, slots)
				}
			}
		}
	})

	t.Run("reset-all", func(t *testing.T) {
		for _, g := range smallICaches {
			pair := newEnginePair(p, res, 5, 0, 0)
			pair.ref.CPU, pair.cand.CPU = cpu.New(g.params()), cpu.New(g.params())
			for rep := 0; rep < 4; rep++ {
				for _, e := range entries {
					checkPair(t, pair, p, e, 1)
				}
				pair.ref.CPU.ResetAll()
				pair.cand.CPU.ResetAll()
			}
		}
	})

	t.Run("shared-with-interp", func(t *testing.T) {
		// Per side, an interpreter machine runs another entry on the
		// pair's model between its runs: its touches evict lines and
		// move stamps behind the compiled machine's hints.
		for _, g := range smallICaches {
			pair := newEnginePair(p, res, 9, 0, 0)
			pair.ref.CPU, pair.cand.CPU = cpu.New(g.params()), cpu.New(g.params())
			other := newEnginePair(p, res, 11, 0, 0)
			other.cand.Engine = EngineInterp
			other.ref.CPU, other.cand.CPU = pair.ref.CPU, pair.cand.CPU
			for rep := 0; rep < 4; rep++ {
				checkPair(t, pair, p, entries[0], 1)
				checkPair(t, other, p, entries[1], 1)
			}
		}
	})
}
