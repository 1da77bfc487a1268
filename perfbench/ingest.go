package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	pibe "repro"
	"repro/internal/ingest"
	"repro/internal/prof"
	"repro/internal/resilience"
)

// The ingest workload: the profile-ingestion service merging deltas
// from a simulated fleet of tenants, with a poison tenant and
// intermittent tenants that are evicted and resurrected. It runs no
// interpreter, CPU model or build, so an engine or pass change must
// leave it unchanged.

const (
	ingestTenants = 32
	ingestKernels = 1024 // deltas per tenant per round
	ingestRounds  = 6
	// closedRounds run as a closed loop of nproc submitters; the rest
	// run as an open loop at openRate.
	closedRounds = 4
	// openRate is the offered load of the open-loop rounds, in deltas
	// per second. On a 2-vCPU Intel Xeon box (Go 1.24), one sender that
	// does not pace itself submits 175–245k deltas/s, the closed loop of
	// two submitters 175–240k, and the merge queue never fills: the
	// sender holding a core is the limit. 30000 is a sixth of the lowest
	// of those figures; at it, 0.1–3% of the sends start over a
	// millisecond late, where 60000 made up to 20% late.
	openRate = 30000
	// minRateFrac is the share of openRate the open loop must deliver
	// over its rounds. A sender that loses its processor for a few
	// milliseconds starts some sends late and then catches up; one that
	// cannot keep up, because Submit blocks on a full queue, delivers
	// less than it was offered, and its latencies measure a backlog
	// rather than Submit at the offered load. Such a run fails.
	minRateFrac = 0.9
	// lateMS is how late a send must start to count in loadgen.late_frac.
	lateMS = 1.0
	// ingestIdleEvict evicts the intermittent tenants (two rounds on,
	// two off) in their idle rounds; they are resurrected in round 4.
	ingestIdleEvict = 2
	// poisonKernels is how many malformed deltas the poison tenant
	// submits per round.
	poisonKernels = 16
	// baseOpsScale is the operation scale pibe ingest profiles its base
	// profiles at.
	baseOpsScale = 3
)

// ingestRun is what one pass through all rounds measured.
type ingestRun struct {
	setup          time.Duration
	wall           time.Duration // first round to snapshot
	closedWall     time.Duration
	closedAccepted int
	closedLat      []float64 // µs per Submit
	openLat        []float64 // µs from the due time to Submit's return
	lagMS          []float64 // how late each open-loop Submit started
	openWall       time.Duration
	openSent       int
	barrierMS      []float64
	gen            time.Duration
	genDeltas      int
	stats          ingest.Stats
	stateBytes     int64
}

// ingestSetup builds the base profiles and opens a service on a fresh
// state directory, configured as pibe ingest configures it.
func ingestSetup(e *env, tr *tracer, parent int) (*ingest.Sim, *ingest.Service, string, error) {
	var sys *pibe.System
	if err := tr.span(parent, "pibe.new_kernel", "", func(int) (err error) {
		sys, err = pibe.NewSyntheticKernel(pibe.KernelConfig{Seed: e.seed})
		return err
	}); err != nil {
		return nil, nil, "", err
	}
	var bases []ingest.Base
	universe := prof.New()
	for _, f := range flavors {
		var p *pibe.Profile
		if err := tr.span(parent, "workload.profile."+f.String(), "", func(int) (err error) {
			p, err = sys.Profile(f, baseOpsScale)
			return err
		}); err != nil {
			return nil, nil, "", err
		}
		bases = append(bases, ingest.Base{Name: f.String(), Prof: p.Raw()})
		universe.Merge(p.Raw())
	}
	sim, err := ingest.NewSim(ingest.SimConfig{
		Tenants: ingestTenants, Kernels: ingestKernels, Rounds: ingestRounds,
		Seed: e.seed, Bases: bases, Poison: &ingest.PoisonConfig{Kernels: poisonKernels},
	})
	if err != nil {
		return nil, nil, "", err
	}
	dir, err := os.MkdirTemp(e.dir, "state-")
	if err != nil {
		return nil, nil, "", err
	}
	cfg := ingest.Config{IdleEvict: ingestIdleEvict, Seed: e.seed, Universe: universe, StateDir: dir}
	cfg.Fingerprint = sim.Fingerprint(cfg)
	var svc *ingest.Service
	err = tr.span(parent, "ingest.open", "", func(int) (err error) {
		svc, err = ingest.Open(cfg)
		return err
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, "", err
	}
	return sim, svc, dir, nil
}

// ingestOnce sets up a service, drives every round through it and
// checks the result against flat, the serialized flat merge of every
// clean delta (computed on first use). It returns the run and the ID
// of its e2e span. Like sweepOnce it starts from a collected heap.
func ingestOnce(e *env, tr *tracer, flat *[]byte) (*ingestRun, int, error) {
	it := &ingestRun{}
	runtime.GC()
	start := time.Now()
	setupID := tr.begin(0, "setup", "")
	sim, svc, dir, err := ingestSetup(e, tr, setupID)
	tr.end(setupID)
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	it.setup = time.Since(start)

	start = time.Now()
	root := tr.begin(0, "e2e", "")
	err = ingestRoundsOn(e, tr, root, sim, svc, it)
	var snap bytes.Buffer
	if err == nil {
		err = tr.span(root, "ingest.snapshot", "", func(int) error {
			_, err := svc.GlobalSnapshot().WriteTo(&snap)
			return err
		})
	}
	tr.end(root)
	it.wall = time.Since(start)
	it.stats = svc.Stats()
	if cerr := svc.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, 0, err
	}
	if it.stateBytes, err = dirSize(dir); err != nil {
		return nil, 0, err
	}

	if *flat == nil {
		var b bytes.Buffer
		if _, err := sim.FlatMerge().WriteTo(&b); err != nil {
			return nil, 0, err
		}
		*flat = b.Bytes()
	}
	e.check(checkIngest(snap.Bytes(), *flat, it.stats, poisonKernels*ingestRounds, ingestTenants/4))
	e.check(checkSchedule(it.openSent, it.openWall, openRate, minRateFrac))
	return it, root, nil
}

// ingestRoundsOn drives every round: the round's deltas are generated
// first, outside every timing, then submitted by a closed or an open
// loop, then the poison tenant submits, then the round barrier runs.
func ingestRoundsOn(e *env, tr *tracer, parent int, sim *ingest.Sim, svc *ingest.Service, it *ingestRun) error {
	for r := 0; r < ingestRounds; r++ {
		group := groupName("round", r)
		var active []int
		for t := 0; t < ingestTenants; t++ {
			if sim.Active(t, r) {
				active = append(active, t)
			}
		}
		deltas := make([]*prof.Profile, len(active)*ingestKernels)
		start := time.Now()
		tr.span(parent, "loadgen.gen", group, func(int) error {
			for i := range deltas {
				deltas[i] = sim.Delta(active[i/ingestKernels], i%ingestKernels, r)
			}
			return nil
		})
		it.gen += time.Since(start)
		it.genDeltas += len(deltas)
		tenant := func(i int) string { return sim.TenantID(active[i/ingestKernels]) }

		var failed int
		if r < closedRounds {
			tr.span(parent, "ingest.submit", group, func(int) error {
				failed = closedLoop(svc, deltas, tenant, it)
				return nil
			})
		} else {
			tr.span(parent, "ingest.open_loop", group, func(int) error {
				failed = openLoop(svc, deltas, tenant, it)
				return nil
			})
		}
		e.attempted += len(deltas)
		e.failed += failed
		if failed > 0 {
			fmt.Fprintf(e.stderr, "perfbench: round %d refused %d deltas\n", r, failed)
		}

		tr.span(parent, "ingest.poison", group, func(int) error {
			for k := 0; k < poisonKernels; k++ {
				err := svc.Submit(ingest.PoisonTenantID, sim.PoisonDelta(k, r))
				if !resilience.IsKind(err, resilience.KindPoison) && !resilience.IsKind(err, resilience.KindQuarantined) {
					e.check(fmt.Errorf("ingest: poison delta %d of round %d: got %v, want a poison or quarantine fault", k, r, err))
				}
			}
			return nil
		})

		start = time.Now()
		if err := tr.span(parent, "ingest.end_round", group, func(int) error { return svc.EndRound() }); err != nil {
			return err
		}
		it.barrierMS = append(it.barrierMS, ms(time.Since(start)))
	}
	return nil
}

// closedLoop submits deltas from nproc goroutines, each sending its
// next delta when the previous one returns, and returns how many were
// refused.
func closedLoop(svc *ingest.Service, deltas []*prof.Profile, tenant func(int) string, it *ingestRun) int {
	workers := runtime.NumCPU()
	var next atomic.Int64
	lat := make([][]float64, workers)
	failed := make([]int, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(deltas) {
					return
				}
				t := time.Now()
				err := svc.Submit(tenant(i), deltas[i])
				lat[w] = append(lat[w], us(time.Since(t)))
				if err != nil {
					failed[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	it.closedWall += time.Since(start)
	var refused int
	for w := range lat {
		it.closedLat = append(it.closedLat, lat[w]...)
		refused += failed[w]
	}
	it.closedAccepted += len(deltas) - refused
	return refused
}

// openLoop submits delta i when it falls due, at openRate from the
// start, whether or not earlier ones have returned; a Submit that
// blocks makes the following ones late, and their latency counts the
// wait. It returns how many were refused.
func openLoop(svc *ingest.Service, deltas []*prof.Profile, tenant func(int) string, it *ingestRun) int {
	interval := time.Second / openRate
	var refused int
	start := time.Now()
	for i, d := range deltas {
		due := time.Duration(i) * interval
		// Spin rather than sleep: a timer's wake-up delay would be
		// counted as service latency. The sender thus holds one
		// processor, as a client on its own core would.
		for time.Since(start) < due {
		}
		sent := time.Since(start)
		if err := svc.Submit(tenant(i), d); err != nil {
			refused++
		}
		it.openLat = append(it.openLat, us(time.Since(start)-due))
		it.lagMS = append(it.lagMS, ms(sent-due))
	}
	it.openWall += time.Since(start)
	it.openSent += len(deltas)
	return refused
}

// dirSize is the total size of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

func runIngest(e *env) error {
	var runs []*ingestRun
	var flat []byte
	start := time.Now()
	for len(runs) < minSetups || time.Since(start) < e.seconds {
		it, _, err := ingestOnce(e, nil, &flat)
		if err != nil {
			return err
		}
		runs = append(runs, it)
	}
	var setups, openLat, barriers []float64
	var accepted int
	var closedWall time.Duration
	for _, it := range runs {
		setups = append(setups, it.setup.Seconds())
		openLat = append(openLat, it.openLat...)
		barriers = append(barriers, it.barrierMS...)
		accepted += it.closedAccepted
		closedWall += it.closedWall
	}
	e.metrics["setup_s"] = median(setups)
	e.metrics["throughput_per_s"] = float64(accepted) / closedWall.Seconds()
	e.metrics["op_ms_p50"] = median(openLat) / 1000
	e.metrics["round_ms_p50"] = median(barriers)
	return nil
}

// traceIngest runs all rounds once untraced and once traced, each on a
// fresh service.
func traceIngest(e *env) error {
	tr := e.tr
	var flat []byte
	untraced, _, err := ingestOnce(e, nil, &flat)
	if err != nil {
		return err
	}
	it, root, err := ingestOnce(e, tr, &flat)
	if err != nil {
		return err
	}
	fmt.Fprintln(e.stdout, "self time of the traced ingest rounds:")
	e.metrics["trace.unattributed_frac"] = tr.writeSelfTable(e.stdout, root)
	e.metrics["trace.overhead_s"] = (it.wall - untraced.wall).Seconds()
	profileMetrics(e, flavors...)

	st := it.stats
	e.metrics["ingest.submit_us_p50"] = median(it.closedLat)
	e.metrics["ingest.submit_us_p99"] = quantile(it.closedLat, 0.99)
	e.metrics["ingest.open_ms_p99"] = quantile(untraced.openLat, 0.99) / 1000
	e.metrics["ingest.end_round_ms"] = tr.p50ms("ingest.end_round")
	e.metrics["ingest.snapshot_ms"] = tr.p50ms("ingest.snapshot")
	e.metrics["ingest.merge_us_p50"] = us(st.MergeP50)
	e.metrics["ingest.merge_us_p99"] = us(st.MergeP99)
	e.metrics["ingest.queue_high_water"] = float64(st.QueueHighWater)
	e.metrics["ingest.batches"] = float64(st.Batches)
	e.metrics["ingest.evictions"] = float64(st.Evictions)
	e.metrics["ingest.resurrections"] = float64(st.Resurrections)
	e.metrics["fleet.stripe_merge_imbalance"] = stripeImbalance(st)
	e.metrics["ckpt.state_bytes"] = float64(it.stateBytes)
	e.metrics["resilience.poison"] = float64(st.Poison)
	e.metrics["resilience.quarantine_dropped"] = float64(st.QuarantineDropped)
	e.metrics["resilience.trips"] = float64(st.Trips)
	e.metrics["loadgen.lag_ms_p99"] = quantile(it.lagMS, 0.99)
	e.metrics["loadgen.late_frac"] = lateFrac(it.lagMS, lateMS)
	e.metrics["loadgen.delta_gen_us"] = us(it.gen) / float64(it.genDeltas)

	probe := tr.begin(0, "probe", "")
	defer tr.end(probe)
	return probeKernel(e, probe, kernelConfig(pibe.KernelConfig{Seed: e.seed}))
}

// stripeImbalance is the ratio of the busiest to the idlest global
// aggregator stripe by merges (0 when a stripe saw none).
func stripeImbalance(st ingest.Stats) float64 {
	var lo, hi uint64
	for i, s := range st.GlobalShards {
		if i == 0 || s.Merges < lo {
			lo = s.Merges
		}
		hi = max(hi, s.Merges)
	}
	if lo == 0 {
		return 0
	}
	return float64(hi) / float64(lo)
}
