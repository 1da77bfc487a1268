package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	pibe "repro"
	"repro/internal/harden"
	"repro/internal/ingest"
	"repro/internal/ir"
	"repro/internal/sweep"
)

// The output checks. Each returns nil when the output is right; a
// non-nil error fails the run.

// loadSweepReport reads a committed sweep surface (BENCH_sweep.json).
func loadSweepReport(path string) (*sweep.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep sweep.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// checkSweep checks one sweep.Run report. When want is non-nil it is
// the committed surface of the same kernel, and every cell must equal
// its committed cell in the three deterministic fields. On any kernel,
// no cell's geomean may be skipped or clamped, and each combo's top
// cell must lie strictly below its 0%×0% cell.
func checkSweep(rep, want *sweep.Report) error {
	type key struct {
		combo    string
		icp, inl float64
	}
	var errs []error
	if want != nil {
		if want.Seed != rep.Seed {
			return fmt.Errorf("sweep: expected surface is for seed %d, not %d", want.Seed, rep.Seed)
		}
		committed := make(map[key]sweep.Cell, len(want.Cells))
		for _, c := range want.Cells {
			committed[key{c.Combo, c.ICPBudget, c.InlineBudget}] = c
		}
		for _, c := range rep.Cells {
			w, ok := committed[key{c.Combo, c.ICPBudget, c.InlineBudget}]
			switch {
			case !ok:
				errs = append(errs, fmt.Errorf("sweep: cell %s %g×%g missing from the committed surface", c.Combo, c.ICPBudget, c.InlineBudget))
			case c.Geomean != w.Geomean || c.ICPWeightFrac != w.ICPWeightFrac || c.InlineReturnFrac != w.InlineReturnFrac:
				errs = append(errs, fmt.Errorf("sweep: cell %s %g×%g = (%v, %v, %v), committed (%v, %v, %v)",
					c.Combo, c.ICPBudget, c.InlineBudget, c.Geomean, c.ICPWeightFrac, c.InlineReturnFrac,
					w.Geomean, w.ICPWeightFrac, w.InlineReturnFrac))
			}
		}
	}
	origin := make(map[string]float64)
	top := make(map[string]sweep.Cell)
	for _, c := range rep.Cells {
		if c.GeomeanSkipped > 0 || c.GeomeanClamped > 0 {
			errs = append(errs, fmt.Errorf("sweep: cell %s %g×%g geomean skipped %d and clamped %d overheads",
				c.Combo, c.ICPBudget, c.InlineBudget, c.GeomeanSkipped, c.GeomeanClamped))
		}
		if c.ICPBudget == 0 && c.InlineBudget == 0 {
			origin[c.Combo] = c.Geomean
		}
		if t, ok := top[c.Combo]; !ok || (c.ICPBudget >= t.ICPBudget && c.InlineBudget >= t.InlineBudget) {
			top[c.Combo] = c
		}
	}
	for _, combo := range rep.Combos {
		o, ok := origin[combo]
		t := top[combo]
		if !ok || !(t.Geomean < o) {
			errs = append(errs, fmt.Errorf("sweep: %s top cell %g×%g overhead %v is not below its 0%%×0%% cell's %v",
				combo, t.ICPBudget, t.InlineBudget, t.Geomean, o))
		}
	}
	return errors.Join(errs...)
}

// checkRoundTrip checks that a profile read back from its serialization
// serializes to the same bytes.
func checkRoundTrip(written []byte, read *pibe.Profile) error {
	var again bytes.Buffer
	if _, err := read.WriteTo(&again); err != nil {
		return err
	}
	if !bytes.Equal(written, again.Bytes()) {
		return fmt.Errorf("profile round trip changed %d bytes into %d", len(written), again.Len())
	}
	return nil
}

// checkImage checks a built module: it upholds the hardening invariants
// of its defenses, and its digest equals want (the same image built
// earlier) unless want is empty.
func checkImage(mod *ir.Module, d pibe.Defenses, want string) error {
	if err := harden.CheckInvariants(mod, hardenConfig(d), false); err != nil {
		return err
	}
	if got := digest(mod); want != "" && got != want {
		return fmt.Errorf("image digest %s, earlier build %s", got, want)
	}
	return nil
}

// checkIngest checks an ingest run: the serialized global snapshot
// equals the flat merge of every clean tenant's deltas, each injected
// poison delta was either rejected or dropped in quarantine, the
// breaker tripped, and every intermittent tenant was evicted and
// resurrected once.
func checkIngest(snapshot, flat []byte, st ingest.Stats, injected uint64, intermittent int) error {
	var errs []error
	if !bytes.Equal(snapshot, flat) {
		errs = append(errs, fmt.Errorf("ingest: global snapshot (%d bytes) differs from the flat merge (%d bytes)", len(snapshot), len(flat)))
	}
	if st.Poison+st.QuarantineDropped != injected {
		errs = append(errs, fmt.Errorf("ingest: %d poison rejections + %d quarantine drops, injected %d", st.Poison, st.QuarantineDropped, injected))
	}
	if st.Trips == 0 {
		errs = append(errs, errors.New("ingest: the poison tenant never tripped its breaker"))
	}
	if st.Evictions != uint64(intermittent) || st.Resurrections != uint64(intermittent) {
		errs = append(errs, fmt.Errorf("ingest: %d evictions and %d resurrections, want %d each", st.Evictions, st.Resurrections, intermittent))
	}
	return errors.Join(errs...)
}

// checkSchedule checks that the open-loop sender kept up with its
// offered rate: sent deltas in wall time is at least minFrac of rate
// per second.
func checkSchedule(sent int, wall time.Duration, rate, minFrac float64) error {
	if got := float64(sent) / wall.Seconds(); !(got >= minFrac*rate) {
		return fmt.Errorf("ingest: the open loop delivered %.0f deltas/s of the %.0f offered (at least %g%% required)", got, rate, 100*minFrac)
	}
	return nil
}

// lateFrac is the share of lagMS above limitMS.
func lateFrac(lagMS []float64, limitMS float64) float64 {
	if len(lagMS) == 0 {
		return 0
	}
	late := 0
	for _, l := range lagMS {
		if l > limitMS {
			late++
		}
	}
	return float64(late) / float64(len(lagMS))
}
