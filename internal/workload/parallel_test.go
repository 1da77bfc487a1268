package workload

import (
	"reflect"
	"testing"
)

// TestMeasureParallelEquivalence checks the sharded driver's core
// contract: every (benchmark, repetition) cell is a pure function of the
// runner config, so Measure, MeasureAll and MeasureRequest return
// byte-identical results for every worker count. Run under -race this
// also shakes out data races between cells.
func TestMeasureParallelEquivalence(t *testing.T) {
	k, prog := setup(t)
	type result struct {
		one Measurement
		all []Measurement
		req float64
	}
	measure := func(workers int) result {
		t.Helper()
		r, err := NewRunner(k, prog, Nginx, 9)
		if err != nil {
			t.Fatalf("NewRunner: %v", err)
		}
		r.Workers = workers
		var res result
		if res.one, err = r.Measure("read"); err != nil {
			t.Fatalf("Measure(workers=%d): %v", workers, err)
		}
		if res.all, err = r.MeasureAll(); err != nil {
			t.Fatalf("MeasureAll(workers=%d): %v", workers, err)
		}
		if res.req, err = r.MeasureRequest(5); err != nil {
			t.Fatalf("MeasureRequest(workers=%d): %v", workers, err)
		}
		return res
	}
	serial := measure(1)
	for _, w := range []int{2, 4, 7} {
		got := measure(w)
		if got.one != serial.one {
			t.Errorf("Measure differs at %d workers: %+v vs %+v", w, got.one, serial.one)
		}
		if !reflect.DeepEqual(got.all, serial.all) {
			t.Errorf("MeasureAll differs at %d workers", w)
		}
		if got.req != serial.req {
			t.Errorf("MeasureRequest differs at %d workers: %v vs %v", w, got.req, serial.req)
		}
	}
}
