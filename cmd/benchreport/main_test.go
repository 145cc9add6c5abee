package main

import (
	"io"
	"testing"
)

// TestCompareRuns pins the -compare gate: ns/op and allocs/op may rise
// by up to the threshold, the simulation and factorization counts must
// match exactly, and the GOMAXPROCS suffix is ignored when matching
// names. A count the reference lacks is not compared.
func TestCompareRuns(t *testing.T) {
	ref := []Entry{{Name: "BenchmarkTable1-8", Metrics: map[string]float64{
		"ns/op": 1000, "allocs/op": 100, "simulations": 19556,
	}}}
	for _, tc := range []struct {
		name      string
		metrics   map[string]float64
		regressed bool
	}{
		{"same", map[string]float64{"ns/op": 1000, "allocs/op": 100, "simulations": 19556}, false},
		{"within threshold", map[string]float64{"ns/op": 1190, "allocs/op": 119, "simulations": 19556}, false},
		{"faster and leaner", map[string]float64{"ns/op": 500, "allocs/op": 10, "simulations": 19556}, false},
		{"slower", map[string]float64{"ns/op": 1300, "allocs/op": 100, "simulations": 19556}, true},
		{"more allocations", map[string]float64{"ns/op": 1000, "allocs/op": 130, "simulations": 19556}, true},
		{"fewer simulations", map[string]float64{"ns/op": 1000, "allocs/op": 100, "simulations": 19555}, true},
		{"more simulations", map[string]float64{"ns/op": 1000, "allocs/op": 100, "simulations": 19557}, true},
		{"time only", map[string]float64{"ns/op": 1000}, false},
		{"unreferenced factorizations", map[string]float64{"ns/op": 1000, "simulations": 19556, "factorizations": 1}, false},
	} {
		cur := []Entry{{Name: "BenchmarkTable1-2", Metrics: tc.metrics}}
		if got := compareRuns(io.Discard, cur, ref, 0.20); got != tc.regressed {
			t.Errorf("%s: regressed = %v, want %v", tc.name, got, tc.regressed)
		}
	}
	// With factorizations in the reference, they gate exactly too.
	refF := []Entry{{Name: "BenchmarkTable1-2", Metrics: map[string]float64{
		"ns/op": 1000, "simulations": 19556, "factorizations": 524537,
	}}}
	for _, tc := range []struct {
		name      string
		fact      float64
		regressed bool
	}{{"same factorizations", 524537, false}, {"fewer factorizations", 524536, true}, {"more factorizations", 524538, true}} {
		cur := []Entry{{Name: "BenchmarkTable1-8", Metrics: map[string]float64{
			"ns/op": 1000, "simulations": 19556, "factorizations": tc.fact,
		}}}
		if got := compareRuns(io.Discard, cur, refF, 0.20); got != tc.regressed {
			t.Errorf("%s: regressed = %v, want %v", tc.name, got, tc.regressed)
		}
	}
	if !compareRuns(io.Discard, []Entry{{Name: "BenchmarkOther", Metrics: map[string]float64{"ns/op": 1}}}, ref, 0.20) {
		t.Error("no overlapping benchmark must fail the gate")
	}
	// Two reference rows sharing a key fail the gate even when the run
	// matches one of them: which row gates must not hang on row order.
	refDup := []Entry{
		{Name: "BenchmarkTable1-2", Metrics: map[string]float64{"ns/op": 1000, "simulations": 19556}},
		{Name: "BenchmarkTable1-8", Metrics: map[string]float64{"ns/op": 1000, "simulations": 20000}},
	}
	cur := []Entry{{Name: "BenchmarkTable1-2", Metrics: map[string]float64{"ns/op": 1000, "simulations": 19556}}}
	if !compareRuns(io.Discard, cur, refDup, 0.20) {
		t.Error("duplicate reference rows must fail the gate")
	}
}
