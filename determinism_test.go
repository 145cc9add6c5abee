package specwise

import (
	"math"
	"testing"
)

// determinismOpts is small enough to keep the test quick but still runs
// the full pipeline: worst-case searches, linearization, coordinate
// search, line search and Monte-Carlo verification.
var determinismOpts = Options{
	ModelSamples:  2000,
	VerifySamples: 80,
	MaxIterations: 1,
	Seed:          11,
}

// runConfig optimizes p under opts and returns the per-iteration yields
// and final design for bitwise comparison.
func runConfig(t *testing.T, p *Problem, opts Options) ([]float64, []float64, []float64) {
	t.Helper()
	res, err := Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	var my, mc []float64
	for _, it := range res.Iterations {
		my = append(my, it.ModelYield)
		mc = append(mc, it.MCYield)
	}
	return my, mc, res.FinalDesign
}

// sameBits compares float slices for exact bit equality (NaN == NaN).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func checkIdentical(t *testing.T, label string, p *Problem, base, alt Options) {
	t.Helper()
	my0, mc0, d0 := runConfig(t, p, base)
	my1, mc1, d1 := runConfig(t, p, alt)
	if !sameBits(my0, my1) {
		t.Errorf("%s: model yields differ: %v vs %v", label, my0, my1)
	}
	if !sameBits(mc0, mc1) {
		t.Errorf("%s: MC yields differ: %v vs %v", label, mc0, mc1)
	}
	if !sameBits(d0, d1) {
		t.Errorf("%s: final designs differ: %v vs %v", label, d0, d1)
	}
}

// TestEvalCacheDeterminismOTA checks the tentpole invariant: memoizing
// evaluations must not change a single bit of the optimizer's output.
// The cache keys on exact IEEE-754 bit patterns and the DC warm start
// solves from a fixed reference operating point, so cache-on and
// cache-off runs follow identical trajectories.
func TestEvalCacheDeterminismOTA(t *testing.T) {
	off := determinismOpts
	off.NoEvalCache = true
	checkIdentical(t, "ota cache on/off", OTA(), determinismOpts, off)
}

func TestEvalCacheDeterminismMiller(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: OTA covers the cache invariant")
	}
	off := determinismOpts
	off.NoEvalCache = true
	checkIdentical(t, "miller cache on/off", Miller(), determinismOpts, off)
}

// TestParallelGradientDeterminism checks that the parallel
// finite-difference gradient assembles bit-identical vectors regardless
// of worker count: every probe is an independent simulation and the
// components are stored by index, so scheduling order cannot leak into
// the result.
func TestParallelGradientDeterminism(t *testing.T) {
	serial := determinismOpts
	serial.WC.GradWorkers = 1
	par := determinismOpts
	par.WC.GradWorkers = 4
	checkIdentical(t, "ota grad serial/parallel", OTA(), serial, par)
}

// TestWorkerKnobDeterminism checks the two remaining worker knobs the
// same way: the Monte-Carlo verification pool and the per-frequency
// AC-sweep fan-out must not change a single bit of the optimizer's
// output — scheduling order never leaks because every sample and every
// frequency point writes its result by index.
func TestWorkerKnobDeterminism(t *testing.T) {
	serial := determinismOpts
	serial.VerifyWorkers = 1
	serial.SweepWorkers = 1
	par := determinismOpts
	par.VerifyWorkers = 5
	par.SweepWorkers = 4
	checkIdentical(t, "ota verify/sweep workers", OTA(), serial, par)
}
