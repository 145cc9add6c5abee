package specwise

import (
	"math"
	"reflect"
	"testing"

	"specwise/internal/sched"
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

// TestSchedulerDeterminism checks that the process-wide scheduler's
// pools — finite-difference gradient probes, Monte-Carlo verification
// samples and the coordinate search's sample blocks — cannot change a single bit of the optimizer's output: a run
// with every scheduler slot held (each pool on its calling goroutine
// alone) must match a run with the slots free, because every probe,
// sample and block writes its result by index.
func TestSchedulerDeterminism(t *testing.T) {
	release := sched.Default().HoldAll()
	my0, mc0, d0 := runConfig(t, OTA(), determinismOpts)
	release()
	my1, mc1, d1 := runConfig(t, OTA(), determinismOpts)
	if !sameBits(my0, my1) {
		t.Errorf("model yields differ: %v (slots held) vs %v (slots free)", my0, my1)
	}
	if !sameBits(mc0, mc1) {
		t.Errorf("MC yields differ: %v (slots held) vs %v (slots free)", mc0, mc1)
	}
	if !sameBits(d0, d1) {
		t.Errorf("final designs differ: %v (slots held) vs %v (slots free)", d0, d1)
	}
}

// heldAndFree runs f once with every sched.Default() slot held (each pool
// on its calling goroutine alone) and once with the slots free.
func heldAndFree[T any](f func() T) (held, free T) {
	release := sched.Default().HoldAll()
	held = f()
	release()
	return held, f()
}

// TestParallelGradientDeterminism checks that the finite-difference
// gradient assembles bit-identical vectors whether its probes run
// serially or in parallel: every probe is an independent simulation and
// the components are stored by index, so scheduling order cannot leak
// into the result. The per-spec worst-case searches of the mismatch
// analysis are gradient-driven, so their worst-case distances and pair
// measures expose any difference.
func TestParallelGradientDeterminism(t *testing.T) {
	p := OTA()
	run := func() []MismatchReport {
		reports, err := AnalyzeMismatch(p, p.InitialDesign(), 11)
		if err != nil {
			t.Fatal(err)
		}
		return reports
	}
	serial, par := heldAndFree(run)
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("mismatch reports differ:\n%+v (slots held)\n%+v (slots free)", serial, par)
	}
}

// TestWorkerKnobDeterminism checks the Monte-Carlo verification pool the
// same way: a verification run on one goroutine must match one with the
// slots free, because every sample writes its result by index.
func TestWorkerKnobDeterminism(t *testing.T) {
	p := OTA()
	run := func() *MCResult {
		mc, err := VerifyYield(p, p.InitialDesign(), 80, 5)
		if err != nil {
			t.Fatal(err)
		}
		return mc
	}
	serial, par := heldAndFree(run)
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("MC results differ:\n%+v (slots held)\n%+v (slots free)", serial, par)
	}
}
