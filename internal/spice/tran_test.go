package spice

import (
	"math"
	"testing"
)

// RC charging: v(t) = V·(1 − e^{−t/RC}) after a step at t=0.
func TestTranRCStepResponse(t *testing.T) {
	c := New()
	in := c.Node("in")
	out := c.Node("out")
	gnd := c.Node(Ground)
	c.Add(NewPulseSource("VP", in, gnd, 0, 1, 0, 1e-9))
	c.Add(NewResistor("R1", in, out, 1e3))
	c.Add(NewCapacitor("C1", out, gnd, 1e-6)) // τ = 1 ms

	res, err := c.Tran(TranOptions{Stop: 5e-3, Step: 10e-6})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ t, want float64 }{
		{1e-3, 1 - math.Exp(-1)},
		{2e-3, 1 - math.Exp(-2)},
		{5e-3, 1 - math.Exp(-5)},
	} {
		if got := res.At(out, tc.t); math.Abs(got-tc.want) > 5e-3 {
			t.Errorf("v(%g) = %v want %v", tc.t, got, tc.want)
		}
	}
	if v0 := res.At(out, 0); math.Abs(v0) > 1e-6 {
		t.Errorf("v(0) = %v want 0", v0)
	}
}

// Trapezoidal integration must be second-order: quartering the step cuts
// the error by ~16x (allow 8x for safety). The stimulus uses a ramp that
// both step sizes resolve — an unresolved hard discontinuity costs any
// one-step method an O(dt) startup error — and the reference is a much
// finer run of the same method.
func TestTranTrapezoidalOrder(t *testing.T) {
	runAt := func(step float64) float64 {
		c := New()
		in := c.Node("in")
		out := c.Node("out")
		gnd := c.Node(Ground)
		c.Add(NewPulseSource("VP", in, gnd, 0, 1, 0, 200e-6))
		c.Add(NewResistor("R1", in, out, 1e3))
		c.Add(NewCapacitor("C1", out, gnd, 1e-6))
		res, err := c.Tran(TranOptions{Stop: 1e-3, Step: step})
		if err != nil {
			t.Fatal(err)
		}
		return res.At(out, 1e-3)
	}
	ref := runAt(2e-6)
	coarse := math.Abs(runAt(100e-6) - ref)
	fine := math.Abs(runAt(25e-6) - ref)
	if coarse/fine < 8 {
		t.Errorf("error ratio %v; trapezoidal rule should be ~16x", coarse/fine)
	}
}

// Backward Euler (theta=1) must also converge, just less accurately.
func TestTranBackwardEuler(t *testing.T) {
	c := New()
	in := c.Node("in")
	out := c.Node("out")
	gnd := c.Node(Ground)
	c.Add(NewPulseSource("VP", in, gnd, 0, 1, 0, 0))
	c.Add(NewResistor("R1", in, out, 1e3))
	c.Add(NewCapacitor("C1", out, gnd, 1e-6))
	res, err := c.Tran(TranOptions{Stop: 3e-3, Step: 20e-6, Theta: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - math.Exp(-3)
	if got := res.At(out, 3e-3); math.Abs(got-want) > 0.02 {
		t.Errorf("BE v(3ms) = %v want %v", got, want)
	}
}

func TestTranOptionValidation(t *testing.T) {
	c := New()
	n := c.Node("n")
	c.Add(NewResistor("R", n, c.Node(Ground), 1))
	if _, err := c.Tran(TranOptions{Stop: 0, Step: 1e-6}); err == nil {
		t.Error("Stop=0 accepted")
	}
	if _, err := c.Tran(TranOptions{Stop: 1e-3, Step: 1e-6, Theta: 0.2}); err == nil {
		t.Error("theta<0.5 accepted")
	}
	if _, err := c.Tran(TranOptions{Stop: 1e-3, Step: 1e-6, Initial: make([]float64, 99)}); err == nil {
		t.Error("bad initial length accepted")
	}
}

// Step counts that overflow an int, or a Stop that is NaN or infinite,
// are refused instead of panicking in makeslice (spicesim -tran
// 1e-30,1 reaches the first).
func TestTranRefusesStepCountsOverCap(t *testing.T) {
	c := New()
	n := c.Node("n")
	c.Add(NewResistor("R", n, c.Node(Ground), 1))
	for _, o := range []TranOptions{
		{Stop: 1, Step: 1e-30},
		{Stop: math.NaN(), Step: 1e-6},
		{Stop: math.Inf(1), Step: 1e-6},
		{Stop: 1e-3, Step: math.NaN()},
		{Stop: 1, Step: 1e-7}, // 10,000,000 steps
	} {
		if _, err := c.Tran(o); err == nil {
			t.Errorf("Tran(Stop %g, Step %g) accepted", o.Stop, o.Step)
		}
	}
}

func TestPulseSourceValueAt(t *testing.T) {
	s := NewPulseSource("P", 0, 1, 0.5, 2.5, 1e-6, 2e-6)
	cases := []struct{ t, want float64 }{
		{0, 0.5}, {1e-6, 0.5}, {2e-6, 1.5}, {3e-6, 2.5}, {10e-6, 2.5},
	}
	for _, tc := range cases {
		if got := s.ValueAt(tc.t); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("ValueAt(%g) = %v want %v", tc.t, got, tc.want)
		}
	}
	// Zero rise time: hard step.
	h := NewPulseSource("H", 0, 1, 0, 1, 1e-6, 0)
	if h.ValueAt(1e-6) != 0 || h.ValueAt(1.0000001e-6) != 1 {
		t.Error("hard step wrong")
	}
}

// Slew-rate extraction on a known ramp-limited exponential.
func TestSlewRateExtraction(t *testing.T) {
	c := New()
	in := c.Node("in")
	out := c.Node("out")
	gnd := c.Node(Ground)
	c.Add(NewPulseSource("VP", in, gnd, 0, 1, 0, 0))
	c.Add(NewResistor("R1", in, out, 1e3))
	c.Add(NewCapacitor("C1", out, gnd, 1e-6))
	res, err := c.Tran(TranOptions{Stop: 5e-3, Step: 10e-6})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := res.SlewRate(out, 0.1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	// The waveform ends at v(5τ) = 1−e⁻⁵, so the 10/90% thresholds are
	// referred to that swing: lo = 0.0993, hi = 0.894, giving
	// slope = (hi−lo)/(τ·(ln(1−lo)−ln(1−hi))⁻¹…) ≈ 371.6 V/s.
	vEnd := 1 - math.Exp(-5)
	lo, hi := 0.1*vEnd, 0.9*vEnd
	tLo := -1e-3 * math.Log(1-lo)
	tHi := -1e-3 * math.Log(1-hi)
	want := (hi - lo) / (tHi - tLo)
	if math.Abs(sr-want)/want > 0.02 {
		t.Errorf("slew = %v want %v", sr, want)
	}
}

// Large-signal MOS switching: an NMOS inverter driving a capacitive load
// discharges it at roughly Idsat/C.
func TestTranMosInverterFall(t *testing.T) {
	c := New()
	vdd := c.Node("vdd")
	g := c.Node("g")
	out := c.Node("out")
	gnd := c.Node(Ground)
	c.Add(NewVSource("VDD", vdd, gnd, 3.3, 0))
	c.Add(NewPulseSource("VG", g, gnd, 0, 3.3, 1e-9, 1e-10))
	c.Add(NewResistor("RP", vdd, out, 100e3)) // weak pull-up
	m := NewMosfet("MN", out, g, gnd, gnd, +1, 20e-6, 1e-6, DefaultNMOS())
	c.Add(m)
	c.Add(NewCapacitor("CL", out, gnd, 1e-12))

	res, err := c.Tran(TranOptions{Stop: 4e-9, Step: 2e-12})
	if err != nil {
		t.Fatal(err)
	}
	v := res.Voltage(out)
	if v[0] < 3.2 {
		t.Fatalf("initial output %v want ≈3.3 (device off)", v[0])
	}
	final := v[len(v)-1]
	if final > 0.3 {
		t.Errorf("final output %v want near 0 (device on)", final)
	}
	// Fall slew on the order of Idsat/C: Idsat ≈ 0.5·120µ·20·(3.3−0.71)²
	// ≈ 8 mA → 8 V/ns; the RC start and triode tail reduce the 10–90%
	// average. Just require the right order of magnitude.
	sr, err := res.SlewRate(out, 0.1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	srVns := math.Abs(sr) / 1e9
	if srVns < 1 || srVns > 20 {
		t.Errorf("fall slew %v V/ns; expected a few V/ns", srVns)
	}
}
