package circuits

import (
	"math"
	"testing"

	"specwise/internal/spice"
)

// TestSlewRateTransientCrossCheck validates the evaluator's analytic slew
// rate (tail current / load capacitance) against a genuine large-signal
// transient of the same amplifier in unity-gain configuration. The paper's
// SRp spec rests on this identity.
func TestSlewRateTransientCrossCheck(t *testing.T) {
	const (
		vdd = 3.3
		w1  = 20e-6
		w3  = 30e-6
		wt  = 8e-6
		cl  = 1e-12
	)
	nmos := spice.DefaultNMOS()
	pmos := spice.DefaultPMOS()

	c := spice.New()
	nVdd := c.Node("vdd")
	nInp := c.Node("inp")
	nTail := c.Node("tail")
	nN1 := c.Node("n1")
	nOut := c.Node("out")
	nVbn := c.Node("vbn")
	gnd := c.Node(spice.Ground)

	c.Add(spice.NewVSource("VDD", nVdd, gnd, vdd, 0))
	// Large positive input step: the pair fully steers and the output
	// ramps at Itail/CL.
	c.Add(spice.NewPulseSource("VIN", nInp, gnd, 1.2, 2.2, 20e-9, 1e-10))
	m1 := spice.NewMosfet("M1", nN1, nInp, nTail, gnd, +1, w1, otaL1, nmos)
	// Unity feedback: M2 gate tied directly to the output.
	m2 := spice.NewMosfet("M2", nOut, nOut, nTail, gnd, +1, w1, otaL1, nmos)
	m3 := spice.NewMosfet("M3", nN1, nN1, nVdd, nVdd, -1, w3, otaL3, pmos)
	m4 := spice.NewMosfet("M4", nOut, nN1, nVdd, nVdd, -1, w3, otaL3, pmos)
	m5 := spice.NewMosfet("M5", nTail, nVbn, gnd, gnd, +1, wt, otaL5, nmos)
	for _, m := range []*spice.Mosfet{m1, m2, m3, m4, m5} {
		c.Add(m)
	}
	c.Add(spice.NewVSource("VBN", nVbn, gnd, 1.0, 0))
	c.Add(spice.NewCapacitor("CL", nOut, gnd, cl))

	// The output node drives the M2 gate directly — the inverting input
	// (see newOTA), making this the classic 5T unity-gain buffer.
	dc, err := c.DC(spice.DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	itail := m5.Op(dc.X).ID
	analytic := itail / cl // V/s

	res, err := c.Tran(spice.TranOptions{Stop: 250e-9, Step: 0.1e-9, Initial: dc.X})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := res.SlewRate(nOut, 0.2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	ratio := sr / analytic
	t.Logf("analytic SR = %.2f V/µs, transient SR = %.2f V/µs (ratio %.2f)",
		analytic/1e6, sr/1e6, ratio)
	// The positive slew of a 5T OTA is set by the tail current into CL;
	// expect agreement within a factor band (settling shape, channel
	// modulation).
	if ratio < 0.5 || ratio > 1.5 {
		t.Errorf("transient/analytic SR ratio = %.2f; analytic model invalid", ratio)
	}
	// The output must actually settle near the new input level.
	if final := res.At(nOut, 250e-9); math.Abs(final-2.2) > 0.25 {
		t.Errorf("output settled at %.3f V want ≈2.2 V", final)
	}
}
