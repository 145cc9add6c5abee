package spice

import (
	"math"
	"math/cmplx"
	"testing"
)

func TestResistorDivider(t *testing.T) {
	c := New()
	in := c.Node("in")
	mid := c.Node("mid")
	c.Add(NewVSource("V1", in, groundIndex, 10, 0))
	c.Add(NewResistor("R1", in, mid, 1e3))
	c.Add(NewResistor("R2", mid, groundIndex, 3e3))
	dc, err := c.DC(DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := dc.Voltage(mid); math.Abs(got-7.5) > 1e-6 {
		t.Errorf("divider voltage = %v want 7.5", got)
	}
	if got := dc.Voltage(in); math.Abs(got-10) > 1e-9 {
		t.Errorf("source node = %v want 10", got)
	}
}

func TestVSourceBranchCurrent(t *testing.T) {
	c := New()
	in := c.Node("in")
	v := NewVSource("V1", in, groundIndex, 5, 0)
	c.Add(v)
	c.Add(NewResistor("R1", in, groundIndex, 1e3))
	dc, err := c.DC(DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 5 mA flows out of the source's positive terminal into R1, which in
	// MNA convention makes the branch current −5 mA.
	if got := dc.BranchCurrent(v.Branch()); math.Abs(got+5e-3) > 1e-8 {
		t.Errorf("branch current = %v want -5e-3", got)
	}
}

func TestCurrentSourceIntoResistor(t *testing.T) {
	c := New()
	n := c.Node("n")
	// 1 mA extracted from ground, injected into n.
	c.Add(NewISource("I1", groundIndex, n, 1e-3))
	c.Add(NewResistor("R1", n, groundIndex, 2e3))
	dc, err := c.DC(DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := dc.Voltage(n); math.Abs(got-2.0) > 1e-6 {
		t.Errorf("node voltage = %v want 2", got)
	}
}

func TestVCVSAmplifier(t *testing.T) {
	c := New()
	in := c.Node("in")
	out := c.Node("out")
	c.Add(NewVSource("V1", in, groundIndex, 0.5, 0))
	c.Add(NewVCVS("E1", out, groundIndex, in, groundIndex, 10))
	c.Add(NewResistor("RL", out, groundIndex, 1e3))
	dc, err := c.DC(DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := dc.Voltage(out); math.Abs(got-5) > 1e-6 {
		t.Errorf("VCVS out = %v want 5", got)
	}
}

func TestRCLowPassAC(t *testing.T) {
	// R = 1k, C = 1µF: pole at 1/(2πRC) ≈ 159.15 Hz.
	c := New()
	in := c.Node("in")
	out := c.Node("out")
	c.Add(NewVSource("V1", in, groundIndex, 0, 1))
	c.Add(NewResistor("R1", in, out, 1e3))
	c.Add(NewCapacitor("C1", out, groundIndex, 1e-6))
	dc, err := c.DC(DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fp := 1 / (2 * math.Pi * 1e3 * 1e-6)
	r, err := c.AC(dc, 2*math.Pi*fp)
	if err != nil {
		t.Fatal(err)
	}
	mag := cmplx.Abs(r.Voltage(out))
	if math.Abs(mag-1/math.Sqrt2) > 1e-6 {
		t.Errorf("|H(fp)| = %v want %v", mag, 1/math.Sqrt2)
	}
	phase := cmplx.Phase(r.Voltage(out)) * 180 / math.Pi
	if math.Abs(phase+45) > 1e-3 {
		t.Errorf("∠H(fp) = %v want -45°", phase)
	}
}

func TestBodeSweepPole(t *testing.T) {
	c := New()
	in := c.Node("in")
	out := c.Node("out")
	c.Add(NewVSource("V1", in, groundIndex, 0, 10)) // gain 10 at DC via source
	c.Add(NewResistor("R1", in, out, 1e3))
	c.Add(NewCapacitor("C1", out, groundIndex, 1e-6))
	dc, err := c.DC(DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.ACSweep(dc, out, 1, 1e6, 20)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.DCGainDB(); math.Abs(got-20) > 0.01 {
		t.Errorf("DC gain = %v dB want 20", got)
	}
	// Unity crossing of a one-pole response with DC gain A and pole fp is
	// at fp·sqrt(A²−1) ≈ 1583 Hz.
	fu, _, ok := b.UnityCrossing()
	if !ok {
		t.Fatal("no unity crossing found")
	}
	want := 159.15 * math.Sqrt(100-1)
	if math.Abs(fu-want)/want > 0.02 {
		t.Errorf("unity crossing = %v want ≈%v", fu, want)
	}
	pm, ok := b.PhaseMarginDeg()
	if !ok {
		t.Fatal("no phase margin")
	}
	// One-pole system with DC gain 10: phase at unity is −atan(√99) ≈
	// −84.3°, so the margin is ≈ 95.7°.
	if pm < 93 || pm > 99 {
		t.Errorf("phase margin = %v want ≈95.7°", pm)
	}
}

func TestBodeNoUnityCrossing(t *testing.T) {
	b := &Bode{Freq: []float64{1, 10}, H: []complex128{0.5, 0.4}}
	if _, _, ok := b.UnityCrossing(); ok {
		t.Error("sub-unity response must not report a crossing")
	}
	if _, ok := b.PhaseMarginDeg(); ok {
		t.Error("sub-unity response must not report a margin")
	}
}

func mosTestCircuit(vgs, vds float64, pol int) (*Circuit, *Mosfet) {
	c := New()
	d := c.Node("d")
	g := c.Node("g")
	sign := float64(pol)
	c.Add(NewVSource("VG", g, groundIndex, sign*vgs, 0))
	c.Add(NewVSource("VD", d, groundIndex, sign*vds, 0))
	var p MosParams
	if pol > 0 {
		p = DefaultNMOS()
	} else {
		p = DefaultPMOS()
	}
	m := NewMosfet("M1", d, g, groundIndex, groundIndex, pol, 10e-6, 1e-6, p)
	c.Add(m)
	return c, m
}

func TestMosfetSaturationCurrent(t *testing.T) {
	// NMOS, Vgs = 1.5, Vds = 2 (saturation since Vov ≈ 0.79).
	c, m := mosTestCircuit(1.5, 2.0, +1)
	dc, err := c.DC(DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	op := m.Op(dc.X)
	vov := 1.5 - m.P.VT0
	lam := m.P.LambdaC * 1e-6 / m.L
	want := 0.5 * m.P.KP * (m.W / m.L) * vov * vov * (1 + lam*2.0)
	if math.Abs(op.ID-want)/want > 1e-6 {
		t.Errorf("Id = %v want %v", op.ID, want)
	}
	if op.Region != RegionSaturation {
		t.Errorf("region = %d want saturation", op.Region)
	}
	if op.SatMargin <= 0 {
		t.Errorf("SatMargin = %v want > 0", op.SatMargin)
	}
}

func TestMosfetTriodeAndCutoff(t *testing.T) {
	c, m := mosTestCircuit(2.0, 0.1, +1)
	dc, err := c.DC(DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if op := m.Op(dc.X); op.Region != RegionTriode {
		t.Errorf("region = %d want triode", op.Region)
	}

	c2, m2 := mosTestCircuit(0.3, 1.0, +1)
	dc2, err := c2.DC(DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	op2 := m2.Op(dc2.X)
	if op2.Region != RegionCutoff || op2.ID != 0 {
		t.Errorf("cutoff op = %+v", op2)
	}
}

func TestMosfetPMOSSymmetry(t *testing.T) {
	// A PMOS with the same |Vgs|, |Vds| and mirrored params must carry a
	// current computed by the same square law.
	cN, mN := mosTestCircuit(1.5, 2.0, +1)
	cP, mP := mosTestCircuit(1.5, 2.0, -1)
	mP.P = mN.P // identical model cards for the symmetry check
	dcN, err := cN.DC(DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dcP, err := cP.DC(DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opN, opP := mN.Op(dcN.X), mP.Op(dcP.X)
	if math.Abs(opN.ID-opP.ID) > 1e-12 {
		t.Errorf("NMOS Id %v != PMOS Id %v", opN.ID, opP.ID)
	}
}

func TestMosfetModelContinuity(t *testing.T) {
	// Id and gds must be continuous across the triode/saturation boundary.
	m := NewMosfet("M", 0, 1, 2, 2, +1, 10e-6, 1e-6, DefaultNMOS())
	vgs := 1.6
	vov := vgs - m.P.VT0
	eps := 1e-9
	idLo, _, gdsLo, _ := m.eval(vgs, vov-eps)
	idHi, _, gdsHi, _ := m.eval(vgs, vov+eps)
	if math.Abs(idLo-idHi) > 1e-12 {
		t.Errorf("Id jump at boundary: %v vs %v", idLo, idHi)
	}
	if math.Abs(gdsLo-gdsHi) > 1e-9 {
		t.Errorf("gds jump at boundary: %v vs %v", gdsLo, gdsHi)
	}
	// Cutoff boundary: Id and gm go to zero continuously.
	idC, gmC, _, _ := m.eval(m.P.VT0+1e-9, 1)
	if idC > 1e-12 || gmC > 1e-3*m.beta() {
		t.Errorf("cutoff boundary: id=%v gm=%v", idC, gmC)
	}
}

func TestMosfetDVthShiftsCurrent(t *testing.T) {
	c, m := mosTestCircuit(1.5, 2.0, +1)
	dc, err := c.DC(DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	idNom := m.Op(dc.X).ID

	c2, m2 := mosTestCircuit(1.5, 2.0, +1)
	m2.DVth = 0.05 // higher threshold → less current
	dc2, err := c2.DC(DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if id := m2.Op(dc2.X).ID; id >= idNom {
		t.Errorf("DVth>0 must reduce Id: %v vs %v", id, idNom)
	}

	c3, m3 := mosTestCircuit(1.5, 2.0, +1)
	m3.BetaScale = 1.1
	dc3, err := c3.DC(DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if id := m3.Op(dc3.X).ID; math.Abs(id-1.1*idNom)/idNom > 1e-6 {
		t.Errorf("BetaScale must scale Id: %v vs %v", id, 1.1*idNom)
	}
}

func TestNmosCommonSourceGain(t *testing.T) {
	// Common-source stage with ideal current-source load: small-signal
	// gain ≈ −gm/gds (the load is a large resistor to fix the op point).
	c := New()
	vdd := c.Node("vdd")
	g := c.Node("g")
	d := c.Node("d")
	c.Add(NewVSource("VDD", vdd, groundIndex, 3.3, 0))
	c.Add(NewVSource("VG", g, groundIndex, 1.0, 1))
	m := NewMosfet("M1", d, g, groundIndex, groundIndex, +1, 20e-6, 2e-6, DefaultNMOS())
	c.Add(m)
	c.Add(NewResistor("RL", vdd, d, 47e3))
	dc, err := c.DC(DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	op := m.Op(dc.X)
	if op.Region != RegionSaturation {
		t.Fatalf("test stage not in saturation: %+v", op)
	}
	r, err := c.AC(dc, 2*math.Pi*10) // low frequency
	if err != nil {
		t.Fatal(err)
	}
	gainWant := -op.Gm / (op.Gds + 1/47e3)
	gain := real(r.Voltage(d))
	if math.Abs(gain-gainWant)/math.Abs(gainWant) > 0.01 {
		t.Errorf("CS gain = %v want %v", gain, gainWant)
	}
}

func TestDiodeConnectedMirror(t *testing.T) {
	// 2:1 current mirror: output current twice the reference.
	c := New()
	vdd := c.Node("vdd")
	ref := c.Node("ref")
	out := c.Node("out")
	c.Add(NewVSource("VDD", vdd, groundIndex, 3.3, 0))
	c.Add(NewISource("IREF", vdd, ref, 20e-6)) // inject 20 µA into ref
	m1 := NewMosfet("M1", ref, ref, groundIndex, groundIndex, +1, 10e-6, 2e-6, DefaultNMOS())
	m2 := NewMosfet("M2", out, ref, groundIndex, groundIndex, +1, 20e-6, 2e-6, DefaultNMOS())
	c.Add(m1)
	c.Add(m2)
	c.Add(NewResistor("RL", vdd, out, 20e3))
	dc, err := c.DC(DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	i1 := m1.Op(dc.X).ID
	i2 := m2.Op(dc.X).ID
	if math.Abs(i1-20e-6)/20e-6 > 0.01 {
		t.Errorf("reference current = %v", i1)
	}
	// Allow a few percent for channel-length modulation.
	if math.Abs(i2-2*i1)/(2*i1) > 0.1 {
		t.Errorf("mirror ratio: i2 = %v, want ≈ %v", i2, 2*i1)
	}
}

func TestVSourceSweepWarmStart(t *testing.T) {
	c := New()
	in := c.Node("in")
	c.Add(NewVSource("V1", in, groundIndex, 2, 0))
	c.Add(NewResistor("R1", in, groundIndex, 1e3))
	dc1, err := c.DC(DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dc2, err := c.DC(DCOptions{InitialX: dc1.X})
	if err != nil {
		t.Fatal(err)
	}
	if dc2.Iterations > dc1.Iterations {
		t.Errorf("warm start took %d iterations vs %d cold", dc2.Iterations, dc1.Iterations)
	}
}

func TestNodeInterning(t *testing.T) {
	c := New()
	a := c.Node("a")
	if c.Node("a") != a {
		t.Error("re-interning changed index")
	}
	if c.Node("0") != groundIndex || c.Node("gnd") != groundIndex {
		t.Error("ground aliases broken")
	}
	if c.NodeName(a) != "a" || c.NodeName(groundIndex) != "0" {
		t.Error("NodeName mismatch")
	}
}

func TestFindDevice(t *testing.T) {
	c := New()
	n := c.Node("n")
	r := NewResistor("R1", n, groundIndex, 1)
	c.Add(r)
	if c.FindDevice("R1") != Device(r) {
		t.Error("FindDevice failed")
	}
	if c.FindDevice("nope") != nil {
		t.Error("FindDevice ghost hit")
	}
}

func TestDCRejectsBadWarmStart(t *testing.T) {
	c := New()
	n := c.Node("n")
	c.Add(NewResistor("R1", n, groundIndex, 1))
	if _, err := c.DC(DCOptions{InitialX: make([]float64, 99)}); err == nil {
		t.Error("expected error for wrong warm-start length")
	}
}

func TestVCCSTransconductor(t *testing.T) {
	// gm = 2 mS driving 1 kΩ from a 0.5 V control: the cell sinks
	// 1 mA out of the load node, so v(out) = −gm·R·v(in) = −1 V.
	c := New()
	in := c.Node("in")
	out := c.Node("out")
	c.Add(NewVSource("V1", in, groundIndex, 0.5, 1))
	c.Add(NewVCCS("G1", out, groundIndex, in, groundIndex, 2e-3))
	c.Add(NewResistor("RL", out, groundIndex, 1e3))
	dc, err := c.DC(DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := dc.Voltage(out); math.Abs(got+1) > 1e-6 {
		t.Errorf("VCCS out = %v want -1", got)
	}
	// Small-signal gain is −gm·R = −2.
	ac, err := c.AC(dc, 2*math.Pi*100)
	if err != nil {
		t.Fatal(err)
	}
	if gain := real(ac.Voltage(out)); math.Abs(gain+2) > 1e-6 {
		t.Errorf("VCCS AC gain = %v want -2", gain)
	}
}

func TestVCVSClosedLoopFollower(t *testing.T) {
	// A VCVS in normal AC mode closing a unity-feedback loop around a
	// ×1000 gain block: the closed-loop AC gain approaches 1.
	c := New()
	in := c.Node("in")
	fbn := c.Node("fb")
	out := c.Node("out")
	c.Add(NewVSource("VIN", in, groundIndex, 0, 1))
	// Error amp: out = 1000·(in − fb).
	amp := NewVCVS("EAMP", out, groundIndex, in, fbn, 1000)
	c.Add(amp)
	// Feedback: fb = out.
	c.Add(NewVCVS("EFB", fbn, groundIndex, out, groundIndex, 1))
	c.Add(NewResistor("RL", out, groundIndex, 1e4))
	dc, err := c.DC(DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ac, err := c.AC(dc, 2*math.Pi*1e3)
	if err != nil {
		t.Fatal(err)
	}
	if gain := real(ac.Voltage(out)); math.Abs(gain-1) > 2e-3 {
		t.Errorf("follower gain = %v want ≈1", gain)
	}
}

func TestDCSweepInverterTransfer(t *testing.T) {
	// NMOS inverter transfer curve: output falls monotonically as the
	// gate sweeps through threshold.
	c := New()
	vdd := c.Node("vdd")
	g := c.Node("g")
	d := c.Node("d")
	c.Add(NewVSource("VDD", vdd, groundIndex, 3.3, 0))
	vg := NewVSource("VG", g, groundIndex, 0, 0)
	c.Add(vg)
	c.Add(NewResistor("RL", vdd, d, 47e3))
	c.Add(NewMosfet("M1", d, g, groundIndex, groundIndex, +1, 20e-6, 2e-6, DefaultNMOS()))

	res, err := c.DCSweep(vg, 0, 3.3, 34, DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Voltage(d)
	if out[0] < 3.2 {
		t.Errorf("off-state output %v want ≈3.3", out[0])
	}
	if out[len(out)-1] > 0.5 {
		t.Errorf("on-state output %v want low", out[len(out)-1])
	}
	for k := 1; k < len(out); k++ {
		if out[k] > out[k-1]+1e-9 {
			t.Fatalf("transfer curve not monotone at point %d", k)
		}
	}
	// The source value must be restored.
	if vg.DC != 0 {
		t.Errorf("sweep did not restore the source DC value: %v", vg.DC)
	}
}

func TestDCSweepValidation(t *testing.T) {
	c := New()
	n := c.Node("n")
	v := NewVSource("V", n, groundIndex, 1, 0)
	c.Add(v)
	c.Add(NewResistor("R", n, groundIndex, 1e3))
	if _, err := c.DCSweep(v, 0, 1, 1, DCOptions{}); err == nil {
		t.Error("n=1 sweep accepted")
	}
}

// A point count over the cap is refused instead of panicking in
// makeslice (spicesim -dc V1,0,1,4611686018427387904 reaches it).
func TestDCSweepRefusesPointsOverCap(t *testing.T) {
	c := New()
	n := c.Node("n")
	v := NewVSource("V", n, groundIndex, 1, 0)
	c.Add(v)
	c.Add(NewResistor("R", n, groundIndex, 1e3))
	for _, pts := range []int{MaxSweepPoints + 1, 1 << 62} {
		if _, err := c.DCSweep(v, 0, 1, pts, DCOptions{}); err == nil {
			t.Errorf("%d-point sweep accepted", pts)
		}
	}
}
