package circuits

import (
	"specwise/internal/problem"
	"specwise/internal/spice"
	"specwise/internal/variation"
)

// Five-transistor OTA fixed constants (SI units). This small circuit is
// the quickstart example and the fast integration-test vehicle: the same
// evaluation flow as the paper circuits at a fraction of the cost.
const (
	otaL1 = 1e-6
	otaL3 = 1e-6
	otaL5 = 2e-6
	otaCL = 1e-12
)

type otaDesign struct {
	w1, w3, wt float64 // SI
}

func otaDecode(d []float64) otaDesign {
	return otaDesign{w1: d[0] * um, w3: d[1] * um, wt: d[2] * um}
}

func (g otaDesign) geometry(device string) (w, l float64) {
	switch device {
	case "M1", "M2":
		return g.w1, otaL1
	case "M3", "M4":
		return g.w3, otaL3
	case "M5":
		return g.wt, otaL5
	}
	panic("circuits: unknown OTA device " + device)
}

// OTAVariations returns the statistical model for the five-transistor OTA:
// two global threshold shifts plus local mismatch on both pairs.
func OTAVariations() *variation.Model {
	m := &variation.Model{
		Globals: []variation.Global{
			{Name: "g.dVthN", Kind: variation.VthShift, Polarity: +1, Sigma: 0.015},
			{Name: "g.dVthP", Kind: variation.VthShift, Polarity: -1, Sigma: 0.015},
		},
	}
	for _, name := range []string{"M1", "M2", "M3", "M4", "M5"} {
		m.Locals = append(m.Locals,
			variation.Local{Name: name + ".dVth", Device: name, Kind: variation.VthShift, A: 10e-3},
			variation.Local{Name: name + ".dBeta", Device: name, Kind: variation.BetaRel, A: 0.012},
		)
	}
	return m
}

// newOTA builds the five-transistor OTA testbench topology; set writes
// the point-dependent values.
func newOTA() *testbench {
	c := spice.New()
	nVdd := c.Node("vdd")
	nInp := c.Node("inp") // non-inverting input (AC drive, M1 gate)
	nInn := c.Node("inn") // inverting input (feedback target, M2 gate)
	nTail := c.Node("tail")
	nN1 := c.Node("n1")
	nOut := c.Node("out")
	nVbn := c.Node("vbn")
	gnd := c.Node(spice.Ground)

	vddSrc := spice.NewVSource("VDD", nVdd, gnd, 0, 0)
	drive := spice.NewVSource("VINP", nInp, gnd, 0, 0)
	// The output is M2's drain, so M2's gate is the inverting input: the
	// unity feedback must land there for the DC loop to be stable.
	fb := spice.NewVCVS("EFB", nInn, gnd, nOut, gnd, 1)
	c.Add(vddSrc)
	c.Add(drive)
	c.Add(fb)
	c.Add(spice.NewVSource("VBN", nVbn, gnd, 1.0, 0))

	mk := func(name string, d, gt, s, b, pol int) *spice.Mosfet {
		m := spice.NewMosfet(name, d, gt, s, b, pol, 0, 0, spice.MosParams{})
		c.Add(m)
		return m
	}
	m1 := mk("M1", nN1, nInp, nTail, gnd, +1)
	m2 := mk("M2", nOut, nInn, nTail, gnd, +1)
	m3 := mk("M3", nN1, nN1, nVdd, nVdd, -1)
	m4 := mk("M4", nOut, nN1, nVdd, nVdd, -1)
	m5 := mk("M5", nTail, nVbn, gnd, gnd, +1)
	cl := spice.NewCapacitor("CL", nOut, gnd, otaCL)
	c.Add(cl)

	return &testbench{
		ckt: c, out: nOut, drive: drive, fb: fb, vddSrc: vddSrc,
		tail: m5, slewCap: cl,
		mosfets: []*spice.Mosfet{m1, m2, m3, m4, m5},
	}
}

// otaProblem builds the OTA problem and its harness.
func otaProblem() (*problem.Problem, *simHarness) {
	model := OTAVariations()
	p := &problem.Problem{
		Name: "ota5",
		Specs: []problem.Spec{
			{Name: "A0", Unit: "dB", Kind: problem.GE, Bound: 38},
			{Name: "ft", Unit: "MHz", Kind: problem.GE, Bound: 30},
			{Name: "CMRR", Unit: "dB", Kind: problem.GE, Bound: 60},
			{Name: "Power", Unit: "mW", Kind: problem.LE, Bound: 0.4},
		},
		Design: []problem.Param{
			{Name: "W1", Unit: "µm", Init: 20, Lo: 2, Hi: 200, LogScale: true},
			{Name: "W3", Unit: "µm", Init: 30, Lo: 2, Hi: 200, LogScale: true},
			{Name: "WT", Unit: "µm", Init: 8, Lo: 2, Hi: 100, LogScale: true},
		},
		StatNames: model.Names(),
		Theta: []problem.OpRange{
			{Name: "T", Unit: "°C", Nominal: 27, Lo: -40, Hi: 125},
			{Name: "VDD", Unit: "V", Nominal: 3.3, Lo: 3.0, Hi: 3.6},
		},
	}
	h := newSimHarness(opamp{
		build: newOTA,
		set: func(tb *testbench, d, s, theta []float64) {
			g := otaDecode(d)
			tb.deltas = model.AppendPhysical(tb.deltas[:0], s, g.geometry)
			tb.set(g.geometry, tb.deltas, theta)
		},
		fields: []perfField{fieldA0, fieldFt, fieldCMRR, fieldPower},
		fStart: 100, fStop: 1e10,
	}, p)
	return p, h
}

// OTAProblem builds the problem.Problem for the five-transistor OTA: a
// three-parameter design space that exercises every part of the optimizer
// quickly.
func OTAProblem() *problem.Problem {
	p, _ := otaProblem()
	return p
}
