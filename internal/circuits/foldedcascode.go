package circuits

import (
	"specwise/internal/problem"
	"specwise/internal/spice"
	"specwise/internal/variation"
)

// Folded-cascode fixed sizing constants (SI units). The optimizer moves
// widths (and the input-pair length); the remaining lengths are fixed,
// which matches the paper's practice of optimizing a subset of the sizing.
const (
	fcL5 = 1e-6 // NMOS cascodes
	fcL7 = 2e-6 // PMOS mirror
	fcL9 = 1e-6 // PMOS cascodes
	fcLt = 2e-6 // tail current source
	fcCL = 2e-12

	um = 1e-6
)

// fcDesign is the decoded design vector of the folded-cascode opamp.
type fcDesign struct {
	w1, l1, w3, l3, w5, w7, w9, wt float64 // SI
}

func fcDecode(d []float64) fcDesign {
	return fcDesign{
		w1: d[0] * um, l1: d[1] * um,
		w3: d[2] * um, l3: d[3] * um,
		w5: d[4] * um, w7: d[5] * um,
		w9: d[6] * um, wt: d[7] * um,
	}
}

// geometry implements variation.Geometry for this design point.
func (g fcDesign) geometry(device string) (w, l float64) {
	switch device {
	case "M1", "M2":
		return g.w1, g.l1
	case "M3", "M4":
		return g.w3, g.l3
	case "M5", "M6":
		return g.w5, fcL5
	case "M7", "M8":
		return g.w7, fcL7
	case "M9", "M10":
		return g.w9, fcL9
	case "MT":
		return g.wt, fcLt
	}
	panic("circuits: unknown folded-cascode device " + device)
}

// fcNames lists the transistor instances in netlist order.
var fcNames = []string{"M1", "M2", "M3", "M4", "M5", "M6", "M7", "M8", "M9", "M10", "MT"}

// FoldedCascodeVariations returns the statistical model used for the
// folded-cascode experiments: four global parameters plus Pelgrom local
// threshold and beta mismatch for every transistor (paper Secs. 3–4).
func FoldedCascodeVariations() *variation.Model {
	m := &variation.Model{
		Globals: []variation.Global{
			{Name: "g.dVthN", Kind: variation.VthShift, Polarity: +1, Sigma: 0.015},
			{Name: "g.dVthP", Kind: variation.VthShift, Polarity: -1, Sigma: 0.015},
			{Name: "g.dBetaN", Kind: variation.BetaRel, Polarity: +1, Sigma: 0.025},
			{Name: "g.dBetaP", Kind: variation.BetaRel, Polarity: -1, Sigma: 0.025},
		},
	}
	for _, name := range fcNames {
		m.Locals = append(m.Locals,
			variation.Local{Name: name + ".dVth", Device: name, Kind: variation.VthShift, A: 10e-3},
			variation.Local{Name: name + ".dBeta", Device: name, Kind: variation.BetaRel, A: 0.012},
		)
	}
	return m
}

// newFoldedCascode builds the DC-closed-loop testbench topology; set
// writes the point-dependent values.
func newFoldedCascode() *testbench {
	c := spice.New()
	nVdd := c.Node("vdd")
	nInp := c.Node("inp")
	nInn := c.Node("inn")
	nTail := c.Node("tail")
	nF1 := c.Node("f1")
	nF2 := c.Node("f2")
	nO1 := c.Node("o1") // left cascode output = mirror gate
	nOut := c.Node("out")
	nM1 := c.Node("m1")
	nM2 := c.Node("m2")
	nVbt := c.Node("vbt")
	nVbn1 := c.Node("vbn1")
	nVbn2 := c.Node("vbn2")
	nVbp := c.Node("vbp")

	gnd := c.Node(spice.Ground)

	vddSrc := spice.NewVSource("VDD", nVdd, gnd, 0, 0)
	drive := spice.NewVSource("VINP", nInp, gnd, 0, 0)
	fb := spice.NewVCVS("EFB", nInn, gnd, nOut, gnd, 1)
	c.Add(vddSrc)
	c.Add(drive)
	c.Add(fb)

	// Bias rails referenced to the supplies (real bias generators track
	// their rail, so the offsets stay fixed as VDD varies).
	vbt := spice.NewVSource("VBT", nVbt, gnd, 0, 0)
	vbp := spice.NewVSource("VBP", nVbp, gnd, 0, 0)
	c.Add(vbt)
	c.Add(spice.NewVSource("VBN1", nVbn1, gnd, 1.0, 0))
	c.Add(spice.NewVSource("VBN2", nVbn2, gnd, 1.6, 0))
	c.Add(vbp)

	mk := func(name string, d, gt, s, b, pol int) *spice.Mosfet {
		m := spice.NewMosfet(name, d, gt, s, b, pol, 0, 0, spice.MosParams{})
		c.Add(m)
		return m
	}
	mt := mk("MT", nTail, nVbt, nVdd, nVdd, -1)
	m1 := mk("M1", nF1, nInp, nTail, nVdd, -1)
	m2 := mk("M2", nF2, nInn, nTail, nVdd, -1)
	m3 := mk("M3", nF1, nVbn1, gnd, gnd, +1)
	m4 := mk("M4", nF2, nVbn1, gnd, gnd, +1)
	m5 := mk("M5", nO1, nVbn2, nF1, gnd, +1)
	m6 := mk("M6", nOut, nVbn2, nF2, gnd, +1)
	m7 := mk("M7", nM1, nO1, nVdd, nVdd, -1)
	m8 := mk("M8", nM2, nO1, nVdd, nVdd, -1)
	m9 := mk("M9", nO1, nVbp, nM1, nVdd, -1)
	m10 := mk("M10", nOut, nVbp, nM2, nVdd, -1)

	cl := spice.NewCapacitor("CL", nOut, gnd, fcCL)
	c.Add(cl)

	return &testbench{
		ckt: c, out: nOut, drive: drive, fb: fb, vddSrc: vddSrc,
		rails: []vddRail{{vbt, 1.1}, {vbp, 1.7}},
		tail:  mt, slewCap: cl,
		mosfets: []*spice.Mosfet{m1, m2, m3, m4, m5, m6, m7, m8, m9, m10, mt},
	}
}

// foldedCascodeProblem builds the folded-cascode problem and its harness.
func foldedCascodeProblem() (*problem.Problem, *simHarness) {
	model := FoldedCascodeVariations()
	p := &problem.Problem{
		Name: "folded-cascode",
		Specs: []problem.Spec{
			{Name: "A0", Unit: "dB", Kind: problem.GE, Bound: 40},
			{Name: "ft", Unit: "MHz", Kind: problem.GE, Bound: 40},
			{Name: "CMRR", Unit: "dB", Kind: problem.GE, Bound: 80},
			{Name: "SRp", Unit: "V/µs", Kind: problem.GE, Bound: 35},
			{Name: "Power", Unit: "mW", Kind: problem.LE, Bound: 3.5},
		},
		Design: []problem.Param{
			{Name: "W1", Unit: "µm", Init: 30, Lo: 5, Hi: 400, LogScale: true},
			{Name: "L1", Unit: "µm", Init: 1.0, Lo: 0.6, Hi: 5},
			{Name: "W3", Unit: "µm", Init: 60, Lo: 5, Hi: 400, LogScale: true},
			{Name: "L3", Unit: "µm", Init: 2.0, Lo: 1.0, Hi: 8, LogScale: true},
			{Name: "W5", Unit: "µm", Init: 50, Lo: 5, Hi: 400, LogScale: true},
			{Name: "W7", Unit: "µm", Init: 100, Lo: 10, Hi: 600, LogScale: true},
			{Name: "W9", Unit: "µm", Init: 100, Lo: 10, Hi: 600, LogScale: true},
			{Name: "WT", Unit: "µm", Init: 100, Lo: 10, Hi: 800, LogScale: true},
		},
		StatNames: model.Names(),
		Theta: []problem.OpRange{
			{Name: "T", Unit: "°C", Nominal: 27, Lo: -40, Hi: 125},
			{Name: "VDD", Unit: "V", Nominal: 3.3, Lo: 3.0, Hi: 3.6},
		},
	}
	h := newSimHarness(opamp{
		build: newFoldedCascode,
		set: func(tb *testbench, d, s, theta []float64) {
			g := fcDecode(d)
			tb.deltas = model.AppendPhysical(tb.deltas[:0], s, g.geometry)
			tb.set(g.geometry, tb.deltas, theta)
		},
		fields: []perfField{fieldA0, fieldFt, fieldCMRR, fieldSR, fieldPower},
		fStart: 100, fStop: 1e9,
	}, p)
	return p, h
}

// FoldedCascodeProblem builds the problem.Problem for the folded-cascode
// opamp with both global and local (mismatch) variations — the circuit of
// the paper's Tables 1–5.
func FoldedCascodeProblem() *problem.Problem {
	p, _ := foldedCascodeProblem()
	return p
}
