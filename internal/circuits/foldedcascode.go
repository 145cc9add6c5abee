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

// buildFoldedCascode constructs the DC-closed-loop testbench at one
// (design, statistical, operating) point. theta = [temperature °C, VDD V].
func buildFoldedCascode(g fcDesign, deltas []variation.Delta, theta []float64) *testbench {
	tempC, vdd := theta[0], theta[1]
	nmos := adjustTemp(spice.DefaultNMOS(), tempC)
	pmos := adjustTemp(spice.DefaultPMOS(), tempC)

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
	vcm := vdd / 2

	vddSrc := spice.NewVSource("VDD", nVdd, gnd, vdd, 0)
	drive := spice.NewVSource("VINP", nInp, gnd, vcm, 0)
	fb := spice.NewVCVS("EFB", nInn, gnd, nOut, gnd, 1)
	c.Add(vddSrc)
	c.Add(drive)
	c.Add(fb)

	// Bias rails referenced to the supplies (real bias generators track
	// their rail, so the offsets stay fixed as VDD varies).
	c.Add(spice.NewVSource("VBT", nVbt, gnd, vdd-1.1, 0))
	c.Add(spice.NewVSource("VBN1", nVbn1, gnd, 1.0, 0))
	c.Add(spice.NewVSource("VBN2", nVbn2, gnd, 1.6, 0))
	c.Add(spice.NewVSource("VBP", nVbp, gnd, vdd-1.7, 0))

	mk := func(name string, d, gt, s, b, pol int, w, l float64, p spice.MosParams) *spice.Mosfet {
		m := spice.NewMosfet(name, d, gt, s, b, pol, w, l, p)
		c.Add(m)
		return m
	}

	mt := mk("MT", nTail, nVbt, nVdd, nVdd, -1, g.wt, fcLt, pmos)
	m1 := mk("M1", nF1, nInp, nTail, nVdd, -1, g.w1, g.l1, pmos)
	m2 := mk("M2", nF2, nInn, nTail, nVdd, -1, g.w1, g.l1, pmos)
	m3 := mk("M3", nF1, nVbn1, gnd, gnd, +1, g.w3, g.l3, nmos)
	m4 := mk("M4", nF2, nVbn1, gnd, gnd, +1, g.w3, g.l3, nmos)
	m5 := mk("M5", nO1, nVbn2, nF1, gnd, +1, g.w5, fcL5, nmos)
	m6 := mk("M6", nOut, nVbn2, nF2, gnd, +1, g.w5, fcL5, nmos)
	m7 := mk("M7", nM1, nO1, nVdd, nVdd, -1, g.w7, fcL7, pmos)
	m8 := mk("M8", nM2, nO1, nVdd, nVdd, -1, g.w7, fcL7, pmos)
	m9 := mk("M9", nO1, nVbp, nM1, nVdd, -1, g.w9, fcL9, pmos)
	m10 := mk("M10", nOut, nVbp, nM2, nVdd, -1, g.w9, fcL9, pmos)

	c.Add(spice.NewCapacitor("CL", nOut, gnd, fcCL))

	tb := &testbench{
		ckt: c, out: nOut, drive: drive, fb: fb,
		vddSrc: vddSrc, vdd: vdd,
		tail: mt, slewCap: fcCL,
		mosfets: []*spice.Mosfet{m1, m2, m3, m4, m5, m6, m7, m8, m9, m10, mt},
	}
	applyDeltas(tb.mosfets, deltas)
	return tb
}

// FoldedCascodeProblem builds the problem.Problem for the folded-cascode
// opamp with both global and local (mismatch) variations — the circuit of
// the paper's Tables 1–5.
func FoldedCascodeProblem() *problem.Problem {
	model := FoldedCascodeVariations()
	specs := []problem.Spec{
		{Name: "A0", Unit: "dB", Kind: problem.GE, Bound: 40},
		{Name: "ft", Unit: "MHz", Kind: problem.GE, Bound: 40},
		{Name: "CMRR", Unit: "dB", Kind: problem.GE, Bound: 80},
		{Name: "SRp", Unit: "V/µs", Kind: problem.GE, Bound: 35},
		{Name: "Power", Unit: "mW", Kind: problem.LE, Bound: 3.5},
	}
	design := []problem.Param{
		{Name: "W1", Unit: "µm", Init: 30, Lo: 5, Hi: 400, LogScale: true},
		{Name: "L1", Unit: "µm", Init: 1.0, Lo: 0.6, Hi: 5},
		{Name: "W3", Unit: "µm", Init: 60, Lo: 5, Hi: 400, LogScale: true},
		{Name: "L3", Unit: "µm", Init: 2.0, Lo: 1.0, Hi: 8, LogScale: true},
		{Name: "W5", Unit: "µm", Init: 50, Lo: 5, Hi: 400, LogScale: true},
		{Name: "W7", Unit: "µm", Init: 100, Lo: 10, Hi: 600, LogScale: true},
		{Name: "W9", Unit: "µm", Init: 100, Lo: 10, Hi: 600, LogScale: true},
		{Name: "WT", Unit: "µm", Init: 100, Lo: 10, Hi: 800, LogScale: true},
	}
	theta := []problem.OpRange{
		{Name: "T", Unit: "°C", Nominal: 27, Lo: -40, Hi: 125},
		{Name: "VDD", Unit: "V", Nominal: 3.3, Lo: 3.0, Hi: 3.6},
	}

	// The reference bench provides the constraint names and the fixed
	// warm-start operating point every later solve starts from.
	tb0 := buildFoldedCascode(fcDecode([]float64{30, 1, 60, 2, 50, 100, 100, 100}), nil, []float64{27, 3.3})
	h := newSimHarness(tb0)

	fields := []perfField{fieldA0, fieldFt, fieldCMRR, fieldSR, fieldPower}
	eval, evalSpec := evaluators(fields, 100, 1e9, func(d, s, th []float64) *testbench {
		g := fcDecode(d)
		return h.arm(buildFoldedCascode(g, model.Physical(s, g.geometry), th))
	})

	zeroS := make([]float64, model.Dim())
	constraints := func(d []float64) ([]float64, error) {
		g := fcDecode(d)
		tb := h.arm(buildFoldedCascode(g, model.Physical(zeroS, g.geometry), []float64{27, 3.3}))
		dc, err := tb.ckt.DC(tb.dcOpts)
		if err != nil {
			return failedConstraints(2 * len(tb.mosfets)), nil
		}
		return mosConstraints(tb.mosfets, dc.X), nil
	}

	return &problem.Problem{
		Name:            "folded-cascode",
		Specs:           specs,
		Design:          design,
		StatNames:       model.Names(),
		Theta:           theta,
		ConstraintNames: mosConstraintNames(tb0.mosfets),
		Eval:            eval,
		EvalSpec:        evalSpec,
		Constraints:     constraints,
		SimStats:        h.counters,
		SimConfigure:    h.configure,
	}
}
