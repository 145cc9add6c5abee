package circuits

import (
	"specwise/internal/problem"
	"specwise/internal/spice"
	"specwise/internal/variation"
)

// Miller opamp fixed sizing constants (SI units).
const (
	mlL1 = 2e-6 // input pair
	mlL3 = 2e-6 // PMOS mirror
	mlL5 = 2e-6 // tail
	mlL6 = 2e-6 // output PMOS
	mlL7 = 2e-6 // output sink
	mlCL = 10e-12
	mlRz = 1.5e3
)

// mlDesign is the decoded design vector of the Miller opamp.
type mlDesign struct {
	w1, w3, w6, w7, wt, cc float64 // SI (cc in farads)
}

func mlDecode(d []float64) mlDesign {
	return mlDesign{
		w1: d[0] * um, w3: d[1] * um, w6: d[2] * um,
		w7: d[3] * um, wt: d[4] * um, cc: d[5] * 1e-12,
	}
}

func (g mlDesign) geometry(device string) (w, l float64) {
	switch device {
	case "M1", "M2":
		return g.w1, mlL1
	case "M3", "M4":
		return g.w3, mlL3
	case "M5":
		return g.wt, mlL5
	case "M6":
		return g.w6, mlL6
	case "M7":
		return g.w7, mlL7
	}
	panic("circuits: unknown Miller device " + device)
}

// MillerVariations returns the statistical model for the Miller opamp
// runs: global process variations only, as in the paper's second example.
func MillerVariations() *variation.Model {
	return &variation.Model{
		Globals: []variation.Global{
			{Name: "g.dVthN", Kind: variation.VthShift, Polarity: +1, Sigma: 0.015},
			{Name: "g.dVthP", Kind: variation.VthShift, Polarity: -1, Sigma: 0.015},
			{Name: "g.dBetaN", Kind: variation.BetaRel, Polarity: +1, Sigma: 0.025},
			{Name: "g.dBetaP", Kind: variation.BetaRel, Polarity: -1, Sigma: 0.025},
		},
	}
}

// newMiller builds the two-stage (Miller-compensated) opamp testbench
// topology; set writes the point-dependent values, and the Miller
// problem's setter also the compensation capacitance. The non-inverting
// input is the M2 gate; the feedback element closes the loop into the
// M1 gate at DC.
func newMiller() *testbench {
	c := spice.New()
	nVdd := c.Node("vdd")
	nInp := c.Node("inp") // inverting input (feedback target)
	nInn := c.Node("inn") // non-inverting input (AC drive)
	nTail := c.Node("tail")
	nN1 := c.Node("n1")
	nO1 := c.Node("o1")
	nOut := c.Node("out")
	nX := c.Node("x") // compensation network midpoint
	nVbn := c.Node("vbn")
	gnd := c.Node(spice.Ground)

	vddSrc := spice.NewVSource("VDD", nVdd, gnd, 0, 0)
	drive := spice.NewVSource("VINN", nInn, gnd, 0, 0)
	fb := spice.NewVCVS("EFB", nInp, gnd, nOut, gnd, 1)
	c.Add(vddSrc)
	c.Add(drive)
	c.Add(fb)
	c.Add(spice.NewVSource("VBN", nVbn, gnd, 1.15, 0))

	mk := func(name string, d, gt, s, b, pol int) *spice.Mosfet {
		m := spice.NewMosfet(name, d, gt, s, b, pol, 0, 0, spice.MosParams{})
		c.Add(m)
		return m
	}
	m1 := mk("M1", nN1, nInp, nTail, gnd, +1)
	m2 := mk("M2", nO1, nInn, nTail, gnd, +1)
	m3 := mk("M3", nN1, nN1, nVdd, nVdd, -1)
	m4 := mk("M4", nO1, nN1, nVdd, nVdd, -1)
	m5 := mk("M5", nTail, nVbn, gnd, gnd, +1)
	m6 := mk("M6", nOut, nO1, nVdd, nVdd, -1)
	m7 := mk("M7", nOut, nVbn, gnd, gnd, +1)

	cc := spice.NewCapacitor("CC", nO1, nX, 0)
	c.Add(cc)
	c.Add(spice.NewResistor("RZ", nX, nOut, mlRz))
	c.Add(spice.NewCapacitor("CL", nOut, gnd, mlCL))

	return &testbench{
		ckt: c, out: nOut, drive: drive, fb: fb, vddSrc: vddSrc,
		tail: m5, slewCap: cc,
		mosfets: []*spice.Mosfet{m1, m2, m3, m4, m5, m6, m7},
	}
}

// millerProblem builds the Miller problem and its harness.
func millerProblem() (*problem.Problem, *simHarness) {
	model := MillerVariations()
	p := &problem.Problem{
		Name: "miller",
		Specs: []problem.Spec{
			{Name: "A0", Unit: "dB", Kind: problem.GE, Bound: 80},
			{Name: "ft", Unit: "MHz", Kind: problem.GE, Bound: 1.3},
			{Name: "PM", Unit: "°", Kind: problem.GE, Bound: 60},
			{Name: "SRp", Unit: "V/µs", Kind: problem.GE, Bound: 3},
			{Name: "Power", Unit: "mW", Kind: problem.LE, Bound: 1.3},
		},
		Design: []problem.Param{
			{Name: "W1", Unit: "µm", Init: 20, Lo: 5, Hi: 200, LogScale: true},
			{Name: "W3", Unit: "µm", Init: 20, Lo: 5, Hi: 200, LogScale: true},
			{Name: "W6", Unit: "µm", Init: 115, Lo: 10, Hi: 600, LogScale: true},
			{Name: "W7", Unit: "µm", Init: 12, Lo: 2, Hi: 300, LogScale: true},
			{Name: "WT", Unit: "µm", Init: 4, Lo: 2, Hi: 100, LogScale: true},
			{Name: "CC", Unit: "pF", Init: 6, Lo: 1, Hi: 20, LogScale: true},
		},
		StatNames: model.Names(),
		Theta: []problem.OpRange{
			{Name: "T", Unit: "°C", Nominal: 27, Lo: -40, Hi: 125},
			{Name: "VDD", Unit: "V", Nominal: 3.3, Lo: 3.0, Hi: 3.6},
		},
	}
	h := newSimHarness(opamp{
		build: newMiller,
		set: func(tb *testbench, d, s, theta []float64) {
			g := mlDecode(d)
			tb.deltas = model.AppendPhysical(tb.deltas[:0], s, g.geometry)
			tb.set(g.geometry, tb.deltas, theta)
			tb.slewCap.C = g.cc
		},
		fields: []perfField{fieldA0, fieldFt, fieldPM, fieldSR, fieldPower},
		fStart: 1, fStop: 1e9,
	}, p)
	return p, h
}

// MillerProblem builds the problem.Problem for the Miller opamp with global
// process variations only — the circuit of the paper's Table 6.
func MillerProblem() *problem.Problem {
	p, _ := millerProblem()
	return p
}
