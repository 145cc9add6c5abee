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

// buildOTA constructs the five-transistor OTA testbench with an ideal tail
// current source. theta = [temperature °C, VDD V].
func buildOTA(g otaDesign, deltas []variation.Delta, theta []float64) *testbench {
	tempC, vdd := theta[0], theta[1]
	nmos := adjustTemp(spice.DefaultNMOS(), tempC)
	pmos := adjustTemp(spice.DefaultPMOS(), tempC)

	c := spice.New()
	nVdd := c.Node("vdd")
	nInp := c.Node("inp") // non-inverting input (AC drive, M1 gate)
	nInn := c.Node("inn") // inverting input (feedback target, M2 gate)
	nTail := c.Node("tail")
	nN1 := c.Node("n1")
	nOut := c.Node("out")
	nVbn := c.Node("vbn")
	gnd := c.Node(spice.Ground)
	vcm := vdd / 2

	vddSrc := spice.NewVSource("VDD", nVdd, gnd, vdd, 0)
	drive := spice.NewVSource("VINP", nInp, gnd, vcm, 0)
	// The output is M2's drain, so M2's gate is the inverting input: the
	// unity feedback must land there for the DC loop to be stable.
	fb := spice.NewVCVS("EFB", nInn, gnd, nOut, gnd, 1)
	c.Add(vddSrc)
	c.Add(drive)
	c.Add(fb)
	c.Add(spice.NewVSource("VBN", nVbn, gnd, 1.0, 0))

	m1 := spice.NewMosfet("M1", nN1, nInp, nTail, gnd, +1, g.w1, otaL1, nmos)
	m2 := spice.NewMosfet("M2", nOut, nInn, nTail, gnd, +1, g.w1, otaL1, nmos)
	m3 := spice.NewMosfet("M3", nN1, nN1, nVdd, nVdd, -1, g.w3, otaL3, pmos)
	m4 := spice.NewMosfet("M4", nOut, nN1, nVdd, nVdd, -1, g.w3, otaL3, pmos)
	m5 := spice.NewMosfet("M5", nTail, nVbn, gnd, gnd, +1, g.wt, otaL5, nmos)
	c.Add(m1)
	c.Add(m2)
	c.Add(m3)
	c.Add(m4)
	c.Add(m5)
	c.Add(spice.NewCapacitor("CL", nOut, gnd, otaCL))

	tb := &testbench{
		ckt: c, out: nOut, drive: drive, fb: fb,
		vddSrc: vddSrc, vdd: vdd,
		tail: m5, slewCap: otaCL,
		mosfets: []*spice.Mosfet{m1, m2, m3, m4, m5},
	}
	applyDeltas(tb.mosfets, deltas)
	return tb
}

// OTAProblem builds the problem.Problem for the five-transistor OTA: a
// three-parameter design space that exercises every part of the optimizer
// quickly.
func OTAProblem() *problem.Problem {
	model := OTAVariations()
	specs := []problem.Spec{
		{Name: "A0", Unit: "dB", Kind: problem.GE, Bound: 38},
		{Name: "ft", Unit: "MHz", Kind: problem.GE, Bound: 30},
		{Name: "CMRR", Unit: "dB", Kind: problem.GE, Bound: 60},
		{Name: "Power", Unit: "mW", Kind: problem.LE, Bound: 0.4},
	}
	design := []problem.Param{
		{Name: "W1", Unit: "µm", Init: 20, Lo: 2, Hi: 200, LogScale: true},
		{Name: "W3", Unit: "µm", Init: 30, Lo: 2, Hi: 200, LogScale: true},
		{Name: "WT", Unit: "µm", Init: 8, Lo: 2, Hi: 100, LogScale: true},
	}
	theta := []problem.OpRange{
		{Name: "T", Unit: "°C", Nominal: 27, Lo: -40, Hi: 125},
		{Name: "VDD", Unit: "V", Nominal: 3.3, Lo: 3.0, Hi: 3.6},
	}

	// The reference bench provides the constraint names and the fixed
	// warm-start operating point every later solve starts from.
	tb0 := buildOTA(otaDecode([]float64{20, 30, 8}), nil, []float64{27, 3.3})
	h := newSimHarness(tb0)

	fields := []perfField{fieldA0, fieldFt, fieldCMRR, fieldPower}
	eval, evalSpec := evaluators(fields, 100, 1e10, func(d, s, th []float64) *testbench {
		g := otaDecode(d)
		return h.arm(buildOTA(g, model.Physical(s, g.geometry), th))
	})

	zeroS := make([]float64, model.Dim())
	constraints := func(d []float64) ([]float64, error) {
		g := otaDecode(d)
		tb := h.arm(buildOTA(g, model.Physical(zeroS, g.geometry), []float64{27, 3.3}))
		dc, err := tb.ckt.DC(tb.dcOpts)
		if err != nil {
			return failedConstraints(2 * len(tb.mosfets)), nil
		}
		return mosConstraints(tb.mosfets, dc.X), nil
	}

	return &problem.Problem{
		Name:            "ota5",
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
