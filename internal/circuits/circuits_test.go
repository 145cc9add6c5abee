package circuits

import (
	"math"
	"testing"

	"specwise/internal/spice"
	"specwise/internal/variation"
)

func TestApplyDeltasTargeted(t *testing.T) {
	m1 := spice.NewMosfet("M1", 0, 1, 2, 2, +1, 1e-6, 1e-6, spice.DefaultNMOS())
	m2 := spice.NewMosfet("M2", 0, 1, 2, 2, -1, 1e-6, 1e-6, spice.DefaultPMOS())
	applyDeltas([]*spice.Mosfet{m1, m2}, []variation.Delta{
		{Device: "M1", Kind: variation.VthShift, Value: 0.01},
		{Device: "M2", Kind: variation.BetaRel, Value: 0.05},
	})
	if m1.DVth != 0.01 || m2.DVth != 0 {
		t.Errorf("DVth: m1=%v m2=%v", m1.DVth, m2.DVth)
	}
	if m1.BetaScale != 1 || math.Abs(m2.BetaScale-1.05) > 1e-12 {
		t.Errorf("BetaScale: m1=%v m2=%v", m1.BetaScale, m2.BetaScale)
	}
}

func TestApplyDeltasGlobalByPolarity(t *testing.T) {
	m1 := spice.NewMosfet("M1", 0, 1, 2, 2, +1, 1e-6, 1e-6, spice.DefaultNMOS())
	m2 := spice.NewMosfet("M2", 0, 1, 2, 2, -1, 1e-6, 1e-6, spice.DefaultPMOS())
	m3 := spice.NewMosfet("M3", 0, 1, 2, 2, +1, 1e-6, 1e-6, spice.DefaultNMOS())
	applyDeltas([]*spice.Mosfet{m1, m2, m3}, []variation.Delta{
		{Polarity: +1, Kind: variation.VthShift, Value: 0.02},
	})
	if m1.DVth != 0.02 || m3.DVth != 0.02 {
		t.Error("global NMOS delta not applied to all NMOS")
	}
	if m2.DVth != 0 {
		t.Error("global NMOS delta leaked to PMOS")
	}
}

func TestEvalDeterminism(t *testing.T) {
	p := FoldedCascodeProblem()
	d := p.InitialDesign()
	s := make([]float64, p.NumStat())
	s[3], s[7] = 0.5, -1.2
	th := p.NominalTheta()
	a, err := p.Eval(d, s, th)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Eval(d, s, th)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("eval not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestProblemShapes(t *testing.T) {
	for _, p := range []struct {
		name string
		pb   interface {
			NumSpecs() int
			NumDesign() int
			NumStat() int
		}
		specs, design, stat int
	}{
		{"fc", FoldedCascodeProblem(), 5, 8, 26},
		{"miller", MillerProblem(), 5, 6, 4},
		{"ota", OTAProblem(), 4, 3, 12},
	} {
		if p.pb.NumSpecs() != p.specs || p.pb.NumDesign() != p.design || p.pb.NumStat() != p.stat {
			t.Errorf("%s: shapes %d/%d/%d want %d/%d/%d", p.name,
				p.pb.NumSpecs(), p.pb.NumDesign(), p.pb.NumStat(),
				p.specs, p.design, p.stat)
		}
	}
}

func TestConstraintVectorMatchesNames(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    interface {
			InitialDesign() []float64
		}
	}{} {
		_ = tc
	}
	p := FoldedCascodeProblem()
	c, err := p.Constraints(p.InitialDesign())
	if err != nil {
		t.Fatal(err)
	}
	if len(c) != len(p.ConstraintNames) {
		t.Errorf("constraints %d names %d", len(c), len(p.ConstraintNames))
	}
	m := MillerProblem()
	cm, err := m.Constraints(m.InitialDesign())
	if err != nil {
		t.Fatal(err)
	}
	if len(cm) != len(m.ConstraintNames) {
		t.Errorf("miller constraints %d names %d", len(cm), len(m.ConstraintNames))
	}
}

// Pelgrom coupling: growing the input pair must reduce the CMRR response
// to a fixed normalized mismatch sample — the C(d) design dependence the
// paper's Sec. 4 is about.
func TestDesignDependentVariance(t *testing.T) {
	p := FoldedCascodeProblem()
	model := FoldedCascodeVariations()
	i3 := model.LocalIndex("M3.dVth")
	i4 := model.LocalIndex("M4.dVth")
	s := make([]float64, p.NumStat())
	s[i3], s[i4] = 2, -2
	th := p.NominalTheta()

	small := p.InitialDesign()
	vsmall, err := p.Eval(small, s, th)
	if err != nil {
		t.Fatal(err)
	}
	big := p.InitialDesign()
	big[2] *= 4 // W3 ×4 → σ(ΔVth) halves at the same ŝ
	big[4] *= 2 // keep the mirror able to carry the larger sink current
	vbig, err := p.Eval(big, s, th)
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]float64, p.NumStat())
	v0small, _ := p.Eval(small, zero, th)
	v0big, _ := p.Eval(big, zero, th)

	dropSmall := v0small[2] - vsmall[2]
	dropBig := v0big[2] - vbig[2]
	if dropBig >= dropSmall {
		t.Errorf("CMRR drop small-area %.2f dB vs big-area %.2f dB; upsizing must help", dropSmall, dropBig)
	}
}

func TestFailedPerfIsNaN(t *testing.T) {
	fp := failedPerf()
	for _, v := range []float64{fp.A0dB, fp.FtMHz, fp.PMdeg, fp.CMRRdB, fp.SRVus, fp.PowerMW} {
		if !math.IsNaN(v) {
			t.Error("failure performances must be NaN")
		}
	}
	fc := failedConstraints(4)
	if len(fc) != 4 || fc[0] >= 0 {
		t.Error("failed constraints must be strongly violated")
	}
}

func TestAdjustTemp(t *testing.T) {
	base := spice.DefaultNMOS()
	hot := base.AtTemp(125)
	cold := base.AtTemp(-40)
	if hot.VT0 >= base.VT0 || cold.VT0 <= base.VT0 {
		t.Error("threshold temperature slope wrong")
	}
	if hot.KP >= base.KP || cold.KP <= base.KP {
		t.Error("mobility temperature slope wrong")
	}
	nominal := base.AtTemp(27)
	if math.Abs(nominal.VT0-base.VT0) > 1e-9 || math.Abs(nominal.KP-base.KP)/base.KP > 1e-9 {
		t.Error("27°C must be the reference point")
	}
}

// Operating-range behaviour: the folded-cascode slew rate must be worst
// at the cold corner (threshold rise starves the tail current).
func TestSlewRateWorstAtColdCorner(t *testing.T) {
	p := FoldedCascodeProblem()
	d := p.InitialDesign()
	s := make([]float64, p.NumStat())
	cold, err := p.Eval(d, s, []float64{-40, 3.0})
	if err != nil {
		t.Fatal(err)
	}
	hot, err := p.Eval(d, s, []float64{125, 3.6})
	if err != nil {
		t.Fatal(err)
	}
	if cold[3] >= hot[3] {
		t.Errorf("SR cold %.1f >= hot %.1f; temperature dependence inverted", cold[3], hot[3])
	}
}
