package variation

import (
	"math"
	"testing"
	"testing/quick"
)

func testModel() *Model {
	return &Model{
		Globals: []Global{
			{Name: "g.dVthN", Kind: VthShift, Polarity: +1, Sigma: 0.02},
			{Name: "g.dBetaP", Kind: BetaRel, Polarity: -1, Sigma: 0.03},
		},
		Locals: []Local{
			{Name: "M1.dVth", Device: "M1", Kind: VthShift, A: 10e-3},
			{Name: "M1.dBeta", Device: "M1", Kind: BetaRel, A: 0.012},
			{Name: "M2.dVth", Device: "M2", Kind: VthShift, A: 10e-3},
		},
	}
}

func geom(device string) (float64, float64) {
	switch device {
	case "M1":
		return 10e-6, 1e-6 // 10 µm²
	case "M2":
		return 40e-6, 2.5e-6 // 100 µm²
	}
	panic("unknown device")
}

func TestDimAndNames(t *testing.T) {
	m := testModel()
	if m.Dim() != 5 {
		t.Fatalf("dim = %d", m.Dim())
	}
	names := m.Names()
	if names[0] != "g.dVthN" || names[4] != "M2.dVth" {
		t.Errorf("names = %v", names)
	}
	if m.LocalIndex("M2.dVth") != 4 {
		t.Errorf("LocalIndex = %d", m.LocalIndex("M2.dVth"))
	}
	if m.LocalIndex("nope") != -1 {
		t.Error("missing local should be -1")
	}
}

func TestPelgromSigmas(t *testing.T) {
	// A_VT = 10 mV·µm over 100 µm² → σ = 1 mV.
	if got := SigmaVth(10e-3, 40e-6, 2.5e-6); math.Abs(got-1e-3) > 1e-12 {
		t.Errorf("SigmaVth = %v want 1e-3", got)
	}
	// A_β = 1.2 %·µm over 10 µm² → σ ≈ 0.3795 %.
	want := 0.012 / math.Sqrt(10)
	if got := SigmaBeta(0.012, 10e-6, 1e-6); math.Abs(got-want) > 1e-12 {
		t.Errorf("SigmaBeta = %v want %v", got, want)
	}
}

// Property: Pelgrom sigma scales as 1/√area — quadrupling the area halves
// the sigma.
func TestPelgromAreaLawProperty(t *testing.T) {
	f := func(wRaw, lRaw float64) bool {
		w := 1e-6 * (1 + math.Abs(math.Mod(wRaw, 100)))
		l := 1e-6 * (1 + math.Abs(math.Mod(lRaw, 10)))
		s1 := SigmaVth(10e-3, w, l)
		s2 := SigmaVth(10e-3, 2*w, 2*l)
		return math.Abs(s1/s2-2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPhysicalMapping(t *testing.T) {
	m := testModel()
	shat := []float64{1, -2, 3, 0.5, -1}
	deltas := m.Physical(shat, geom)
	if len(deltas) != 5 {
		t.Fatalf("deltas = %d", len(deltas))
	}
	// Global 0: σ=0.02, ŝ=1.
	if deltas[0].Value != 0.02 || deltas[0].Polarity != 1 || deltas[0].Device != "" {
		t.Errorf("delta[0] = %+v", deltas[0])
	}
	// Local M1.dVth: σ = 10mV/√10, ŝ=3.
	want := 3 * 10e-3 / math.Sqrt(10)
	if math.Abs(deltas[2].Value-want) > 1e-12 || deltas[2].Device != "M1" {
		t.Errorf("delta[2] = %+v want value %v", deltas[2], want)
	}
	// Local M2.dVth: σ = 1mV (bigger area), ŝ=-1.
	if math.Abs(deltas[4].Value+1e-3) > 1e-12 {
		t.Errorf("delta[4] = %+v", deltas[4])
	}
}

func TestPhysicalPanicsOnWrongDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	testModel().Physical([]float64{1, 2}, geom)
}

// The covariance C(d) = G(d)·G(d)ᵀ of the physical deltas depends on
// the design: a unit sample on one component moves only that component
// (G is diagonal, so C is), by its σ.
func TestCovarianceDesignDependence(t *testing.T) {
	m := testModel()
	sigmas := func(geom Geometry) []float64 {
		out := make([]float64, m.Dim())
		for i := range out {
			unit := make([]float64, m.Dim())
			unit[i] = 1
			for k, d := range m.Physical(unit, geom) {
				if k != i && d.Value != 0 {
					t.Errorf("G[%d][%d] = %v, want 0", k, i, d.Value)
				}
				if k == i {
					out[i] = d.Value
				}
			}
		}
		return out
	}
	sig := sigmas(geom)
	if sig[0] != 0.02 {
		t.Errorf("global sigma = %v", sig[0])
	}
	if want := 10e-3 / math.Sqrt(10); math.Abs(sig[2]-want) > 1e-15 {
		t.Errorf("M1 sigma = %v, want %v", sig[2], want)
	}

	// Growing M1 shrinks its variance but not M2's: C depends on d.
	bigger := func(device string) (float64, float64) {
		if device == "M1" {
			return 40e-6, 1e-6
		}
		return geom(device)
	}
	sig2 := sigmas(bigger)
	if sig2[2] >= sig[2] {
		t.Error("upsizing M1 must shrink its mismatch variance")
	}
	if sig2[4] != sig[4] {
		t.Error("M2 variance must be unchanged")
	}
}

func TestKindString(t *testing.T) {
	if VthShift.String() != "dVth" || BetaRel.String() != "dBeta" {
		t.Error("Kind labels wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind should render")
	}
}
