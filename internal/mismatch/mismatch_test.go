package mismatch

import (
	"math"
	"testing"
	"testing/quick"

	"specwise/internal/problem"
)

func TestPhiShape(t *testing.T) {
	var o Options
	// Peak on the mismatch line.
	if got := Phi(-math.Pi/4, o); got != 1 {
		t.Errorf("Phi(-π/4) = %v want 1", got)
	}
	// Zero on the neutral line.
	if got := Phi(math.Pi/4, o); got != 0 {
		t.Errorf("Phi(π/4) = %v want 0", got)
	}
	// Zero at the axes (single-parameter deviation).
	if got := Phi(0, o); got != 0 {
		t.Errorf("Phi(0) = %v want 0", got)
	}
	if got := Phi(-math.Pi/2, o); got != 0 {
		t.Errorf("Phi(-π/2) = %v want 0", got)
	}
	// Monotone ramp between Δ1 and Δ2.
	mid := Phi(-math.Pi/4+3*math.Pi/32, o)
	if mid <= 0 || mid >= 1 {
		t.Errorf("Phi on the ramp = %v want in (0,1)", mid)
	}
}

// Property: Phi stays within [0,1] and is symmetric around −π/4.
func TestPhiBoundsProperty(t *testing.T) {
	var o Options
	f := func(a float64) bool {
		ang := math.Mod(a, math.Pi/2)
		v := Phi(ang, o)
		if v < 0 || v > 1 {
			return false
		}
		// Symmetry around the mismatch line.
		refl := -math.Pi/2 - ang
		return math.Abs(Phi(refl, o)-v) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEtaShape(t *testing.T) {
	if got := Eta(0); got != 0.5 {
		t.Errorf("Eta(0) = %v want 0.5", got)
	}
	if got := Eta(1); got != 0.25 {
		t.Errorf("Eta(1) = %v want 0.25", got)
	}
	if got := Eta(-1); got != 0.75 {
		t.Errorf("Eta(-1) = %v want 0.75", got)
	}
	if Eta(100) > 0.01 || Eta(-100) < 0.99 {
		t.Error("Eta tails wrong")
	}
}

// Property: Eta is monotone decreasing and confined to (0,1).
func TestEtaMonotoneProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		a = math.Mod(a, 1e6)
		b = math.Mod(b, 1e6)
		if a > b {
			a, b = b, a
		}
		ea, eb := Eta(a), Eta(b)
		return ea >= eb && ea > 0 && ea < 1 && eb > 0 && eb < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEtaContinuityAtZero(t *testing.T) {
	eps := 1e-9
	if math.Abs(Eta(eps)-Eta(-eps)) > 1e-8 {
		t.Error("Eta discontinuous at 0")
	}
	// Continuously differentiable: one-sided slopes match (both −1/2).
	dplus := (Eta(eps) - Eta(0)) / eps
	dminus := (Eta(0) - Eta(-eps)) / eps
	if math.Abs(dplus-dminus) > 1e-6 {
		t.Errorf("Eta slopes at 0: %v vs %v", dplus, dminus)
	}
}

func TestPairMeasureMismatchPair(t *testing.T) {
	// Worst-case point dominated by an anti-symmetric pair (0,1).
	swc := []float64{2.0, -2.0, 0.1, 0.05}
	beta := 0.5
	var o Options
	m01 := PairMeasure(swc, beta, 0, 1, o)
	m23 := PairMeasure(swc, beta, 2, 3, o)
	if m01 <= 0 {
		t.Fatalf("mismatch pair measure = %v want > 0", m01)
	}
	// The anti-symmetric dominant pair must beat the small same-sign pair.
	if m01 <= m23 {
		t.Errorf("ranking wrong: m01=%v m23=%v", m01, m23)
	}
	// Equal magnitude, same sign (neutral line) scores zero.
	swcN := []float64{2.0, 2.0, 0.1, 0.05}
	if m := PairMeasure(swcN, beta, 0, 1, o); m != 0 {
		t.Errorf("neutral pair measure = %v want 0", m)
	}
}

func TestPairMeasureRange(t *testing.T) {
	// Maximum construction: dominant anti-symmetric pair, violated spec.
	swc := []float64{3, -3}
	m := PairMeasure(swc, -1e9, 0, 1, Options{})
	if m < 0.999 || m > 1 {
		t.Errorf("max-condition measure = %v want ≈1", m)
	}
	// Zero vector: measure must be 0, not NaN.
	if v := PairMeasure([]float64{0, 0}, 1, 0, 1, Options{}); v != 0 {
		t.Errorf("zero worst case measure = %v", v)
	}
}

// Property: measure is always within [0,1].
func TestPairMeasureBoundsProperty(t *testing.T) {
	f := func(a, b, c float64, beta float64) bool {
		if anyBad(a, b, c, beta) {
			return true
		}
		swc := []float64{a, b, c}
		v := PairMeasure(swc, beta, 0, 1, Options{})
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func anyBad(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

func TestPairsSorting(t *testing.T) {
	swc := []float64{1.5, -1.5, 0.4, -0.35, 0.01, 0.01}
	cands := AllPairs([]int{0, 1, 2, 3, 4, 5})
	ms := Pairs(swc, 0.3, cands, Options{})
	if len(ms) != 15 {
		t.Fatalf("pairs = %d want 15", len(ms))
	}
	for i := 1; i < len(ms); i++ {
		if ms[i].Value > ms[i-1].Value {
			t.Fatalf("not sorted at %d", i)
		}
	}
	if ms[0].K != 0 || ms[0].L != 1 {
		t.Errorf("top pair = (%d,%d) want (0,1)", ms[0].K, ms[0].L)
	}
}

func TestAllPairs(t *testing.T) {
	ps := AllPairs([]int{3, 7, 9})
	want := [][2]int{{3, 7}, {3, 9}, {7, 9}}
	if len(ps) != len(want) {
		t.Fatalf("pairs = %v", ps)
	}
	for i := range want {
		if ps[i] != want[i] {
			t.Errorf("pair %d = %v want %v", i, ps[i], want[i])
		}
	}
}

// TestAnalyzeAnalytic runs the whole analysis on a linear problem whose
// worst-case points are known in closed form:
//
//   - "mm": 3 − (s_A.dVth − s_B.dVth) − T ≥ 0, worst at T = 1: the boundary
//     lies on the dVth mismatch line at β = 2/√2;
//   - "com": 2 + s_A.dVth + s_B.dVth ≥ 0: the neutral line, measure 0;
//   - "bad": −1 + s_A.dBeta − s_B.dBeta ≥ 0 fails nominally: β = −1/√2 on
//     the dBeta mismatch line.
//
// The global "g.x" is never paired and kinds never mix, so each spec
// ranks exactly two pairs.
func TestAnalyzeAnalytic(t *testing.T) {
	p := &problem.Problem{
		Name: "analytic",
		Specs: []problem.Spec{
			{Name: "mm", Kind: problem.GE},
			{Name: "com", Kind: problem.GE},
			{Name: "bad", Kind: problem.GE},
		},
		Theta:     []problem.OpRange{{Name: "T", Nominal: 0.5, Lo: 0, Hi: 1}},
		StatNames: []string{"g.x", "A.dVth", "B.dVth", "A.dBeta", "B.dBeta"},
		Eval: func(d, s, th []float64) ([]float64, error) {
			return []float64{3 - (s[1] - s[2]) - th[0], 2 + s[1] + s[2], -1 + s[3] - s[4]}, nil
		},
	}
	reports, err := Analyze(p, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		beta    float64
		k, l    int
		measure float64
	}{
		{2 / math.Sqrt2, 1, 2, Eta(2 / math.Sqrt2)},
		{2 / math.Sqrt2, 1, 2, 0},
		{-1 / math.Sqrt2, 3, 4, Eta(-1 / math.Sqrt2)},
	}
	if len(reports) != len(want) {
		t.Fatalf("reports = %d, want %d", len(reports), len(want))
	}
	for i, w := range want {
		r := reports[i]
		if math.Abs(r.Beta-w.beta) > 1e-3 {
			t.Errorf("%s: beta = %v, want %v", p.Specs[i].Name, r.Beta, w.beta)
		}
		if len(r.Pairs) != 2 {
			t.Fatalf("%s: pairs = %+v, want 2", p.Specs[i].Name, r.Pairs)
		}
		top := r.Pairs[0]
		if w.measure > 0 && (top.K != w.k || top.L != w.l) {
			t.Errorf("%s: top pair (%d, %d), want (%d, %d)", p.Specs[i].Name, top.K, top.L, w.k, w.l)
		}
		if math.Abs(top.Value-w.measure) > 1e-3 {
			t.Errorf("%s: top measure = %v, want %v", p.Specs[i].Name, top.Value, w.measure)
		}
		if r.Pairs[1].Value > top.Value {
			t.Errorf("%s: pairs not sorted: %+v", p.Specs[i].Name, r.Pairs)
		}
	}
}

func TestLikeKindPairsSortedKinds(t *testing.T) {
	got := likeKindPairs([]string{"g.dVthN", "M1.dVth", "M2.dVth", "M1.dBeta", "M2.dBeta", "glob"})
	want := [][2]int{{3, 4}, {1, 2}} // ".dBeta" sorts before ".dVth"
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("pairs = %v, want %v", got, want)
	}
}
