package linmodel

import (
	"math"
	"testing"
	"testing/quick"

	"specwise/internal/linalg"
	"specwise/internal/problem"
	"specwise/internal/rng"
	"specwise/internal/stat"
	"specwise/internal/wcd"
)

// linearProblem has exactly linear margins, so the spec-wise models must
// be exact: margin = 1 + 2·s0 − s1 + 0.5·(d0 − d0f).
func linearProblem() *problem.Problem {
	return &problem.Problem{
		Name:      "lin",
		Specs:     []problem.Spec{{Name: "m", Kind: problem.GE, Bound: 0}},
		Design:    []problem.Param{{Name: "d0", Init: 0, Lo: -10, Hi: 10}},
		StatNames: []string{"s0", "s1"},
		Eval: func(d, s, th []float64) ([]float64, error) {
			return []float64{1 + 2*s[0] - s[1] + 0.5*d[0]}, nil
		},
	}
}

func wcFor(t *testing.T, p *problem.Problem, d []float64, spec int) *wcd.WorstCase {
	t.Helper()
	fn := func(s []float64) (float64, error) {
		vals, err := p.Eval(d, s, p.NominalTheta())
		if err != nil {
			return 0, err
		}
		return p.Specs[spec].Margin(vals[spec]), nil
	}
	wc, err := wcd.FindWorstCase(fn, p.NumStat(), wcd.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return wc
}

func TestBuildExactOnLinearProblem(t *testing.T) {
	p := linearProblem()
	d := []float64{0}
	wc := wcFor(t, p, d, 0)
	models, err := Build(p, d, []*wcd.WorstCase{wc}, [][]float64{{}}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 {
		t.Fatalf("models = %d (no mirror expected for a linear margin)", len(models))
	}
	m := models[0]
	// Exact reproduction at arbitrary points.
	for _, tc := range []struct {
		d, s []float64
	}{
		{[]float64{2}, []float64{1, 1}},
		{[]float64{-3}, []float64{0.5, -2}},
		{[]float64{0}, []float64{0, 0}},
	} {
		want := 1 + 2*tc.s[0] - tc.s[1] + 0.5*tc.d[0]
		if got := m.Margin(tc.d, tc.s); math.Abs(got-want) > 1e-6 {
			t.Errorf("Margin(%v, %v) = %v want %v", tc.d, tc.s, got, want)
		}
	}
}

func TestBuildMirrorForQuadratic(t *testing.T) {
	p := &problem.Problem{
		Name:      "quad",
		Specs:     []problem.Spec{{Name: "m", Kind: problem.GE, Bound: 0}},
		Design:    []problem.Param{{Name: "d0", Init: 1, Lo: 0.5, Hi: 2}},
		StatNames: []string{"s0", "s1"},
		Eval: func(d, s, th []float64) ([]float64, error) {
			diff := s[0] - s[1]
			return []float64{d[0] - 0.25*diff*diff}, nil
		},
	}
	d := []float64{1}
	wc := wcFor(t, p, d, 0)
	models, err := Build(p, d, []*wcd.WorstCase{wc}, [][]float64{{}}, BuildOptions{MirrorSpecs: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 {
		t.Fatalf("models = %d want base + mirror", len(models))
	}
	if !models[1].Mirror {
		t.Error("second model should be the mirror")
	}
	// Mirror point is the negated worst-case point with negated gradient.
	for i := range models[0].S {
		if math.Abs(models[1].S[i]+models[0].S[i]) > 1e-9 {
			t.Error("mirror S != -S")
		}
		if math.Abs(models[1].GradS[i]+models[0].GradS[i]) > 1e-9 {
			t.Error("mirror GradS != -GradS")
		}
	}
}

func TestBuildAtNominalRejectsMirror(t *testing.T) {
	p := linearProblem()
	d := []float64{0}
	wc := wcFor(t, p, d, 0)
	if _, err := Build(p, d, []*wcd.WorstCase{wc}, [][]float64{{}},
		BuildOptions{MirrorSpecs: true, AtNominal: true}); err == nil {
		t.Error("mirror+nominal must be rejected")
	}
}

func TestBuildAtNominalLinearization(t *testing.T) {
	p := linearProblem()
	d := []float64{0}
	wc := wcFor(t, p, d, 0)
	models, err := Build(p, d, []*wcd.WorstCase{wc}, [][]float64{{}}, BuildOptions{AtNominal: true})
	if err != nil {
		t.Fatal(err)
	}
	m := models[0]
	if m.S.Norm2() != 0 {
		t.Error("nominal model must linearize at s = 0")
	}
	if math.Abs(m.Margin0-1) > 1e-9 {
		t.Errorf("Margin0 = %v want 1", m.Margin0)
	}
}

// The estimator must agree with the analytic yield for one linear spec:
// margin = 1 + 2·s0 − s1 has sigma √5, so Y = Φ(1/√5) ≈ 0.6726.
func TestEstimatorMatchesAnalyticYield(t *testing.T) {
	p := linearProblem()
	d := []float64{0}
	wc := wcFor(t, p, d, 0)
	models, err := Build(p, d, []*wcd.WorstCase{wc}, [][]float64{{}}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(models, 2, 60000, rng.New(12))
	want := stat.NormalCDF(1 / math.Sqrt(5))
	if got := est.Yield(d); math.Abs(got-want) > 0.01 {
		t.Errorf("yield = %v want %v", got, want)
	}
	// Shifting the design by the linear term moves the yield accordingly:
	// margin becomes 1 + 0.5·4 = 3 → Y = Φ(3/√5).
	want2 := stat.NormalCDF(3 / math.Sqrt(5))
	if got := est.Yield([]float64{4}); math.Abs(got-want2) > 0.01 {
		t.Errorf("shifted yield = %v want %v", got, want2)
	}
}

func TestEstimatorCountsBadPerSpec(t *testing.T) {
	models := []*SpecModel{
		{Spec: 0, S: linalg.NewVector(1), Df: linalg.NewVector(1),
			Margin0: -1, GradS: linalg.Vector{0}, GradD: linalg.Vector{0}},
		{Spec: 1, S: linalg.NewVector(1), Df: linalg.NewVector(1),
			Margin0: 1, GradS: linalg.Vector{0}, GradD: linalg.Vector{0}},
	}
	est := NewEstimator(models, 1, 100, rng.New(1))
	pass, bad := est.Count([]float64{0})
	if pass != 0 {
		t.Errorf("pass = %d want 0 (spec 0 always fails)", pass)
	}
	if bad[0] != 100 || bad[1] != 0 {
		t.Errorf("bad = %v", bad)
	}
}

// A sample failing both a spec's base and its mirror model is one bad
// sample for that spec, so the per-spec rate never exceeds 1000‰.
func TestEstimatorCountsMirrorPairOnce(t *testing.T) {
	base := &SpecModel{Spec: 0, S: linalg.Vector{1}, Df: linalg.NewVector(1),
		Margin0: 0, GradS: linalg.Vector{1}, GradD: linalg.Vector{0}}
	mirror := &SpecModel{Spec: 0, Mirror: true, S: linalg.Vector{-1}, Df: linalg.NewVector(1),
		Margin0: 0, GradS: linalg.Vector{-1}, GradD: linalg.Vector{0}}
	other := &SpecModel{Spec: 1, S: linalg.NewVector(1), Df: linalg.NewVector(1),
		Margin0: 1, GradS: linalg.Vector{0}, GradD: linalg.Vector{0}}
	est := NewEstimator([]*SpecModel{base, other, mirror}, 1, 200, rng.New(3))
	// At d = 5 every margin drops by 5 through the design term, so each
	// sample fails both halves of the spec-0 pair (s − 1 − 5 and
	// −s − 1 − 5 are both negative for |s| < 6) and spec 1 (1 − 5 < 0).
	for _, m := range []*SpecModel{base, mirror, other} {
		m.GradD[0] = -1
	}
	pass, bad := est.Count([]float64{5})
	if pass != 0 {
		t.Errorf("pass = %d want 0", pass)
	}
	if bad[0] != est.N || bad[1] != est.N {
		t.Errorf("bad = %v want %d for each spec", bad, est.N)
	}
}

// Property: Coordinate's α=0 data reproduces Count.
func TestCoordinateConsistencyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nStat, nDesign := 4, 3
		var models []*SpecModel
		for m := 0; m < 3; m++ {
			gs := make([]float64, nStat)
			gd := make([]float64, nDesign)
			s := make([]float64, nStat)
			r.NormVector(gs)
			r.NormVector(gd)
			r.NormVector(s)
			models = append(models, &SpecModel{
				Spec: m, S: s, Df: make([]float64, nDesign),
				Margin0: r.NormFloat64(), GradS: gs, GradD: gd,
			})
		}
		est := NewEstimator(models, nStat, 500, rng.New(seed^0xff))
		d := []float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		pass, _ := est.Count(d)
		var cd CoordinateData
		est.Coordinate(&cd, d, 1)
		count := 0
		for j := 0; j < est.N; j++ {
			ok := true
			for m := range cd.G {
				if cd.C[m][j] < 0 {
					ok = false
					break
				}
			}
			if ok {
				count++
			}
		}
		return count == pass
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestConsistencyGuardFallsBackToNominal(t *testing.T) {
	// A margin with a cliff: fine near the origin, collapsed beyond
	// radius 2. A worst-case search that lands on the cliff produces an
	// inconsistent model; Build must fall back to the nominal-point
	// linearization (S = 0).
	p := &problem.Problem{
		Name:      "cliff",
		Specs:     []problem.Spec{{Name: "m", Kind: problem.GE, Bound: 0}},
		Design:    []problem.Param{{Name: "d0", Init: 0, Lo: -1, Hi: 1}},
		StatNames: []string{"s0"},
		Eval: func(d, s, th []float64) ([]float64, error) {
			if math.Abs(s[0]) > 2 {
				return []float64{-500}, nil
			}
			return []float64{5 + 0.01*s[0]}, nil
		},
	}
	d := []float64{0}
	// Construct a deliberately cliff-contaminated worst case.
	wc := &wcd.WorstCase{
		S:             linalg.Vector{2.5},
		GradS:         linalg.Vector{-5000},
		Beta:          2.5,
		MarginNominal: 5,
		MarginWc:      -500,
	}
	models, err := Build(p, d, []*wcd.WorstCase{wc}, [][]float64{{}}, BuildOptions{MirrorSpecs: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 {
		t.Fatalf("models = %d", len(models))
	}
	if models[0].S.Norm2() != 0 {
		t.Error("guard did not fall back to the nominal point")
	}
	if math.Abs(models[0].Margin0-5) > 0.1 {
		t.Errorf("fallback Margin0 = %v want ≈5", models[0].Margin0)
	}
}

func TestEstimatorLHSAccuracy(t *testing.T) {
	p := linearProblem()
	d := []float64{0}
	wc := wcFor(t, p, d, 0)
	models, err := Build(p, d, []*wcd.WorstCase{wc}, [][]float64{{}}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := stat.NormalCDF(1 / math.Sqrt(5))
	est := NewEstimatorLHS(models, 2, 4000, rng.New(3))
	if got := est.Yield(d); math.Abs(got-want) > 0.02 {
		t.Errorf("LHS yield = %v want %v", got, want)
	}
}

// LHS must cut the seed-to-seed variance of the estimate versus plain MC
// at the same sample count.
func TestEstimatorLHSVarianceReduction(t *testing.T) {
	p := linearProblem()
	d := []float64{0}
	wc := wcFor(t, p, d, 0)
	models, err := Build(p, d, []*wcd.WorstCase{wc}, [][]float64{{}}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const n, reps = 400, 40
	variance := func(lhs bool) float64 {
		var m stat.Moments
		for seed := uint64(1); seed <= reps; seed++ {
			var e *Estimator
			if lhs {
				e = NewEstimatorLHS(models, 2, n, rng.New(seed))
			} else {
				e = NewEstimator(models, 2, n, rng.New(seed))
			}
			m.Add(e.Yield(d))
		}
		return m.Variance()
	}
	vMC := variance(false)
	vLHS := variance(true)
	if vLHS >= vMC/2 {
		t.Errorf("LHS variance %v vs MC %v; expected a clear reduction", vLHS, vMC)
	}
}

// The radial-quadratic model must reproduce a pure quadratic valley
// exactly at the three fit points and closely in between.
func TestQuadraticSpecModel(t *testing.T) {
	p := &problem.Problem{
		Name:      "quad",
		Specs:     []problem.Spec{{Name: "m", Kind: problem.GE, Bound: 0}},
		Design:    []problem.Param{{Name: "d0", Init: 1, Lo: 0.5, Hi: 2}},
		StatNames: []string{"s0", "s1"},
		Eval: func(d, s, th []float64) ([]float64, error) {
			diff := s[0] - s[1]
			return []float64{d[0] - 0.25*diff*diff}, nil
		},
	}
	d := []float64{1}
	wc := wcFor(t, p, d, 0)
	models, err := Build(p, d, []*wcd.WorstCase{wc}, [][]float64{{}},
		BuildOptions{MirrorSpecs: true, QuadraticSpecs: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || !models[0].Quad {
		t.Fatalf("expected one quadratic model, got %d (quad=%v)", len(models), models[0].Quad)
	}
	m := models[0]
	// Check the model against the truth at points along the ray and off it.
	truth := func(s []float64) float64 {
		diff := s[0] - s[1]
		return 1 - 0.25*diff*diff
	}
	for _, scale := range []float64{-1.5, -1, -0.5, 0, 0.5, 1, 1.5} {
		s := []float64{wc.S[0] * scale, wc.S[1] * scale}
		if got, want := m.Margin(d, s), truth(s); math.Abs(got-want) > 0.05 {
			t.Errorf("ray point %v: model %v truth %v", scale, got, want)
		}
	}
	// The estimator through SMargin must match the analytic yield:
	// P(d0 >= 0.25(s0−s1)²) = P(|z| <= sqrt(2·d0)/...) with s0−s1~N(0,2):
	// P((s0−s1)² <= 4) = P(|u| <= 2, u~N(0,2)) = 2Φ(√2)−1 ≈ 0.8427.
	est := NewEstimator(models, 2, 40000, rng.New(4))
	want := 2*stat.NormalCDF(math.Sqrt2) - 1
	if got := est.Yield(d); math.Abs(got-want) > 0.01 {
		t.Errorf("quad-model yield = %v want %v", got, want)
	}
}
