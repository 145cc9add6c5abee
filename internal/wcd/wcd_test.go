package wcd

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"specwise/internal/problem"
	"specwise/internal/sched"
)

// linear margin m(s) = m0 + g·s has its worst-case point at
// s_wc = −m0·g/‖g‖² and β = |m0|/‖g‖ (signed by m0).
func TestFindWorstCaseLinear(t *testing.T) {
	g := []float64{3, 4} // ‖g‖ = 5
	m0 := 2.0
	m := func(s []float64) (float64, error) {
		v := m0
		for i := range s {
			v += g[i] * s[i]
		}
		return v, nil
	}
	wc, err := FindWorstCase(m, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !wc.Converged {
		t.Error("linear search must converge")
	}
	if math.Abs(wc.Beta-0.4) > 1e-3 {
		t.Errorf("beta = %v want 0.4", wc.Beta)
	}
	// s_wc = −0.4·(3/5, 4/5) = (−0.24, −0.32)
	if math.Abs(wc.S[0]+0.24) > 1e-3 || math.Abs(wc.S[1]+0.32) > 1e-3 {
		t.Errorf("s_wc = %v", wc.S)
	}
	if math.Abs(wc.MarginWc) > 1e-3 {
		t.Errorf("boundary margin = %v", wc.MarginWc)
	}
}

func TestFindWorstCaseViolatedNominal(t *testing.T) {
	// Failing nominal: m(0) = −1, gradient 2 → boundary at s = 0.5, β = −0.5.
	m := func(s []float64) (float64, error) { return -1 + 2*s[0], nil }
	wc, err := FindWorstCase(m, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if wc.Beta >= 0 {
		t.Errorf("beta = %v must be negative for a failing nominal", wc.Beta)
	}
	if math.Abs(wc.Beta+0.5) > 1e-3 {
		t.Errorf("beta = %v want -0.5", wc.Beta)
	}
}

func TestFindWorstCaseNonlinear(t *testing.T) {
	// m(s) = 4 − s1² − (s2−1)²·0 … use a curved boundary:
	// m(s) = 2 − s1 − 0.2·s1² − 0.5·s2. Boundary nontrivial; check the
	// returned point actually lies on it and is locally norm-minimal
	// versus axis perturbations along the boundary.
	m := func(s []float64) (float64, error) {
		return 2 - s[0] - 0.2*s[0]*s[0] - 0.5*s[1], nil
	}
	wc, err := FindWorstCase(m, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !wc.Converged {
		t.Fatal("did not converge")
	}
	if v, _ := m(wc.S); math.Abs(v) > 1e-3 {
		t.Errorf("not on boundary: margin %v", v)
	}
	if wc.Beta <= 0 {
		t.Errorf("beta = %v must be positive", wc.Beta)
	}
	// The worst-case point must be no farther than a reference boundary
	// point found by a crude scan along the gradient direction.
	ref := []float64{1.2, 1.0}
	refNorm := math.Hypot(ref[0], ref[1])
	for v, _ := m(ref); v > 0; v, _ = m(ref) {
		ref[0] += 0.01
		ref[1] += 0.01
		refNorm = math.Hypot(ref[0], ref[1])
	}
	if wc.Beta > refNorm+1e-6 {
		t.Errorf("beta %v exceeds reference boundary distance %v", wc.Beta, refNorm)
	}
}

func TestFindWorstCaseInsensitive(t *testing.T) {
	m := func(s []float64) (float64, error) { return 5, nil } // constant
	wc, err := FindWorstCase(m, 3, Options{MaxRadius: 8})
	if err != nil {
		t.Fatal(err)
	}
	if wc.Converged {
		t.Error("constant margin cannot converge to a boundary")
	}
	if wc.Beta != 8 {
		t.Errorf("beta = %v want clamp 8", wc.Beta)
	}
}

func TestFindWorstCaseQuadraticBowl(t *testing.T) {
	// CMRR-like symmetric performance: m = 1 − (s1−s2)²/4. Boundary at
	// |s1−s2| = 2; nearest points are (1,−1) and (−1,1), both with β = √2.
	m := func(s []float64) (float64, error) {
		d := s[0] - s[1]
		return 1 - d*d/4, nil
	}
	wc, err := FindWorstCase(m, 2, Options{MaxIter: 60, Damping: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := m(wc.S); math.Abs(v) > 5e-3 {
		t.Errorf("not on boundary: %v (s=%v)", v, wc.S)
	}
	if math.Abs(wc.Beta-math.Sqrt2) > 0.15 {
		t.Errorf("beta = %v want √2", wc.Beta)
	}
	// Mismatch signature: components equal magnitude, opposite sign.
	if math.Abs(wc.S[0]+wc.S[1]) > 0.1 {
		t.Errorf("worst-case point not on the mismatch line: %v", wc.S)
	}
}

// Property: for random linear margins, β = |m0|/‖g‖ exactly.
func TestWorstCaseLinearProperty(t *testing.T) {
	f := func(m0raw, g1raw, g2raw, g3raw float64) bool {
		m0 := math.Mod(m0raw, 5)
		g := []float64{math.Mod(g1raw, 3), math.Mod(g2raw, 3), math.Mod(g3raw, 3)}
		norm := math.Sqrt(g[0]*g[0] + g[1]*g[1] + g[2]*g[2])
		if norm < 0.1 || math.IsNaN(m0) || math.IsNaN(norm) {
			return true
		}
		m := func(s []float64) (float64, error) {
			v := m0
			for i := range s {
				v += g[i] * s[i]
			}
			return v, nil
		}
		wc, err := FindWorstCase(m, 3, Options{MaxRadius: 100})
		if err != nil {
			return false
		}
		want := m0 / norm
		if m0 < 0 {
			want = m0 / norm
		}
		return math.Abs(wc.Beta-want) < 1e-2*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestWorstCaseTheta(t *testing.T) {
	// Performance f = θ1 − θ2 with spec f >= 0: worst corner is
	// (θ1 = Lo, θ2 = Hi).
	p := &problem.Problem{
		Name:  "analytic",
		Specs: []problem.Spec{{Name: "f", Kind: problem.GE, Bound: 0}},
		Theta: []problem.OpRange{
			{Name: "t1", Nominal: 0.5, Lo: 0, Hi: 1},
			{Name: "t2", Nominal: 0.5, Lo: 0, Hi: 1},
		},
		StatNames: []string{"s1"},
		Eval: func(d, s, th []float64) ([]float64, error) {
			return []float64{th[0] - th[1]}, nil
		},
	}
	res, err := WorstCaseTheta(p, nil, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	th := res.PerSpec[0]
	if th[0] != 0 || th[1] != 1 {
		t.Errorf("worst-case theta = %v want [0 1]", th)
	}
	if res.Margins[0] != -1 {
		t.Errorf("worst margin = %v want -1", res.Margins[0])
	}
	if res.Evals != 5 { // 4 corners + nominal
		t.Errorf("evals = %d want 5", res.Evals)
	}
}

func TestDistinctThetas(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{1, 3}
	unique, wants := DistinctThetas([][]float64{a, b, a, a})
	if !reflect.DeepEqual(unique, [][]float64{a, b}) {
		t.Fatalf("unique = %v want [%v %v]", unique, a, b)
	}
	if want := [][]bool{{true, false, true, true}, {false, true, false, false}}; !reflect.DeepEqual(wants, want) {
		t.Errorf("masks = %v want %v", wants, want)
	}
}

func TestEnumerateCornersEmpty(t *testing.T) {
	c := Corners(nil)
	if len(c) != 1 || len(c[0]) != 0 {
		t.Errorf("empty enumeration = %v", c)
	}
}

// A margin that collapses to a dead plateau beyond a cliff: the nominal
// passes, the plateau fails with zero gradient. The search must recover
// the true boundary by bisection along the ray.
func TestWorstCaseBisectionRecovery(t *testing.T) {
	m := func(s []float64) (float64, error) {
		r := math.Hypot(s[0], s[1])
		if r > 2 {
			return -50, nil // dead plateau: constant, failing
		}
		return 1 - 0.2*r, nil // gentle slope, boundary never reached before the cliff
	}
	wc, err := FindWorstCase(m, 2, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// The true failure boundary is the cliff at r = 2 (margin jumps from
	// +0.6 to −50); bisection must land close to it.
	if wc.Beta < 1.5 || wc.Beta > 2.6 {
		t.Errorf("beta = %v want ≈2 (the cliff)", wc.Beta)
	}
	if v, _ := m(wc.S); v < -1 && !wc.Converged {
		t.Errorf("landed deep in the dead plateau: margin %v", v)
	}
}

// NaN regions (broken circuits) must not poison the search: the margin is
// NaN beyond radius 3, with a genuine boundary at radius 2.
func TestWorstCaseNaNRegion(t *testing.T) {
	m := func(s []float64) (float64, error) {
		r := math.Hypot(s[0], s[1])
		if r > 3 {
			return math.NaN(), nil
		}
		return 2 - s[0], nil // boundary at s0 = 2
	}
	wc, err := FindWorstCase(m, 2, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(wc.Beta-2) > 0.2 {
		t.Errorf("beta = %v want 2", wc.Beta)
	}
	if math.IsNaN(wc.MarginWc) || math.IsNaN(wc.GradS[0]) {
		t.Error("NaN leaked into the result")
	}
}

// A margin NaN everywhere except a small pocket around the origin: the
// search cannot cross the boundary and must return a clamped result
// rather than error or NaN.
func TestWorstCaseMostlyBrokenRegion(t *testing.T) {
	m := func(s []float64) (float64, error) {
		r := math.Hypot(s[0], s[1])
		if r > 0.5 {
			return math.NaN(), nil
		}
		return 5 + 0.01*s[0], nil
	}
	wc, err := FindWorstCase(m, 2, Options{Seed: 8, MaxIter: 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(wc.Beta) {
		t.Error("beta is NaN")
	}
	if wc.Beta < 0 {
		t.Errorf("nominal passes; beta must be positive, got %v", wc.Beta)
	}
}

// A spec whose worst operating point is strictly inside the range: corner
// enumeration misses it, the golden-section refinement must find it.
func TestRefineThetaInteriorMinimum(t *testing.T) {
	p := &problem.Problem{
		Name:      "interior",
		Specs:     []problem.Spec{{Name: "pm", Kind: problem.GE, Bound: 0}},
		Theta:     []problem.OpRange{{Name: "t", Nominal: 0, Lo: -1, Hi: 1}},
		StatNames: []string{"s"},
		Eval: func(d, s, th []float64) ([]float64, error) {
			x := th[0] - 0.6
			return []float64{2*x*x - 0.5}, nil
		},
	}
	res, err := WorstCaseTheta(p, nil, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	// Corner +1 gives 2·0.16−0.5 = −0.18; nominal 0 gives +0.22; the true
	// interior minimum at θ = 0.6 is −0.5 and unseen by enumeration.
	if res.Margins[0] < -0.2 {
		t.Fatalf("corner enumeration found the interior minimum by accident: %v", res.Margins[0])
	}
	if err := RefineTheta(p, nil, []float64{0}, res, 2); err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PerSpec[0][0]-0.6) > 0.05 {
		t.Errorf("refined theta = %v want 0.6", res.PerSpec[0][0])
	}
	if math.Abs(res.Margins[0]+0.5) > 0.01 {
		t.Errorf("refined margin = %v want -0.5", res.Margins[0])
	}
}

// Refinement must never make the worst case better (less worst).
func TestRefineThetaMonotone(t *testing.T) {
	p := &problem.Problem{
		Name:      "mono",
		Specs:     []problem.Spec{{Name: "f", Kind: problem.GE, Bound: 0}},
		Theta:     []problem.OpRange{{Name: "t", Nominal: 0, Lo: -1, Hi: 1}},
		StatNames: []string{"s"},
		Eval: func(d, s, th []float64) ([]float64, error) {
			return []float64{1 + th[0]}, nil // worst at the corner already
		},
	}
	res, err := WorstCaseTheta(p, nil, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	before := res.Margins[0]
	if err := RefineTheta(p, nil, []float64{0}, res, 1); err != nil {
		t.Fatal(err)
	}
	if res.Margins[0] > before {
		t.Errorf("refinement worsened the worst case: %v -> %v", before, res.Margins[0])
	}
}

// searchProblem has three specs of different shape over two statistical
// parameters and one operating parameter; spec 2 panics when panicAt is
// reached along its first statistical axis.
func searchProblem(panicAt float64) *problem.Problem {
	return &problem.Problem{
		Name: "search",
		Specs: []problem.Spec{
			{Name: "lin", Kind: problem.GE},
			{Name: "quad", Kind: problem.GE},
			{Name: "tilt", Kind: problem.LE, Bound: 1},
		},
		Theta:     []problem.OpRange{{Name: "t", Nominal: 0, Lo: -0.5, Hi: 0.5}},
		StatNames: []string{"a", "b"},
		Eval: func(d, s, th []float64) ([]float64, error) {
			if s[0] >= panicAt {
				panic("search: boom")
			}
			return []float64{
				2 + s[0] - 0.5*s[1] + th[0],
				3 - (s[0]-s[1])*(s[0]-s[1]),
				0.3*s[0] + 0.4*s[1] - th[0],
			}, nil
		},
	}
}

// withSlots runs f twice: once with every scheduler slot held, so the
// searches run one after another on the caller, and once with the slots
// free, so they run as pooled workers.
func withSlots(t *testing.T, f func(t *testing.T)) {
	t.Run("held", func(t *testing.T) {
		release := sched.Default().HoldAll()
		defer release()
		f(t)
	})
	t.Run("free", f)
}

// SearchAll must return exactly what serial SearchSpec calls with the
// same per-spec seeds return.
func TestSearchAllMatchesSerial(t *testing.T) {
	p := searchProblem(math.Inf(1))
	thetas := [][]float64{{-0.5}, {0}, {0.5}}
	seed := func(i int) uint64 { return 40 + uint64(i)*1000003 }
	withSlots(t, func(t *testing.T) {
		got, err := SearchAll(context.Background(), p, nil, thetas, Options{MaxIter: 20}, seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := range p.Specs {
			want, err := SearchSpec(context.Background(), p, nil, thetas[i], i, Options{MaxIter: 20, Seed: seed(i)})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("spec %d: SearchAll %+v, serial %+v", i, got[i], want)
			}
		}
		if b := got[0].Beta; math.Abs(b-1.5/math.Sqrt(1.25)) > 1e-3 {
			t.Errorf("lin beta = %v, want %v", b, 1.5/math.Sqrt(1.25))
		}
	})
}

// A panicking search is re-raised on the caller's goroutine, after every
// search has returned, so a recover around SearchAll catches it.
func TestSearchAllRelaysPanic(t *testing.T) {
	p := searchProblem(0.5)
	thetas := [][]float64{{0}, {0}, {0}}
	withSlots(t, func(t *testing.T) {
		defer func() {
			r := recover()
			if s, _ := r.(string); !strings.Contains(s, "boom") {
				t.Fatalf("recovered %v, want the search's panic", r)
			}
		}()
		SearchAll(context.Background(), p, nil, thetas, Options{}, func(i int) uint64 { return uint64(i) })
		t.Fatal("SearchAll returned instead of panicking")
	})
}

func TestSearchAllCancelled(t *testing.T) {
	p := searchProblem(math.Inf(1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SearchAll(ctx, p, nil, [][]float64{{0}, {0}, {0}}, Options{}, func(i int) uint64 { return 1 })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestWorstCaseThetaRejectsBadPoint(t *testing.T) {
	p := searchProblem(math.Inf(1))
	p.Design = []problem.Param{{Name: "w", Init: 1, Lo: 0, Hi: 2}}
	if _, err := WorstCaseTheta(p, nil, []float64{0, 0}); err == nil {
		t.Error("short design vector accepted")
	}
	if _, err := WorstCaseTheta(p, []float64{1}, []float64{0}); err == nil {
		t.Error("short statistical vector accepted")
	}
	if _, err := WorstCaseTheta(p, []float64{1}, []float64{0, 0}); err != nil {
		t.Error(err)
	}
}

// A negative start count leaves no search to pick from; it is an error,
// not a nil dereference.
func TestFindWorstCaseRejectsNegativeStarts(t *testing.T) {
	m := func(s []float64) (float64, error) { return 1 + s[0], nil }
	wc, err := FindWorstCase(m, 1, Options{Starts: -1})
	if err == nil || !strings.Contains(err.Error(), "Starts") {
		t.Fatalf("FindWorstCase(Starts: -1) = %+v, %v; want an error naming Starts", wc, err)
	}
}

// Negative MaxRadius, Damping and Tol are refused after defaults(), as
// Starts is. On the margin 1 + s₀ over two parameters (β = 1 at
// s_wc = (−1, 0), found in 18 evaluations with the defaults) they used
// to return wrong worst cases without an error; each row records what
// came back.
func TestFindWorstCaseRejectsNegativeOptions(t *testing.T) {
	m := func(s []float64) (float64, error) { return 1 + s[0], nil }
	for _, tc := range []struct {
		field string
		opts  Options
		was   string
	}{
		{"MaxRadius", Options{MaxRadius: -1}, "s = (1, 0), a passing point, reported as β = 1"},
		{"Damping", Options{Damping: -1}, "β = 6, clamped and unconverged"},
		{"Tol", Options{Tol: -1}, "never converged, 144 evaluations instead of 18"},
	} {
		wc, err := FindWorstCase(m, 2, tc.opts)
		if err == nil || err.Error() != "wcd: "+tc.field+" must not be negative" {
			t.Errorf("%s: FindWorstCase(%+v) = %+v, %v; want an error naming %s (it used to give %s)",
				tc.field, tc.opts, wc, err, tc.field, tc.was)
		}
	}
	wc, err := FindWorstCase(m, 2, Options{})
	if err != nil || wc.Beta != 1 || wc.Evals != 18 {
		t.Fatalf("defaults: %+v, %v; want β = 1 in 18 evaluations", wc, err)
	}
}
