package coord

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"specwise/internal/linmodel"
	"specwise/internal/rng"
	"specwise/internal/sched"
)

// oneModelEstimator builds an estimator with a single linear model
// margin(d, s) = margin0 + gs·s + gd·(d − 0).
func oneModelEstimator(margin0 float64, gs, gd []float64, n int, seed uint64) *linmodel.Estimator {
	m := &linmodel.SpecModel{
		Spec:    0,
		S:       make([]float64, len(gs)),
		Df:      make([]float64, len(gd)),
		GradS:   append([]float64(nil), gs...),
		GradD:   append([]float64(nil), gd...),
		Margin0: margin0,
	}
	return linmodel.NewEstimator([]*linmodel.SpecModel{m}, len(gs), n, rng.New(seed))
}

func TestLinearConstraintsMargin(t *testing.T) {
	lc := &LinearConstraints{
		Df: []float64{1, 2},
		C0: []float64{3},
		J:  [][]float64{{1, -1}},
	}
	if got := lc.Margin(0, []float64{1, 2}); got != 3 {
		t.Errorf("margin at Df = %v", got)
	}
	if got := lc.Margin(0, []float64{2, 2}); got != 4 {
		t.Errorf("margin = %v want 4", got)
	}
}

func TestAlphaIntervalBoxOnly(t *testing.T) {
	box := Box{Lo: []float64{0}, Hi: []float64{10}}
	var lc *LinearConstraints
	lo, hi := lc.AlphaInterval(box, []float64{4}, 0)
	if lo != -4 || hi != 6 {
		t.Errorf("interval = [%v, %v]", lo, hi)
	}
}

func TestAlphaIntervalWithConstraints(t *testing.T) {
	box := Box{Lo: []float64{-10}, Hi: []float64{10}}
	// Constraint 5 − d0 >= 0 → α <= 5 − d0.
	lc := &LinearConstraints{Df: []float64{0}, C0: []float64{5}, J: [][]float64{{-1}}}
	lo, hi := lc.AlphaInterval(box, []float64{0}, 0)
	if hi != 5 || lo != -10 {
		t.Errorf("interval = [%v, %v]", lo, hi)
	}
	// Violated, axis-insensitive constraint blocks the whole segment.
	lc2 := &LinearConstraints{Df: []float64{0}, C0: []float64{-1}, J: [][]float64{{0}}}
	lo, hi = lc2.AlphaInterval(box, []float64{0}, 0)
	if lo <= hi {
		t.Error("violated insensitive constraint must produce an empty interval")
	}
}

func TestSearchMovesToFeasibleYield(t *testing.T) {
	// margin = −2 + 1·d0 + small noise from s: optimum pushes d0 up.
	est := oneModelEstimator(-2, []float64{0.3}, []float64{1}, 3000, 4)
	box := Box{Lo: []float64{-5}, Hi: []float64{5}}
	res := Search(box, est, nil, []float64{0}, Options{TrustFactor: 1e12, TrustFrac: 1})
	if !res.Moved {
		t.Fatal("search did not move")
	}
	if res.D[0] < 2 {
		t.Errorf("d0 = %v want well above 2", res.D[0])
	}
	if res.Yield < 0.99 {
		t.Errorf("yield = %v", res.Yield)
	}
}

func TestSearchRespectsConstraints(t *testing.T) {
	est := oneModelEstimator(-2, []float64{0.1}, []float64{1}, 2000, 5)
	box := Box{Lo: []float64{-5}, Hi: []float64{5}}
	// Linearized constraint caps d0 at 1: yield stays low but the search
	// must not cross.
	lc := &LinearConstraints{Df: []float64{0}, C0: []float64{1}, J: [][]float64{{-1}}}
	res := Search(box, est, lc, []float64{0}, Options{TrustFactor: 1e12, TrustFrac: 1})
	if res.D[0] > 1+1e-9 {
		t.Errorf("d0 = %v crossed the constraint", res.D[0])
	}
}

func TestSearchTrustRegionLimitsMove(t *testing.T) {
	est := oneModelEstimator(-50, []float64{0.1}, []float64{1}, 1000, 6)
	box := Box{Lo: []float64{0.1}, Hi: []float64{1000}, Log: []bool{true}}
	res := Search(box, est, nil, []float64{1}, Options{TrustFactor: 2})
	if res.D[0] > 2+1e-9 {
		t.Errorf("log-scaled move %v exceeded trust factor 2", res.D[0])
	}
}

func TestSearchPlateauTieBreak(t *testing.T) {
	// Yield is ~0 everywhere reachable (margin = −30 + d0, box up to 8 with
	// the additive trust default), but the tie-break must still push d0 up
	// along the concave mean-min-margin surrogate.
	est := oneModelEstimator(-30, []float64{0.1}, []float64{1}, 500, 7)
	box := Box{Lo: []float64{-8}, Hi: []float64{8}}
	res := Search(box, est, nil, []float64{0}, Options{TrustFrac: 1, TrustFactor: 1e12})
	if res.D[0] < 7 {
		t.Errorf("tie-break should push d0 to the box edge, got %v", res.D[0])
	}
}

func TestBestAlphaExactness(t *testing.T) {
	// Hand-built coordinate data: 3 samples, 1 model, slope +1.
	// Sample margins at α=0: −2, −1, +1 → counts: α<−1:… best plateau
	// starts at α=2 (all three pass).
	cd := linmodel.CoordinateData{
		C:     [][]float64{{-2, -1, 1}},
		G:     []float64{1},
		Scale: []float64{1},
	}
	alpha, count := new(scratch).bestAlpha(cd, -10, 10, 3)
	if count != 3 {
		t.Fatalf("count = %d", count)
	}
	if alpha < 2 {
		t.Errorf("alpha = %v want >= 2", alpha)
	}
	// With a negative slope the best plateau is below −1 … wait margins
	// fall with α; passing requires α <= min margin/1: count 3 for
	// α <= −1… verify symmetric case.
	cd2 := linmodel.CoordinateData{
		C:     [][]float64{{2, 1, -1}},
		G:     []float64{-1},
		Scale: []float64{1},
	}
	alpha2, count2 := new(scratch).bestAlpha(cd2, -10, 10, 3)
	if count2 != 3 {
		t.Fatalf("count2 = %d", count2)
	}
	if alpha2 > -1 {
		t.Errorf("alpha2 = %v want <= -1", alpha2)
	}
}

func TestBestAlphaPrefersZeroInsidePlateau(t *testing.T) {
	cd := linmodel.CoordinateData{
		C:     [][]float64{{1, 1}},
		G:     []float64{0.1},
		Scale: []float64{1},
	}
	alpha, count := new(scratch).bestAlpha(cd, -5, 5, 2)
	if count != 2 || alpha != 0 {
		t.Errorf("alpha = %v count = %d; zero move preferred", alpha, count)
	}
}

// Property: countAt at the α returned by bestAlpha matches its count.
func TestBestAlphaCountConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 50
		cd := linmodel.CoordinateData{
			C:     [][]float64{make([]float64, n), make([]float64, n)},
			G:     []float64{r.NormFloat64(), r.NormFloat64()},
			Scale: []float64{1, 1},
		}
		for j := 0; j < n; j++ {
			cd.C[0][j] = r.NormFloat64()
			cd.C[1][j] = r.NormFloat64()
		}
		alpha, count := new(scratch).bestAlpha(cd, -3, 3, n)
		actual := countAt(cd, alpha, n)
		// The sweep reports the plateau count; the sampled point must
		// reach it (ties at boundaries may only help).
		return actual >= count-1 && math.Abs(alpha) <= 3+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTieBreakConcaveOptimum(t *testing.T) {
	// Two opposing specs: margins 1−α and 1+α (scaled equally): the
	// mean-min-margin peaks at α = 0.
	cd := linmodel.CoordinateData{
		C:     [][]float64{{1}, {1}},
		G:     []float64{-1, 1},
		Scale: []float64{1, 1},
	}
	if alpha := new(scratch).tieBreakAlpha(cd, -2, 2, 1); alpha != 0 {
		t.Errorf("alpha = %v want 0", alpha)
	}
	// Asymmetric: margins 1−0.5α and 1+2α peak where they cross:
	// 1−0.5α = 1+2α only at 0… with bounds [0.5, 2] the optimum is the
	// left edge; since obj(left) > obj(0)=1? min(1−0.25, 2)=0.75 < 1 →
	// returns 0 (no improvement).
	if alpha := new(scratch).tieBreakAlpha(cd, 0.5, 2, 1); alpha != 0 {
		t.Errorf("alpha = %v want 0 (no improvement available)", alpha)
	}
}

func TestGradientSearchStallsOnPlateau(t *testing.T) {
	// Yield is 0 for d0 < 10 and the box only reaches 8: the sampled
	// estimate is identically 0 and its finite-difference gradient
	// vanishes — gradient ascent must stall at the start while the
	// coordinate search's tie-break still moves.
	est := oneModelEstimator(-10, []float64{0.05}, []float64{1}, 800, 21)
	box := Box{Lo: []float64{-8}, Hi: []float64{8}}
	gres := GradientSearch(box, est, nil, []float64{0}, GradientOptions{})
	if gres.Moved {
		t.Errorf("gradient ascent moved on a zero plateau: d=%v", gres.D)
	}
	cres := Search(box, est, nil, []float64{0}, Options{TrustFrac: 1, TrustFactor: 1e12})
	if cres.D[0] < 7 {
		t.Errorf("coordinate search should escape the plateau, got %v", cres.D)
	}
}

func TestGradientSearchClimbsSmoothRegion(t *testing.T) {
	// With the bound inside the box and real statistical spread, the
	// yield rises smoothly with d0 and the ascent must follow it.
	est := oneModelEstimator(-1, []float64{1}, []float64{1}, 4000, 22)
	box := Box{Lo: []float64{-3}, Hi: []float64{6}}
	res := GradientSearch(box, est, nil, []float64{0}, GradientOptions{})
	if !res.Moved {
		t.Fatal("gradient ascent failed to move on a smooth slope")
	}
	if res.Yield < 0.95 {
		t.Errorf("gradient ascent yield = %v want > 0.95", res.Yield)
	}
}

func TestGradientSearchRespectsConstraints(t *testing.T) {
	est := oneModelEstimator(-1, []float64{1}, []float64{1}, 2000, 23)
	box := Box{Lo: []float64{-3}, Hi: []float64{6}}
	lc := &LinearConstraints{Df: []float64{0}, C0: []float64{1}, J: [][]float64{{-1}}}
	res := GradientSearch(box, est, lc, []float64{0}, GradientOptions{})
	if res.D[0] > 1+1e-9 {
		t.Errorf("gradient ascent crossed the constraint: %v", res.D[0])
	}
}

func TestMaxMinBetaCentersBetweenSpecs(t *testing.T) {
	// Two opposing specs: margins (d0 + 1 + s) and (3 − d0 + s), equal
	// sensitivities: the max-min-β center is d0 = 1.
	mk := func(margin0 float64, gd float64) *linmodel.SpecModel {
		return &linmodel.SpecModel{
			S: make([]float64, 1), Df: make([]float64, 1),
			Margin0: margin0,
			GradS:   []float64{1},
			GradD:   []float64{gd},
		}
	}
	models := []*linmodel.SpecModel{mk(1, 1), mk(3, -1)}
	est := linmodel.NewEstimator(models, 1, 2000, rng.New(31))
	box := Box{Lo: []float64{-10}, Hi: []float64{10}}
	res := MaxMinBeta(box, est, nil, []float64{-5}, Options{})
	if math.Abs(res.D[0]-1) > 0.05 {
		t.Errorf("center = %v want 1", res.D[0])
	}
	if !res.Moved {
		t.Error("centering did not move")
	}
}

// Correlation blindness: when two specs share the same statistical
// direction, the max-min-β centering and the sampled-yield search agree;
// when they are anti-correlated, the sampled estimate finds the higher
// true yield. This documents the paper's argument for direct yield
// optimization.
func TestMaxMinBetaVsYieldSearch(t *testing.T) {
	mk := func(margin0 float64, gs []float64, gd float64) *linmodel.SpecModel {
		return &linmodel.SpecModel{
			S: make([]float64, 2), Df: make([]float64, 1),
			Margin0: margin0,
			GradS:   gs,
			GradD:   []float64{gd},
		}
	}
	// Anti-correlated specs: a sample failing one is likely to pass the
	// other; the yield-optimal point is NOT the equal-beta point when the
	// design trades margins at different rates (gd +1 vs −2).
	models := []*linmodel.SpecModel{
		mk(1.0, []float64{1, 0}, 1),
		mk(2.0, []float64{-1, 0}, -2),
	}
	est := linmodel.NewEstimator(models, 2, 8000, rng.New(32))
	box := Box{Lo: []float64{-3}, Hi: []float64{3}}

	beta := MaxMinBeta(box, est, nil, []float64{0}, Options{})
	yield := Search(box, est, nil, []float64{0}, Options{TrustFrac: 1, TrustFactor: 1e12})
	if yield.Yield+1e-9 < beta.Yield {
		t.Errorf("yield search (%v) must not lose to beta centering (%v)", yield.Yield, beta.Yield)
	}
}

// TestTieBreakExactMaximizer cross-checks the subgradient maximizer
// against a fine grid scan of the concave mean-min-margin objective on
// random instances: the returned α must be at least as good as every
// grid point (up to float tolerance).
func TestTieBreakExactMaximizer(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nM, n := 3, 40
		cd := linmodel.CoordinateData{
			C:     make([][]float64, nM),
			G:     make([]float64, nM),
			Scale: make([]float64, nM),
		}
		for m := 0; m < nM; m++ {
			cd.C[m] = make([]float64, n)
			for j := 0; j < n; j++ {
				cd.C[m][j] = r.NormFloat64()
			}
			cd.G[m] = r.NormFloat64()
			cd.Scale[m] = 0.1 + r.Float64()
		}
		lo, hi := -2.0, 3.0
		alpha := new(scratch).tieBreakAlpha(cd, lo, hi, n)
		obj := func(a float64) float64 {
			total := 0.0
			for j := 0; j < n; j++ {
				minv := math.Inf(1)
				for m := 0; m < nM; m++ {
					if v := (cd.C[m][j] + cd.G[m]*a) * cd.Scale[m]; v < minv {
						minv = v
					}
				}
				total += minv
			}
			return total / float64(n)
		}
		got := obj(alpha)
		if alpha == 0 {
			// A zero return means no α beats the stay-put objective.
			got = obj(0)
		}
		for k := 0; k <= 2000; k++ {
			a := lo + (hi-lo)*float64(k)/2000
			if obj(a) > got+1e-9*(1+math.Abs(got)) {
				t.Logf("seed %d: alpha=%v obj=%v beaten at a=%v obj=%v", seed, alpha, got, a, obj(a))
				return false
			}
		}
		return math.Abs(alpha) <= math.Max(math.Abs(lo), math.Abs(hi))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// randomCoordinateData draws n samples over nM models with the shapes
// that stress the sweep: margins on a coarse grid (so interval endpoints
// and tie-break minima tie), zero and sub-threshold slopes, repeated
// slopes, and optionally a zero-slope model every sample fails.
func randomCoordinateData(r *rng.Rand, nM, n int, allFail bool) linmodel.CoordinateData {
	cd := linmodel.CoordinateData{
		C:     make([][]float64, nM),
		G:     make([]float64, nM),
		Scale: make([]float64, nM),
	}
	for m := 0; m < nM; m++ {
		switch r.Intn(5) {
		case 0:
			cd.G[m] = 0
		case 1:
			cd.G[m] = 1e-16
		case 2:
			cd.G[m] = float64(r.Intn(5) - 2) // repeated integer slopes
		default:
			cd.G[m] = r.NormFloat64()
		}
		cd.Scale[m] = float64(1 + r.Intn(3))
		cd.C[m] = make([]float64, n)
		for j := range cd.C[m] {
			cd.C[m][j] = float64(r.Intn(17)-6) / 4
		}
	}
	if allFail && nM > 0 {
		cd.G[0] = 0
		for j := range cd.C[0] {
			cd.C[0][j] = -1
		}
	}
	return cd
}

// TestBlockParallelMatchesSerialOracle pins bestAlpha and tieBreakAlpha
// to their single-threaded oracles, bit for bit, across sample counts
// around the block size, with the scheduler's slots free and held. It
// then pins every single tie-break evaluation to the former full scan
// (checkTieEvalSequences).
func TestBlockParallelMatchesSerialOracle(t *testing.T) {
	checkTieEvalSequences(t)
	r := rng.New(18)
	for _, n := range []int{0, 1, block - 1, block, block + 1, 10000} {
		for trial := 0; trial < 12; trial++ {
			nM := 1 + r.Intn(5)
			cd := randomCoordinateData(r, nM, n, trial%6 == 5)
			lo := float64(r.Intn(9)-6) / 2
			hi := lo + float64(r.Intn(9))/2 // includes lo == hi
			wantA, wantC := serialBestAlpha(cd, lo, hi, n)
			wantT := serialTieBreakAlpha(cd, lo, hi, n)
			for _, held := range []bool{false, true} {
				release := func() {}
				if held {
					release = sched.Default().HoldAll()
				}
				var w scratch
				gotA, gotC := w.bestAlpha(cd, lo, hi, n)
				gotT := w.tieBreakAlpha(cd, lo, hi, n)
				// A second call on the warm workspace must not see stale data.
				gotA2, gotC2 := w.bestAlpha(cd, lo, hi, n)
				release()
				if math.Float64bits(gotA) != math.Float64bits(wantA) || gotC != wantC ||
					math.Float64bits(gotA2) != math.Float64bits(wantA) || gotC2 != wantC {
					t.Fatalf("n=%d trial=%d held=%v: bestAlpha = (%v, %d), again (%v, %d); oracle (%v, %d)",
						n, trial, held, gotA, gotC, gotA2, gotC2, wantA, wantC)
				}
				if math.Float64bits(gotT) != math.Float64bits(wantT) {
					t.Fatalf("n=%d trial=%d held=%v: tieBreakAlpha = %v; oracle %v", n, trial, held, gotT, wantT)
				}
			}
		}
	}
}

// tieEvalData draws coordinate data in the shapes that stress the
// tie-break cache's certificates: exact ties on a coarse grid, duplicate
// lines, ±0 and 1e-16 slopes, NaN and ±Inf margins, and magnitudes near
// overflow or subnormal.
func tieEvalData(r *rng.Rand, shape, nM, n int) linmodel.CoordinateData {
	cd := randomCoordinateData(r, nM, n, false)
	switch shape {
	case 1: // duplicate lines: model 1 repeats model 0
		if nM > 1 {
			cd.G[1], cd.Scale[1] = cd.G[0], cd.Scale[0]
			copy(cd.C[1], cd.C[0])
		}
	case 2: // signed-zero and tiny slopes
		for m := range cd.G {
			cd.G[m] = []float64{0, math.Copysign(0, -1), 1e-16, -1e-16, 1, -1}[r.Intn(6)]
		}
	case 3: // NaN and ±Inf margins at some samples
		for m := range cd.C {
			for j := range cd.C[m] {
				if r.Intn(7) == 0 {
					cd.C[m][j] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(3)]
				}
			}
		}
	case 4: // near overflow: some certify, some exceed certMax
		for m := range cd.C {
			big := []float64{1e150, 1e290, 1e306}[r.Intn(3)]
			cd.Scale[m] *= []float64{1, 1e5}[r.Intn(2)]
			for j := range cd.C[m] {
				cd.C[m][j] *= big
			}
			cd.G[m] *= big
		}
	case 5: // subnormal margins, slopes and scales
		for m := range cd.C {
			tiny := []float64{1e-300, 1e-310, 5e-324}[r.Intn(3)]
			cd.Scale[m] = []float64{cd.Scale[m], 0.3, 1.7, 1e-10, 1e10}[r.Intn(5)]
			for j := range cd.C[m] {
				cd.C[m][j] *= tiny
			}
			cd.G[m] *= tiny
		}
	case 6: // smooth margins: long certified intervals, few crossings
		for m := range cd.C {
			cd.G[m] = r.NormFloat64()
			cd.Scale[m] = 0.1 + r.Float64()
			for j := range cd.C[m] {
				cd.C[m][j] = r.NormFloat64() - 1
			}
		}
	}
	return cd
}

// liveCertificates counts the samples whose cached interval is not empty.
func liveCertificates(te *tieEval) int {
	live := 0
	for j := range te.ilo {
		if te.ilo[j] <= te.ihi[j] {
			live++
		}
	}
	return live
}

// checkTieEvalSequences drives tieEval through query sequences a search
// makes and ones it does not, comparing every (f, F'₋, F'₊) bit for bit
// with serialTieEval: the bracket ends, a shrinking bracket, repeated α,
// queries outside the shrunk bracket and outside [lo, hi], and α exactly
// at (and one ulp around) cached interval ends. Each sequence runs with
// the scheduler's slots free and held. On smooth data most samples must
// hold a certificate after the first evaluation, so a cache that never
// certifies fails too.
//
// Mutant check: with the margin E dropped (e = 0 in reset) the cached
// model is no longer strict at an interval end, and the ends of the
// coarse-grid shapes, where the computed lines tie exactly, fail here.
func checkTieEvalSequences(t *testing.T) {
	t.Helper()
	r := rng.New(21)
	for _, n := range []int{1, 2, 37, block - 1, block, block + 1, 2*block + 3} {
		for shape := 0; shape <= 6; shape++ {
			for trial := 0; trial < 3; trial++ {
				nM := 1 + r.Intn(6)
				cd := tieEvalData(r, shape, nM, n)
				lo := float64(r.Intn(9)-6) / 2
				hi := lo + float64(1+r.Intn(8))/2
				oracle := serialTieEval(cd, n)
				for _, held := range []bool{false, true} {
					release := func() {}
					if held {
						release = sched.Default().HoldAll()
					}
					var te tieEval
					te.reset(cd, lo, hi, n)
					check := func(alpha float64) {
						f, dm, dp := te.eval(alpha)
						wf, wdm, wdp := oracle(alpha)
						if math.Float64bits(f) != math.Float64bits(wf) ||
							math.Float64bits(dm) != math.Float64bits(wdm) ||
							math.Float64bits(dp) != math.Float64bits(wdp) {
							release()
							t.Fatalf("n=%d shape=%d trial=%d held=%v α=%v: eval = (%v, %v, %v); full scan (%v, %v, %v)",
								n, shape, trial, held, alpha, f, dm, dp, wf, wdm, wdp)
						}
					}
					// A shrinking bracket, as the tangent iteration makes it.
					a, b := lo, hi
					check(a)
					if live := liveCertificates(&te); shape == 6 && nM > 1 && 2*live < n {
						release()
						t.Fatalf("n=%d shape=%d trial=%d: only %d of %d smooth samples certified", n, shape, trial, live, n)
					}
					check(b)
					for k := 0; k < 8; k++ {
						x := a + (b-a)*float64(1+r.Intn(7))/8
						check(x)
						check(x) // repeated α
						if r.Intn(2) == 0 {
							a = x
						} else {
							b = x
						}
					}
					// Outside the shrunk bracket and outside [lo, hi].
					for _, x := range []float64{lo, hi, 0, lo - 1, hi + 0.5, -hi - 2, lo + (hi-lo)/3} {
						check(x)
					}
					// Exactly at cached interval ends, and one ulp around
					// them, for a few samples whose certificate is live.
					for k := 0; k < 6; k++ {
						j := r.Intn(n)
						if !(te.ilo[j] <= te.ihi[j]) {
							continue
						}
						end := te.ilo[j]
						if k%2 == 1 {
							end = te.ihi[j]
						}
						check(end)
						check(math.Nextafter(end, math.Inf(1)))
						check(math.Nextafter(end, math.Inf(-1)))
					}
					release()
				}
			}
		}
	}
}

// TestSearchIndependentOfScheduler runs the full search on a five-model,
// six-coordinate estimator at N = 10,000 with every scheduler slot held
// (caller-runs only) and with the slots free: the results must be
// identical to the bit.
func TestSearchIndependentOfScheduler(t *testing.T) {
	const nStat, nDesign = 8, 6
	r := rng.New(90417)
	models := make([]*linmodel.SpecModel, 5)
	for m := range models {
		gs := r.NormVector(make([]float64, nStat))
		gd := r.NormVector(make([]float64, nDesign))
		models[m] = &linmodel.SpecModel{
			Spec: m, S: make([]float64, nStat), Df: make([]float64, nDesign),
			Margin0: r.NormFloat64() - 1.5, GradS: gs, GradD: gd,
		}
	}
	est := linmodel.NewEstimator(models, nStat, 10000, rng.New(7))
	box := Box{Lo: make([]float64, nDesign), Hi: make([]float64, nDesign)}
	for k := range box.Lo {
		box.Lo[k], box.Hi[k] = -3, 3
	}
	d0 := make([]float64, nDesign)
	release := sched.Default().HoldAll()
	serial := Search(box, est, nil, d0, Options{})
	release()
	parallel := Search(box, est, nil, d0, Options{})
	if !serial.Moved {
		t.Fatal("search did not move; the test needs a moving trajectory")
	}
	same := serial.Passes == parallel.Passes && serial.Moved == parallel.Moved &&
		math.Float64bits(serial.Yield) == math.Float64bits(parallel.Yield) &&
		len(serial.History) == len(parallel.History)
	for k := range serial.D {
		same = same && math.Float64bits(serial.D[k]) == math.Float64bits(parallel.D[k])
	}
	for i := range serial.History {
		same = same && i < len(parallel.History) &&
			math.Float64bits(serial.History[i]) == math.Float64bits(parallel.History[i])
	}
	if !same {
		t.Errorf("caller-runs only: %+v\nwith free slots: %+v", serial, parallel)
	}
}

// serialBestAlpha is the single-threaded bestAlpha, kept verbatim as the
// oracle the block-parallel version must match bit for bit. It finds the α in [lo, hi] maximizing the passing-sample count by
// an event sweep: each sample passes on an interval [l_j, h_j] of α
// (intersection of its per-model half-lines), and the best α lies on a
// maximal overlap of those intervals. Ties prefer the smallest |α| and the
// returned α is centered within its plateau for robustness.
func serialBestAlpha(cd linmodel.CoordinateData, lo, hi float64, n int) (float64, int) {
	type event struct {
		x     float64
		delta int
	}
	events := make([]event, 0, 2*n)
	for j := 0; j < n; j++ {
		l, h, ok := sampleInterval(cd, j, lo, hi)
		if !ok {
			continue
		}
		events = append(events, event{l, +1}, event{h, -1})
	}
	if len(events) == 0 {
		return 0, 0
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].x != events[b].x {
			return events[a].x < events[b].x
		}
		// Opens before closes at the same abscissa: intervals are closed.
		return events[a].delta > events[b].delta
	})
	bestCount, cur := 0, 0
	bestL, bestR := 0.0, 0.0
	for i, ev := range events {
		cur += ev.delta
		if cur > bestCount {
			bestCount = cur
			bestL = ev.x
			bestR = hi
			if i+1 < len(events) {
				bestR = events[i+1].x
			}
		}
	}
	// Prefer zero move if the best plateau contains it; otherwise take
	// the nearest end of the plateau inset by a quarter width — far
	// enough from the pass/fail cliff for robustness, close enough to
	// the current point to keep the linearization local.
	if bestL <= 0 && 0 <= bestR {
		return 0, bestCount
	}
	if bestL > 0 {
		return bestL + 0.25*(bestR-bestL), bestCount
	}
	return bestR - 0.25*(bestR-bestL), bestCount
}

// serialTieBreakAlpha is the single-threaded tieBreakAlpha, kept verbatim
// as the oracle the block-parallel version must match bit for bit. It
// maximizes the mean over samples of the minimum model
// margin — a concave piecewise-linear function of α — exactly. Each
// evaluation returns the one-sided derivatives alongside the value, and
// a tangent-intersection search (Newton's method for piecewise-linear
// concave functions, with a midpoint safeguard) closes in on the plateau
// whose subgradient contains zero. Each step costs one O(n·m) pass,
// versus the ~120 passes of the former 60-iteration ternary search, and
// the returned α lies exactly inside the optimum plateau. On the paper's
// Fig.-5 zero plateaus this pulls the design toward the acceptance
// region even though the count objective is flat.
func serialTieBreakAlpha(cd linmodel.CoordinateData, lo, hi float64, n int) float64 {
	if len(cd.G) == 0 || lo >= hi {
		return 0
	}
	eval := serialTieEval(cd, n)
	a, b := lo, hi
	fa, _, dpa := eval(a)
	alpha, falpha := a, fa
	if dpa > 0 {
		fb, dmb, _ := eval(b)
		if dmb >= 0 {
			// Still non-decreasing at hi: hi is the maximum.
			alpha, falpha = b, fb
		} else {
			// Invariant: F slopes up to the right of a and down to the
			// left of b, so the maximum is interior. The supporting lines
			// at a and b intersect at or above the maximum; evaluating
			// there either lands on the optimal piece or discovers a new
			// piece and shrinks the bracket, so the loop terminates after
			// finitely many pieces (the cap is a float-degeneracy guard).
			for iter := 0; iter < 64; iter++ {
				x := (fb - fa + dpa*a - dmb*b) / (dpa - dmb)
				if !(x > a && x < b) {
					x = a + 0.5*(b-a)
				}
				if x <= a || x >= b {
					break // bracket exhausted at float resolution
				}
				f, dm, dp := eval(x)
				if f > falpha {
					alpha, falpha = x, f
				}
				if dp <= 0 && dm >= 0 {
					alpha, falpha = x, f // subgradient contains 0: maximizer
					break
				}
				if dp > 0 {
					a, fa, dpa = x, f, dp
				} else {
					b, fb, dmb = x, f, dm
				}
			}
		}
	}
	f0, _, _ := eval(0)
	if falpha <= f0 {
		return 0
	}
	return alpha
}

// serialTieEval is the former single-threaded full-scan evaluation of the
// tie-break objective, kept verbatim as the oracle every tieEval
// evaluation must match bit for bit.
func serialTieEval(cd linmodel.CoordinateData, n int) func(alpha float64) (f, dMinus, dPlus float64) {
	minM := make([]float64, n)
	sLo := make([]float64, n)
	sHi := make([]float64, n)
	// eval computes F(α) = mean_j min_m (C[m][j] + G[m]·α)·Scale[m] with
	// its one-sided derivatives: F'₊ averages the smallest slope tied at
	// each sample's minimum, F'₋ the largest. The model loop is outermost
	// so each C[m] row streams sequentially; the per-element arithmetic
	// and the final left-to-right summation match the naive sample-major
	// double loop exactly, so the maximizer is unchanged.
	return func(alpha float64) (f, dMinus, dPlus float64) {
		for j := range minM {
			minM[j] = math.Inf(1)
			sLo[j], sHi[j] = 0, 0
		}
		for m := range cd.G {
			row := cd.C[m]
			shift := cd.G[m] * alpha
			scale := cd.Scale[m]
			s := cd.G[m] * scale
			for j := 0; j < n; j++ {
				v := (row[j] + shift) * scale
				if v < minM[j] {
					minM[j], sLo[j], sHi[j] = v, s, s
				} else if v == minM[j] {
					if s < sLo[j] {
						sLo[j] = s
					}
					if s > sHi[j] {
						sHi[j] = s
					}
				}
			}
		}
		var tf, tm, tp float64
		for j := 0; j < n; j++ {
			tf += minM[j]
			tm += sHi[j]
			tp += sLo[j]
		}
		fn := float64(n)
		return tf / fn, tm / fn, tp / fn
	}
}
