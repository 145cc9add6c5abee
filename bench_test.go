// Benchmark harness: one benchmark per table and figure of the paper
// (see DESIGN.md for the experiment index and EXPERIMENTS.md for the
// paper-vs-measured record). The table benchmarks run the corresponding
// experiment end-to-end at reduced-but-faithful scale and report, besides
// ns/op, the headline metrics of the experiment (initial/final yield,
// simulation counts) as custom benchmark outputs.
//
// Regenerate everything at paper scale with:
//
//	go run ./cmd/papertables
package specwise

import (
	"context"
	"math"
	"testing"
	"time"

	"specwise/internal/circuits"
	"specwise/internal/coord"
	"specwise/internal/core"
	"specwise/internal/evalcache"
	"specwise/internal/jobs"
	"specwise/internal/linmodel"
	"specwise/internal/paper"
	"specwise/internal/problem"
	"specwise/internal/rng"
	"specwise/internal/wcd"
)

// benchCfg keeps the bench wall-clock sane while preserving the shape of
// every experiment.
func benchCfg() paper.RunConfig {
	return paper.RunConfig{ModelSamples: 3000, VerifySamples: 150, Iterations: 3}
}

func reportYields(b *testing.B, res *core.Result) {
	b.ReportMetric(100*res.Iterations[0].MCYield, "initial-yield-%")
	b.ReportMetric(100*res.Iterations[len(res.Iterations)-1].MCYield, "final-yield-%")
	b.ReportMetric(float64(res.Simulations), "simulations")
	b.ReportMetric(float64(res.Sim.Factorizations), "factorizations")
}

// BenchmarkTable1FoldedCascode: full yield optimization with functional
// constraints; initial yield 0%, final ≈100% (paper Table 1).
func BenchmarkTable1FoldedCascode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := paper.Table1(benchCfg(), nil)
		if err != nil {
			b.Fatal(err)
		}
		reportYields(b, res)
	}
}

// BenchmarkTable2MeanSigma: per-performance μ/σ improvement extraction
// between iterations (paper Table 2); derived from a Table-1 run.
func BenchmarkTable2MeanSigma(b *testing.B) {
	res, err := paper.Table1(benchCfg(), nil)
	if err != nil {
		b.Fatal(err)
	}
	last := len(res.Iterations) - 1
	from := last - 2
	if from < 1 {
		from = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := paper.Table2(res, from, last)
		if len(rows) != len(res.Problem.Specs) {
			b.Fatal("row count mismatch")
		}
	}
	rows := paper.Table2(res, from, last)
	// CMRR sigma must shrink between accepted iterations (the paper's
	// "variance of the performances is decreased").
	for _, r := range rows {
		if r.Spec == "CMRR" {
			b.ReportMetric(100*r.DSigmaRel, "cmrr-dsigma-%")
		}
	}
}

// BenchmarkTable3NoConstraints: the no-functional-constraints ablation;
// the model improves, the true yield stays at zero (paper Table 3).
func BenchmarkTable3NoConstraints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := paper.Table3(benchCfg(), nil)
		if err != nil {
			b.Fatal(err)
		}
		reportYields(b, res)
	}
}

// BenchmarkTable4NominalLinearization: the nominal-point-linearization
// ablation; blind to quadratic mismatch behaviour, it saturates far below
// the full method (paper Table 4).
func BenchmarkTable4NominalLinearization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := paper.Table4(benchCfg(), nil)
		if err != nil {
			b.Fatal(err)
		}
		reportYields(b, res)
	}
}

// BenchmarkTable5MismatchMeasure: worst-case-point mismatch analysis and
// pair ranking at the initial folded-cascode design (paper Table 5).
func BenchmarkTable5MismatchMeasure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		entries, err := paper.Table5(3)
		if err != nil {
			b.Fatal(err)
		}
		if len(entries) == 0 {
			b.Fatal("no mismatch pairs found")
		}
		b.ReportMetric(entries[0].Measure, "top-measure")
	}
}

// BenchmarkTable6Miller: Miller opamp optimization under global
// variations; initial ≈35%, final ≈100% (paper Table 6).
func BenchmarkTable6Miller(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := paper.Table6(benchCfg(), nil)
		if err != nil {
			b.Fatal(err)
		}
		reportYields(b, res)
	}
}

// BenchmarkTable7Effort: the computational-effort bookkeeping (paper
// Table 7) — simulation counting overhead of the evaluation-cache view
// that counts every simulator call, on its uncached (pass-through) path.
func BenchmarkTable7Effort(b *testing.B) {
	p := circuits.OTAProblem()
	ledger := evalcache.New(0)
	ip := ledger.PassThrough(p)
	d := p.InitialDesign()
	s := make([]float64, p.NumStat())
	th := p.NominalTheta()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ip.Eval(d, s, th); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ledger.Stats().Misses)/float64(b.N), "evals/op")
}

// BenchmarkFig1CMRRSurface: the CMRR-over-mismatch-pair surface (paper
// Fig. 1); verifies the neutral-line/mismatch-line geometry.
func BenchmarkFig1CMRRSurface(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sf, err := paper.Fig1(9)
		if err != nil {
			b.Fatal(err)
		}
		n := len(sf.X)
		center := sf.Z[n/2][n/2]
		neutral := sf.Z[n-1][n-1] // both +3σ: neutral line
		mismatch := sf.Z[n-1][0]  // +3σ/−3σ: mismatch line
		if center-neutral > 6 {
			b.Fatalf("neutral line dropped %.1f dB; should be flat", center-neutral)
		}
		if center-mismatch < 10 {
			b.Fatalf("mismatch line dropped only %.1f dB; should collapse", center-mismatch)
		}
		b.ReportMetric(center-mismatch, "mismatch-drop-dB")
	}
}

// BenchmarkFig2PhiSelector: the Φ selector curve (paper Fig. 2).
func BenchmarkFig2PhiSelector(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := paper.Fig2(257)
		peak := 0.0
		for _, v := range c.Y {
			if v > peak {
				peak = v
			}
		}
		if peak != 1 {
			b.Fatalf("Phi peak = %v", peak)
		}
	}
}

// BenchmarkFig3EtaWeight: the η robustness-weight curve (paper Fig. 3).
func BenchmarkFig3EtaWeight(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := paper.Fig3(257)
		for j := 1; j < len(c.Y); j++ {
			if c.Y[j] > c.Y[j-1] {
				b.Fatal("Eta must be monotone decreasing")
			}
		}
	}
}

// BenchmarkFig4FeasibilityRegion: A0 over a design sweep with the
// constraint margin (paper Fig. 4): weakly nonlinear inside the
// feasibility region, collapsing outside.
func BenchmarkFig4FeasibilityRegion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a0, margin, err := paper.Fig4(17)
		if err != nil {
			b.Fatal(err)
		}
		// Inside the feasibility region A0 must stay in a narrow band.
		lo, hi := math.Inf(1), math.Inf(-1)
		for j := range a0.X {
			if margin.Y[j] < 0 {
				continue
			}
			if a0.Y[j] < lo {
				lo = a0.Y[j]
			}
			if a0.Y[j] > hi {
				hi = a0.Y[j]
			}
		}
		b.ReportMetric(hi-lo, "a0-span-dB")
	}
}

// BenchmarkFig5YieldOverDesign: the sampled yield estimate over one design
// parameter from lb to ub (paper Fig. 5): zero plateaus and strong
// non-monotonicity.
func BenchmarkFig5YieldOverDesign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := paper.Fig5(21, 2000)
		if err != nil {
			b.Fatal(err)
		}
		max := 0.0
		for _, v := range c.Y {
			if v > max {
				max = v
			}
		}
		b.ReportMetric(100*max, "peak-yield-%")
	}
}

// --- Ablation and micro benchmarks (design-choice candidates from
// DESIGN.md §5) ---

// BenchmarkSweepOTA16: a 16-seed OTA optimization sweep through the
// batch engine with a pinned worst-case seed (wcSeed), run once with
// per-job evaluation caches ("isolated") and once with the
// manager-scoped shared cache ("shared"). The sweep members differ only
// in their sampling streams, so their worst-case searches and
// finite-difference linearizations probe identical points; the shared
// run answers those repeats from siblings' entries instead of the
// simulator. cross-hit-% is the fraction of would-be simulator calls
// (cross hits / (cross hits + misses)) served cross-job; per-member
// results stay bit-identical either way (TestSharedEvalCacheBitIdentity).
func BenchmarkSweepOTA16(b *testing.B) {
	sweep := func() []jobs.Request {
		reqs := make([]jobs.Request, 16)
		for i := range reqs {
			reqs[i] = jobs.Request{
				Kind:    jobs.KindOptimize,
				Circuit: "ota",
				Options: jobs.RunOptions{
					ModelSamples:  2000,
					VerifySamples: 50,
					MaxIterations: 1,
					Seed:          jobs.Seed(uint64(i + 1)),
					WCSeed:        jobs.Seed(7),
				},
			}
		}
		return reqs
	}
	run := func(b *testing.B, shared bool) {
		for i := 0; i < b.N; i++ {
			m := jobs.New(jobs.Config{Workers: 4, SharedEvalCache: shared})
			batch, err := m.SubmitBatch(sweep())
			if err != nil {
				b.Fatal(err)
			}
			var st jobs.BatchStatus
			for {
				st, err = m.BatchStatus(batch.ID())
				if err != nil {
					b.Fatal(err)
				}
				if st.State.Terminal() {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			if st.State != jobs.StateDone {
				b.Fatalf("sweep ended %s: %d failed", st.State, st.Failed)
			}
			cross := float64(st.Effort.EvalCacheCrossHits)
			misses := float64(st.Effort.EvalCacheMisses)
			rate := 100 * cross / (cross + misses)
			b.ReportMetric(float64(st.Effort.Simulations), "simulations")
			b.ReportMetric(rate, "cross-hit-%")
			if shared && rate < 30 {
				b.Fatalf("cross-job hit rate %.1f%%, want >= 30%%", rate)
			}
			m.Close()
		}
	}
	b.Run("isolated", func(b *testing.B) { run(b, false) })
	b.Run("shared", func(b *testing.B) { run(b, true) })
}

// initialWorstCases runs the worst-case analysis the ablation benchmarks
// start from: the folded cascode's initial design, its worst-case
// corners, and every spec's Eq.-8 search with restart seed 3.
func initialWorstCases(b *testing.B) (*problem.Problem, []float64, *wcd.ThetaResult, []*wcd.WorstCase) {
	b.Helper()
	p := circuits.FoldedCascodeProblem()
	d := p.InitialDesign()
	thetaRes, err := wcd.WorstCaseTheta(p, d, make([]float64, p.NumStat()))
	if err != nil {
		b.Fatal(err)
	}
	wcs, err := wcd.SearchAll(context.Background(), p, d, thetaRes.PerSpec, wcd.Options{}, func(int) uint64 { return 3 })
	if err != nil {
		b.Fatal(err)
	}
	return p, d, thetaRes, wcs
}

// BenchmarkAblationMirrorSpecs compares model construction with and
// without the Eq. 21–22 mirror models on the quadratic CMRR spec.
func BenchmarkAblationMirrorSpecs(b *testing.B) {
	p, d, thetaRes, wcs := initialWorstCases(b)
	for _, mirror := range []bool{true, false} {
		name := "with-mirror"
		if !mirror {
			name = "without-mirror"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				models, err := linmodel.Build(p, d, wcs, thetaRes.PerSpec,
					linmodel.BuildOptions{MirrorSpecs: mirror})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(models)), "models")
			}
		})
	}
}

// BenchmarkAblationIncrementalYield compares the Eq.-20 single-coordinate
// estimate update against full re-evaluation of the linear models.
func BenchmarkAblationIncrementalYield(b *testing.B) {
	models := syntheticModels(6, 30, 8)
	est := linmodel.NewEstimator(models, 30, 10000, rng.New(5))
	d := make([]float64, 8)

	b.Run("incremental-coordinate", func(b *testing.B) {
		var cd linmodel.CoordinateData
		est.Coordinate(&cd, d, 3)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			count := 0
			for j := 0; j < est.N; j++ {
				ok := true
				for m := range cd.G {
					if cd.C[m][j]+cd.G[m]*0.1 < 0 {
						ok = false
						break
					}
				}
				if ok {
					count++
				}
			}
		}
	})
	b.Run("full-reevaluation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d[3] = 0.1
			est.Yield(d)
			d[3] = 0
		}
	})
}

// BenchmarkCoordSearch times the Eq.-19 coordinate search alone at the
// paper's Table-6 scale: N = 10,000 samples over the Miller shape of five
// spec models and six design coordinates, the layer that sets the pace of
// a Table-6 Miller job. The sample loops run in fixed blocks on the
// calling goroutine plus any free scheduler slots.
func BenchmarkCoordSearch(b *testing.B) {
	const nStat, nDesign = 4, 6
	est := linmodel.NewEstimator(syntheticModels(5, nStat, nDesign), nStat, 10000, rng.New(90417))
	box := coord.Box{Lo: make([]float64, nDesign), Hi: make([]float64, nDesign)}
	for k := range box.Lo {
		box.Lo[k], box.Hi[k] = -2, 2
	}
	d0 := make([]float64, nDesign)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := coord.Search(box, est, nil, d0, coord.Options{})
		b.ReportMetric(100*res.Yield, "model-yield-%")
		b.ReportMetric(float64(res.Passes), "passes")
	}
}

// BenchmarkWorstCaseSearch measures the Eq.-8 solver on an analytic
// 30-dimensional margin.
func BenchmarkWorstCaseSearch(b *testing.B) {
	m := func(s []float64) (float64, error) {
		v := 3.0
		for i := range s {
			v -= 0.1 * float64(i%3) * s[i]
		}
		return v, nil
	}
	for i := 0; i < b.N; i++ {
		if _, err := wcd.FindWorstCase(m, 30, wcd.Options{Seed: 9}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorEval measures one full opamp performance evaluation
// (DC + AC sweeps), the unit of the paper's Table-7 effort metric.
func BenchmarkSimulatorEval(b *testing.B) {
	for _, tc := range []struct {
		name string
		p    *problem.Problem
	}{
		{"ota", circuits.OTAProblem()},
		{"miller", circuits.MillerProblem()},
		{"foldedcascode", circuits.FoldedCascodeProblem()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			d := tc.p.InitialDesign()
			s := make([]float64, tc.p.NumStat())
			th := tc.p.NominalTheta()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tc.p.Eval(d, s, th); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkACSweep measures the open-loop AC sweep, where Monte-Carlo
// verification spends most of its time, through the folded-cascode
// subset evaluator with one spec wanted. One op is acSweepRounds rounds of an ft
// evaluation (DC operating point plus the whole frequency grid) and an
// A0 evaluation (DC plus the sweep's one-point head) at the initial
// design; the DC solves warm-start from the reference operating point,
// so the sweeps dominate. The factorizations per op are reported as a
// machine-invariant count.
func BenchmarkACSweep(b *testing.B) {
	const acSweepRounds = 100
	p := circuits.FoldedCascodeProblem()
	d := p.InitialDesign()
	s := make([]float64, p.NumStat())
	th := p.NominalTheta()
	var wants [][]bool // ft alone, then A0 alone
	for _, name := range []string{"ft", "A0"} {
		want := make([]bool, p.NumSpecs())
		for i, sp := range p.Specs {
			want[i] = sp.Name == name
		}
		wants = append(wants, want)
	}
	before := p.SimStats().Factorizations
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < acSweepRounds; r++ {
			for _, want := range wants {
				if _, err := p.EvalSubset(d, s, th, want); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(p.SimStats().Factorizations-before)/float64(b.N), "factorizations")
}

// BenchmarkVerifyDesign measures the sign-off verification layer,
// core.VerifyDesign, on the folded cascode at its initial design: the
// worst-case operating corners, then 150 Monte-Carlo samples at each
// distinct corner, each corner simulated only as deep as its specs need.
// It reports the simulator calls (the private cache view's misses) and
// the factorizations per op as machine-invariant counts.
func BenchmarkVerifyDesign(b *testing.B) {
	p := circuits.FoldedCascodeProblem()
	d := p.InitialDesign()
	before := p.SimStats().Factorizations
	var sims int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view := evalcache.New(0)
		if _, err := core.VerifyDesign(context.Background(), p, d, 150, 7, view); err != nil {
			b.Fatal(err)
		}
		sims += view.Stats().Misses
	}
	b.StopTimer()
	b.ReportMetric(float64(sims)/float64(b.N), "simulations")
	b.ReportMetric(float64(p.SimStats().Factorizations-before)/float64(b.N), "factorizations")
}

// BenchmarkMonteCarloVerify measures the Sec.-2 verification loop.
func BenchmarkMonteCarloVerify(b *testing.B) {
	p := circuits.OTAProblem()
	d := p.InitialDesign()
	zeroS := make([]float64, p.NumStat())
	thetaRes, err := wcd.WorstCaseTheta(p, d, zeroS)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.VerifyMC(p, d, thetaRes.PerSpec, 100, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// syntheticModels builds analytic spec models for estimator benchmarks.
func syntheticModels(nSpec, nStat, nDesign int) []*linmodel.SpecModel {
	r := rng.New(11)
	models := make([]*linmodel.SpecModel, nSpec)
	for m := range models {
		gs := make([]float64, nStat)
		gd := make([]float64, nDesign)
		s := make([]float64, nStat)
		r.NormVector(gs)
		r.NormVector(gd)
		r.NormVector(s)
		models[m] = &linmodel.SpecModel{
			Spec: m, S: s, Df: make([]float64, nDesign),
			Margin0: 0.5 + r.Float64(), GradS: gs, GradD: gd,
		}
	}
	return models
}

// BenchmarkAblationCoordinateVsGradient compares the paper's coordinate
// search against a baseline gradient ascent on the same linear models at
// the initial folded-cascode design, where the yield estimate sits on a
// near-zero plateau (Fig. 5): the gradient stalls, the coordinate search
// escapes.
func BenchmarkAblationCoordinateVsGradient(b *testing.B) {
	p, d, thetaRes, wcs := initialWorstCases(b)
	models, err := linmodel.Build(p, d, wcs, thetaRes.PerSpec, linmodel.BuildOptions{MirrorSpecs: true})
	if err != nil {
		b.Fatal(err)
	}
	est := linmodel.NewEstimator(models, p.NumStat(), 4000, rng.New(paper.Seed))
	box := coord.Box{
		Lo:  make([]float64, p.NumDesign()),
		Hi:  make([]float64, p.NumDesign()),
		Log: make([]bool, p.NumDesign()),
	}
	for k, prm := range p.Design {
		box.Lo[k], box.Hi[k], box.Log[k] = prm.Lo, prm.Hi, prm.LogScale
	}

	b.Run("coordinate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := coord.Search(box, est, nil, d, coord.Options{})
			b.ReportMetric(100*res.Yield, "model-yield-%")
		}
	})
	b.Run("gradient", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := coord.GradientSearch(box, est, nil, d, coord.GradientOptions{})
			b.ReportMetric(100*res.Yield, "model-yield-%")
		}
	})
}

// BenchmarkAblationLHSSampling compares the seed-to-seed noise of the
// linear-model yield estimate under plain Monte-Carlo and Latin-hypercube
// sampling at identical sample counts, in two regimes: a single spec
// dominated by one statistical direction (where per-dimension
// stratification pays off strongly) and an isotropic multi-spec
// intersection (where it cannot).
func BenchmarkAblationLHSSampling(b *testing.B) {
	dominant := []*linmodel.SpecModel{{
		Spec: 0,
		S:    make([]float64, 20), Df: make([]float64, 6),
		Margin0: 0.5,
		GradS:   append([]float64{2}, make([]float64, 19)...),
		GradD:   make([]float64, 6),
	}}
	isotropic := syntheticModels(4, 20, 6)
	d := make([]float64, 6)

	for _, scenario := range []struct {
		name   string
		models []*linmodel.SpecModel
	}{
		{"dominant-direction", dominant},
		{"isotropic-multispec", isotropic},
	} {
		for _, tc := range []struct {
			name string
			mk   func(seed uint64) *linmodel.Estimator
		}{
			{"plain-mc", func(seed uint64) *linmodel.Estimator {
				return linmodel.NewEstimator(scenario.models, 20, 2000, rng.New(seed))
			}},
			{"latin-hypercube", func(seed uint64) *linmodel.Estimator {
				return linmodel.NewEstimatorLHS(scenario.models, 20, 2000, rng.New(seed))
			}},
		} {
			b.Run(scenario.name+"/"+tc.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					mean, sq := 0.0, 0.0
					const reps = 20
					for seed := uint64(1); seed <= reps; seed++ {
						y := tc.mk(seed).Yield(d)
						mean += y
						sq += y * y
					}
					mean /= reps
					b.ReportMetric(math.Sqrt(sq/reps-mean*mean)*1000, "yield-noise-1e-3")
				}
			})
		}
	}
}

// BenchmarkAblationQuadraticModel tests the paper's "no higher-order model
// is needed" claim: per-spec CMRR yield error of a single linearization,
// the paper's linear+mirror pair, and a radial quadratic model, against a
// simulated reference.
func BenchmarkAblationQuadraticModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st, err := paper.RunQuadStudy(3000, 200)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(1000*st.LinearErr, "linear-err-1e-3")
		b.ReportMetric(1000*st.MirrorErr, "mirror-err-1e-3")
		b.ReportMetric(1000*st.QuadErr, "quad-err-1e-3")
	}
}

// BenchmarkAblationYieldVsBetaCentering compares the paper's direct
// sampled-yield coordinate search against the older worst-case-distance
// design centering (maximize min β, the paper's ref. [10]) on the
// folded-cascode's initial linear models.
func BenchmarkAblationYieldVsBetaCentering(b *testing.B) {
	p, d, thetaRes, wcs := initialWorstCases(b)
	models, err := linmodel.Build(p, d, wcs, thetaRes.PerSpec, linmodel.BuildOptions{MirrorSpecs: true})
	if err != nil {
		b.Fatal(err)
	}
	est := linmodel.NewEstimator(models, p.NumStat(), 4000, rng.New(paper.Seed))
	box := coord.Box{
		Lo:  make([]float64, p.NumDesign()),
		Hi:  make([]float64, p.NumDesign()),
		Log: make([]bool, p.NumDesign()),
	}
	for k, prm := range p.Design {
		box.Lo[k], box.Hi[k], box.Log[k] = prm.Lo, prm.Hi, prm.LogScale
	}
	b.Run("yield-search", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := coord.Search(box, est, nil, d, coord.Options{})
			b.ReportMetric(100*res.Yield, "model-yield-%")
		}
	})
	b.Run("beta-centering", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := coord.MaxMinBeta(box, est, nil, d, coord.Options{})
			b.ReportMetric(100*res.Yield, "model-yield-%")
		}
	})
}

// BenchmarkBackendsOTA runs the same reduced-scale OTA yield
// optimization under each search backend, so the bench
// record tracks the relative cost of the strategies side by side.
func BenchmarkBackendsOTA(b *testing.B) {
	for _, algo := range Algorithms() {
		b.Run(algo, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Optimize(circuits.OTAProblem(), Options{
					Algorithm:     algo,
					ModelSamples:  1500,
					VerifySamples: 80,
					MaxIterations: 2,
					Seed:          7,
					HasSeed:       true,
				})
				if err != nil {
					b.Fatal(err)
				}
				reportYields(b, res)
			}
		})
	}
}
