// Package paper regenerates every table and figure of the DAC-2001 paper
// from the reproduction's own circuits and algorithms. Each experiment is
// a function returning a plain data structure plus a renderer, so the
// cmd/papertables binary, the benchmark harness and the tests all share
// one implementation.
//
// The experiment ↔ module map lives in DESIGN.md; expected-vs-measured
// values are recorded in EXPERIMENTS.md.
package paper

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"specwise/internal/circuits"
	"specwise/internal/core"
	"specwise/internal/linmodel"
	"specwise/internal/mismatch"
	"specwise/internal/problem"
	"specwise/internal/rng"
	"specwise/internal/wcd"
)

// Seed fixes all randomness so the tables regenerate identically.
const Seed = core.DefaultSeed

// RunConfig scales the experiments: Full matches the paper's sample sizes;
// Quick keeps CI fast.
type RunConfig struct {
	ModelSamples  int
	VerifySamples int
	Iterations    int
}

// Full is the paper-scale configuration (N = 10,000 model samples, 300
// verification samples, as in Secs. 5.3 and 6).
func Full() RunConfig { return RunConfig{ModelSamples: 10000, VerifySamples: 300, Iterations: 4} }

// Quick is a reduced configuration for smoke tests.
func Quick() RunConfig { return RunConfig{ModelSamples: 2000, VerifySamples: 100, Iterations: 2} }

// Table1 runs the folded-cascode yield optimization with functional
// constraints (the paper's Table 1): the trace of nominal margins,
// linear-model bad-sample counts and Monte-Carlo yield per iteration.
func Table1(cfg RunConfig, log io.Writer) (*core.Result, error) {
	p := circuits.FoldedCascodeProblem()
	return core.Optimize(context.Background(), p, core.Options{
		ModelSamples:  cfg.ModelSamples,
		VerifySamples: cfg.VerifySamples,
		MaxIterations: cfg.Iterations,
		Seed:          Seed,
		Log:           log,
	})
}

// Table2Row is one performance's improvement between two iterations.
type Table2Row struct {
	Spec       string
	DMuRel     float64 // Δμ / (μ − f_b), the paper's first column
	DSigmaRel  float64 // Δσ / σ, the paper's second column
	MuA, MuB   float64
	SigA, SigB float64
}

// Table2 derives the per-performance mean/sigma improvements between two
// recorded iterations of a Table-1 run (the paper compares the 1st and
// 2nd iterations).
func Table2(res *core.Result, from, to int) []Table2Row {
	p := res.Problem
	a, b := res.Iterations[from], res.Iterations[to]
	rows := make([]Table2Row, 0, len(p.Specs))
	for i, s := range p.Specs {
		muA, muB := a.Specs[i].MCMean, b.Specs[i].MCMean
		sgA, sgB := a.Specs[i].MCSigma, b.Specs[i].MCSigma
		// Normalize the mean shift by the |distance to the bound| so the
		// sign stays "positive = improved" even when the starting mean is
		// on the failing side of the bound.
		distA := math.Abs(muA - s.Bound)
		if distA < 1e-12 {
			distA = 1e-12
		}
		dmu := (muB - muA) / distA
		if s.Kind == problem.LE {
			dmu = (muA - muB) / distA
		}
		rows = append(rows, Table2Row{
			Spec: s.Name, DMuRel: dmu, DSigmaRel: (sgB - sgA) / sgA,
			MuA: muA, MuB: muB, SigA: sgA, SigB: sgB,
		})
	}
	return rows
}

// Table3 runs the no-functional-constraints ablation (the paper's
// Table 3): the model's bad-sample counts fall, the true yield does not.
func Table3(cfg RunConfig, log io.Writer) (*core.Result, error) {
	p := circuits.FoldedCascodeProblem()
	return core.Optimize(context.Background(), p, core.Options{
		ModelSamples:  cfg.ModelSamples,
		VerifySamples: cfg.VerifySamples,
		MaxIterations: 1, // the paper shows a single iteration
		Seed:          Seed,
		NoConstraints: true,
		Log:           log,
	})
}

// Table4 runs the nominal-point-linearization ablation (the paper's
// Table 4): blind to the quadratic CMRR behaviour, the run saturates far
// below the full method.
func Table4(cfg RunConfig, log io.Writer) (*core.Result, error) {
	p := circuits.FoldedCascodeProblem()
	return core.Optimize(context.Background(), p, core.Options{
		ModelSamples:       cfg.ModelSamples,
		VerifySamples:      cfg.VerifySamples,
		MaxIterations:      cfg.Iterations,
		Seed:               Seed,
		LinearizeAtNominal: true,
		Log:                log,
	})
}

// Table5Entry is one ranked mismatch pair.
type Table5Entry struct {
	Rank           int
	Spec           string
	ParamK, ParamL string
	Measure        float64
}

// Table5 runs the mismatch analysis at the folded-cascode initial design
// and returns the top pairs (the paper's Table 5 shows three, all CMRR).
func Table5(n int) ([]Table5Entry, error) {
	p := circuits.FoldedCascodeProblem()
	reports, err := mismatch.Analyze(p, p.InitialDesign(), Seed)
	if err != nil {
		return nil, err
	}
	var out []Table5Entry
	for i, r := range reports {
		for _, m := range r.Pairs {
			if m.Value <= 0 {
				continue
			}
			out = append(out, Table5Entry{
				Spec:   p.Specs[i].Name,
				ParamK: p.StatNames[m.K], ParamL: p.StatNames[m.L],
				Measure: m.Value,
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Measure > out[j].Measure })
	if len(out) > n {
		out = out[:n]
	}
	for i := range out {
		out[i].Rank = i + 1
	}
	return out, nil
}

// Table6 runs the Miller opamp optimization with global variations only
// (the paper's Table 6).
func Table6(cfg RunConfig, log io.Writer) (*core.Result, error) {
	p := circuits.MillerProblem()
	return core.Optimize(context.Background(), p, core.Options{
		ModelSamples:  cfg.ModelSamples,
		VerifySamples: cfg.VerifySamples,
		MaxIterations: cfg.Iterations,
		Seed:          Seed,
		Log:           log,
	})
}

// Curve is a sampled 1-D function, the payload of the figure experiments.
type Curve struct {
	Label string
	X, Y  []float64
}

// Surface is a sampled 2-D function (the Fig.-1 payload).
type Surface struct {
	Label string
	X, Y  []float64   // axes
	Z     [][]float64 // Z[i][j] = f(X[i], Y[j])
}

// Fig1 samples the CMRR of the folded-cascode (initial design) over the
// normalized threshold mismatch of its most mismatch-sensitive pair
// (M3/M4 — the analysis of Table 5 identifies it; the paper's Fig. 1 uses
// the equivalent plot for its own circuit's critical pair). The ridge
// along the neutral line Δs3 = Δs4 and the quadratic fall along the
// mismatch line Δs3 = −Δs4 are the paper's key geometry.
func Fig1(gridN int) (*Surface, error) {
	p := circuits.FoldedCascodeProblem()
	model := circuits.FoldedCascodeVariations()
	d := p.InitialDesign()
	theta := p.NominalTheta()
	i3 := model.LocalIndex("M3.dVth")
	i4 := model.LocalIndex("M4.dVth")
	if i3 < 0 || i4 < 0 {
		return nil, fmt.Errorf("paper: M3/M4 local parameters not found")
	}
	sf := &Surface{Label: "CMRR [dB] over (s_M3.dVth, s_M4.dVth) [σ]"}
	for i := 0; i < gridN; i++ {
		sf.X = append(sf.X, -3+6*float64(i)/float64(gridN-1))
		sf.Y = append(sf.Y, -3+6*float64(i)/float64(gridN-1))
	}
	s := make([]float64, p.NumStat())
	for _, x := range sf.X {
		row := make([]float64, 0, gridN)
		for _, y := range sf.Y {
			s[i3], s[i4] = x, y
			cmrr, err := p.SpecValue(d, s, theta, 2)
			if err != nil {
				return nil, err
			}
			row = append(row, cmrr)
		}
		sf.Z = append(sf.Z, row)
	}
	return sf, nil
}

// Fig2 samples the selector function Φ over the pair angle (paper Fig. 2).
func Fig2(n int) *Curve {
	c := &Curve{Label: "Phi(angle) selector"}
	for i := 0; i < n; i++ {
		a := -math.Pi/2 + math.Pi*float64(i)/float64(n-1)
		c.X = append(c.X, a)
		c.Y = append(c.Y, mismatch.Phi(a, mismatch.Options{}))
	}
	return c
}

// Fig3 samples the robustness weight η over the signed worst-case
// distance β (paper Fig. 3).
func Fig3(n int) *Curve {
	c := &Curve{Label: "Eta(beta) robustness weight"}
	for i := 0; i < n; i++ {
		b := -4 + 8*float64(i)/float64(n-1)
		c.X = append(c.X, b)
		c.Y = append(c.Y, mismatch.Eta(b))
	}
	return c
}

// Fig4 sweeps the folded-cascode gain A0 over one design parameter (the
// bottom-sink width W3) together with the minimum saturation margin: A0
// is weakly nonlinear while the margin stays positive and collapses
// outside — the paper's Fig.-4 argument for using the feasibility region
// as the linearization trust region.
func Fig4(n int) (a0 *Curve, satMargin *Curve, err error) {
	p := circuits.FoldedCascodeProblem()
	d := p.InitialDesign()
	s := make([]float64, p.NumStat())
	theta := p.NominalTheta()
	a0 = &Curve{Label: "A0 [dB] over W3 [µm]"}
	satMargin = &Curve{Label: "min constraint margin over W3 [µm]"}
	lo, hi := p.Design[2].Lo, p.Design[2].Hi
	for i := 0; i < n; i++ {
		w3 := lo + (hi-lo)*float64(i)/float64(n-1)
		d[2] = w3
		vals, err := p.Eval(d, s, theta)
		if err != nil {
			return nil, nil, err
		}
		cons, err := p.Constraints(d)
		if err != nil {
			return nil, nil, err
		}
		minC := math.Inf(1)
		for _, c := range cons {
			if c < minC {
				minC = c
			}
		}
		a0.X = append(a0.X, w3)
		a0.Y = append(a0.Y, vals[0])
		satMargin.X = append(satMargin.X, w3)
		satMargin.Y = append(satMargin.Y, minC)
	}
	return a0, satMargin, nil
}

// Fig5 sweeps the linear-model yield estimate Ȳ over one design parameter
// (the input-pair width W1) from its lower to its upper bound, exhibiting
// the zero plateaus and strong non-monotonicity that motivate the paper's
// coordinate search over gradient ascent.
func Fig5(points, samples int) (*Curve, error) {
	p := circuits.FoldedCascodeProblem()
	d := p.InitialDesign()

	thetaRes, err := wcd.WorstCaseTheta(p, d, make([]float64, p.NumStat()))
	if err != nil {
		return nil, err
	}
	wcs, err := wcd.SearchAll(context.Background(), p, d, thetaRes.PerSpec, wcd.Options{}, func(i int) uint64 {
		return Seed + uint64(i)
	})
	if err != nil {
		return nil, err
	}
	models, err := linmodel.Build(p, d, wcs, thetaRes.PerSpec, linmodel.BuildOptions{MirrorSpecs: true})
	if err != nil {
		return nil, err
	}
	est := linmodel.NewEstimator(models, p.NumStat(), samples, rng.New(Seed))

	c := &Curve{Label: "Ybar over W1 [µm]"}
	lo, hi := p.Design[0].Lo, p.Design[0].Hi
	dd := append([]float64(nil), d...)
	for i := 0; i < points; i++ {
		w1 := lo + (hi-lo)*float64(i)/float64(points-1)
		dd[0] = w1
		c.X = append(c.X, w1)
		c.Y = append(c.Y, est.Yield(dd))
	}
	return c, nil
}
