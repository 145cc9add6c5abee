// Package linmodel implements the paper's Sec. 5.2–5.3: spec-wise linear
// performance models built at worst-case points (Eq. 16), mirrored models
// for quadratic mismatch-type performances (Eqs. 21–22), and the sampled
// yield estimate Ȳ over those models (Eqs. 17–18) with the O(1)
// per-coordinate incremental update of Eq. 20 that makes the coordinate
// search cheap.
package linmodel

import (
	"fmt"
	"math"

	"specwise/internal/linalg"
	"specwise/internal/problem"
	"specwise/internal/rng"
	"specwise/internal/stat"
	"specwise/internal/wcd"
)

// SpecModel is the linearization of one spec's margin around the design
// point Df and a statistical linearization point S (normally the
// worst-case point s_wc, or the nominal point in the Table-4 ablation):
//
//	m̄(d, s) = Margin0 + GradS·(s − S) + GradD·(d − Df)
type SpecModel struct {
	Spec    int // index into Problem.Specs
	Mirror  bool
	Theta   []float64     // worst-case operating point θ_wc
	S       linalg.Vector // statistical linearization point
	Df      linalg.Vector // design linearization point
	Margin0 float64       // margin at (Df, S, Theta)
	GradS   linalg.Vector // ∂m/∂s at the linearization point
	GradD   linalg.Vector // ∂m/∂d at the linearization point
	Beta    float64       // signed worst-case distance of the spec

	// Quad marks a radial-quadratic model (the QuadraticSpecs extension):
	// along the worst-case ray U (unit vector, radius R) the margin is
	// QA·t² + QB·t + QC with t = (s·U)/R, fitted through the three
	// already-simulated points (s_wc, 0, −s_wc); directions orthogonal to
	// the ray stay linear with gradient GPerp. Quadratic only in s, the
	// model stays linear in d — the Eq.-20 incremental machinery is
	// unaffected.
	Quad       bool
	QA, QB, QC float64
	R          float64
	U, GPerp   linalg.Vector
}

// SMargin evaluates the statistical part of the model (the margin at the
// design linearization point Df).
func (m *SpecModel) SMargin(s []float64) float64 {
	if m.Quad {
		su := 0.0
		for i := range s {
			su += s[i] * m.U[i]
		}
		t := su / m.R
		v := m.QA*t*t + m.QB*t + m.QC
		for i := range s {
			v += m.GPerp[i] * (s[i] - su*m.U[i])
		}
		return v
	}
	v := m.Margin0
	for i := range s {
		v += m.GradS[i] * (s[i] - m.S[i])
	}
	return v
}

// Margin evaluates the full model.
func (m *SpecModel) Margin(d, s []float64) float64 {
	v := m.SMargin(s)
	for k := range d {
		v += m.GradD[k] * (d[k] - m.Df[k])
	}
	return v
}

const (
	// fdStepD is the design finite-difference step as a fraction of each
	// parameter's range.
	fdStepD = 0.02
	// mirrorThreshold: a spec is treated as quadratic when the measured
	// margin at −s_wc is below this fraction of the value the linear
	// model predicts there.
	mirrorThreshold = 0.3
)

// BuildOptions controls model construction.
type BuildOptions struct {
	// MirrorSpecs enables the quadratic detection of Eqs. 21–22
	// (default true; the Table-4-style ablations switch pieces off).
	MirrorSpecs bool
	// AtNominal linearizes at s = 0 instead of the worst-case points —
	// the paper's Table-4 ablation.
	AtNominal bool
	// QuadraticSpecs replaces the linear+mirror pair of a detected
	// quadratic performance with a single radial-quadratic model fitted
	// through (s_wc, 0, −s_wc) — a beyond-the-paper extension; see the
	// QuadStudy experiment for the accuracy comparison.
	QuadraticSpecs bool
}

// Build constructs the spec-wise models for every spec from the worst-case
// analysis results. It spends (numDesign+1) evaluations per spec for the
// design gradient plus one evaluation per mirror check.
func Build(p *problem.Problem, df []float64, wcs []*wcd.WorstCase, thetas [][]float64, opts BuildOptions) ([]*SpecModel, error) {
	if opts.MirrorSpecs && opts.AtNominal {
		return nil, fmt.Errorf("linmodel: mirror specs require worst-case linearization")
	}
	var models []*SpecModel
	for i := range p.Specs {
		base, err := buildOne(p, df, i, wcs[i], thetas[i], opts)
		if err != nil {
			return nil, err
		}

		// Consistency guard: a worst-case model must at least roughly
		// reproduce the measured nominal margin. A violent disagreement
		// (wrong sign, or an error of several margin units) means the
		// search ended next to a collapse cliff and the gradient there
		// describes the cliff, not the spec; fall back to a nominal-point
		// model for that spec. Genuine quadratics (prediction up to ~2×
		// the measured margin, same sign) pass this guard.
		if !opts.AtNominal {
			pred := base.Margin(df, make([]float64, p.NumStat()))
			meas := wcs[i].MarginNominal
			if pred*meas < 0 || math.Abs(pred-meas) > 3*(1+math.Abs(meas)) {
				nomOpts := opts
				nomOpts.AtNominal = true
				base, err = buildOne(p, df, i, wcs[i], thetas[i], nomOpts)
				if err != nil {
					return nil, err
				}
				models = append(models, base)
				continue // no boundary geometry to mirror
			}
		}
		models = append(models, base)

		if !opts.MirrorSpecs {
			continue
		}
		mirror, err := maybeMirror(p, df, i, base, wcs[i])
		if err != nil {
			return nil, err
		}
		if mirror == nil {
			continue
		}
		if opts.QuadraticSpecs {
			// Upgrade the pair to one radial-quadratic model: same three
			// simulation points, tighter fit on two-sided valleys.
			models[len(models)-1] = quadFromPair(base, mirror, wcs[i])
			continue
		}
		models = append(models, mirror)
	}
	return models, nil
}

// quadFromPair builds the radial-quadratic model from the base model, its
// mirror (whose Margin0 is the measured margin at −s_wc) and the
// worst-case result.
func quadFromPair(base, mirror *SpecModel, wc *wcd.WorstCase) *SpecModel {
	r := base.S.Norm2()
	u := base.S.Clone().Scale(1 / r)
	m0 := wc.MarginNominal
	mMirror := mirror.Margin0
	// q(1) = base.Margin0 (≈0 on the boundary), q(0) = m0, q(−1) = mMirror.
	qc := m0
	qa := (base.Margin0+mMirror)/2 - m0
	qb := (base.Margin0 - mMirror) / 2
	gPerp := base.GradS.Clone()
	gPerp.AddScaled(-gPerp.Dot(u), u)
	return &SpecModel{
		Spec: base.Spec, Theta: base.Theta,
		S: base.S, Df: base.Df,
		Margin0: base.Margin0, GradS: base.GradS, GradD: base.GradD,
		Beta: base.Beta,
		Quad: true, QA: qa, QB: qb, QC: qc, R: r, U: u, GPerp: gPerp,
	}
}

// buildOne linearizes spec i at its worst-case (or nominal) point.
func buildOne(p *problem.Problem, df []float64, i int, wc *wcd.WorstCase, theta []float64, opts BuildOptions) (*SpecModel, error) {
	spec := p.Specs[i]
	s := wc.S.Clone()
	margin0 := wc.MarginWc
	gradS := wc.GradS.Clone()
	if opts.AtNominal {
		// Table-4 ablation: nominal-point linearization. The gradient at
		// s = 0 must be measured fresh — for quadratic performances it
		// differs drastically from the worst-case gradient.
		s = linalg.NewVector(p.NumStat())
		v, err := p.SpecValue(df, s, theta, i)
		if err != nil {
			return nil, err
		}
		margin0 = spec.Margin(v)
		gradS = linalg.NewVector(p.NumStat())
		work := make([]float64, p.NumStat())
		const h = 0.1
		for j := 0; j < p.NumStat(); j++ {
			work[j] = h
			vj, err := p.SpecValue(df, work, theta, i)
			if err != nil {
				return nil, err
			}
			work[j] = 0
			gradS[j] = (spec.Margin(vj) - margin0) / h
		}
	}

	gradD, err := designGradient(p, df, i, s, theta, margin0)
	if err != nil {
		return nil, err
	}
	return &SpecModel{
		Spec: i, Theta: theta,
		S: s, Df: append(linalg.Vector(nil), df...),
		Margin0: margin0, GradS: gradS, GradD: gradD,
		Beta: wc.Beta,
	}, nil
}

// designGradient measures ∂m/∂d by forward differences, respecting the
// design box (steps flip direction at the upper bound).
func designGradient(p *problem.Problem, df []float64, i int, s []float64, theta []float64, margin0 float64) (linalg.Vector, error) {
	spec := p.Specs[i]
	grad := linalg.NewVector(p.NumDesign())
	work := append([]float64(nil), df...)
	for k, prm := range p.Design {
		h := fdStepD * (prm.Hi - prm.Lo)
		if h == 0 {
			continue
		}
		if work[k]+h > prm.Hi {
			h = -h
		}
		work[k] = df[k] + h
		v, err := p.SpecValue(work, s, theta, i)
		if err != nil {
			return nil, err
		}
		mk := spec.Margin(v)
		if math.IsNaN(mk) {
			// Broken circuit at the probe: retry the other way.
			work[k] = df[k] - h
			v, err = p.SpecValue(work, s, theta, i)
			if err != nil {
				return nil, err
			}
			if mb := spec.Margin(v); !math.IsNaN(mb) {
				mk = margin0 - (mb - margin0)
			}
		}
		work[k] = df[k]
		if math.IsNaN(mk) {
			grad[k] = 0
			continue
		}
		grad[k] = (mk - margin0) / h
	}
	return grad, nil
}

// maybeMirror runs the single extra simulation of Sec. 5.3 at the mirrored
// worst-case point −s_wc; when the measured margin there is far below the
// base model's prediction, the performance has the semidefinite quadratic
// signature of Fig. 1 and a mirrored model (Eqs. 21–22) is added.
//
// Mirrors are only built from genuine boundary points: a search that was
// clamped at the radius (a very robust spec) carries no boundary geometry
// to mirror. The mirror intercept is clamped near the boundary, as in the
// paper's construction — the mirrored half of a quadratic valley passes
// close to f_b by symmetry, and trusting a measured value from a broken
// far-out region would wrongly condemn the whole sample cloud.
func maybeMirror(p *problem.Problem, df []float64, i int, base *SpecModel, wc *wcd.WorstCase) (*SpecModel, error) {
	sNorm := base.S.Norm2()
	if sNorm < 1e-9 {
		return nil, nil // nominal-centered worst case carries no direction
	}
	gnorm := base.GradS.Norm2()
	onBoundary := wc.Converged || math.Abs(wc.MarginWc) < 0.2*gnorm
	if !onBoundary {
		return nil, nil
	}
	mirrorS := base.S.Clone().Scale(-1)
	v, err := p.SpecValue(df, mirrorS, base.Theta, i)
	if err != nil {
		return nil, err
	}
	measured := p.Specs[i].Margin(v)
	predicted := base.Margin(df, mirrorS)
	if math.IsNaN(measured) {
		// The mirrored point breaks the circuit outright: protect the
		// estimate with a mirror model pinned at the boundary.
		measured = 0
	}
	if predicted <= 0 {
		return nil, nil // base model already pessimistic there
	}
	if measured > mirrorThreshold*predicted {
		return nil, nil // behaves linearly enough
	}
	// Pin the intercept near the boundary (≥ −0.5σ·|∇|) so a wildly
	// negative far-side measurement cannot dominate the estimate.
	if floor := -0.5 * gnorm; measured < floor {
		measured = floor
	}
	return &SpecModel{
		Spec: i, Mirror: true, Theta: base.Theta,
		S: mirrorS, Df: base.Df.Clone(),
		Margin0: measured,
		GradS:   base.GradS.Clone().Scale(-1),
		GradD:   base.GradD.Clone(),
		Beta:    base.Beta,
	}, nil
}

// Estimator is the Monte-Carlo yield estimate Ȳ over the linear models
// (Eqs. 17–18). The statistical part of every sample's margin is
// precomputed once per model, so re-evaluating the estimate after a design
// move costs only the design-space inner product — and along a single
// coordinate, one multiply per (sample, model) pair (Eq. 20).
type Estimator struct {
	Models []*SpecModel
	N      int
	// base[m][j] = Margin0_m + GradS_m·(s_j − S_m): frozen during the
	// coordinate search.
	base [][]float64
	df   []float64
}

// NewEstimator draws n normalized samples and precomputes the per-sample
// constants.
func NewEstimator(models []*SpecModel, nStat, n int, r *rng.Rand) *Estimator {
	e := &Estimator{Models: models, N: n, base: make([][]float64, len(models))}
	for m := range e.base {
		e.base[m] = make([]float64, n)
	}
	if len(models) > 0 {
		e.df = models[0].Df
	}
	s := make([]float64, nStat)
	for j := 0; j < n; j++ {
		r.NormVector(s)
		for m, model := range models {
			e.base[m][j] = model.SMargin(s)
		}
	}
	return e
}

// offsets returns each model's design-space margin shift at d.
func (e *Estimator) offsets(d []float64) []float64 {
	off := make([]float64, len(e.Models))
	for m, model := range e.Models {
		v := 0.0
		for k := range d {
			v += model.GradD[k] * (d[k] - e.df[k])
		}
		off[m] = v
	}
	return off
}

// Yield returns the estimated yield Ȳ(d) over the sampled linear models.
func (e *Estimator) Yield(d []float64) float64 {
	pass, _ := e.Count(d)
	return float64(pass) / float64(e.N)
}

// Count returns the passing-sample count and the per-spec bad-sample
// counts (a sample can be bad for several specs at once). Mirror models
// are folded into their spec's tally: a sample failing both a spec's base
// and mirror model counts once for that spec.
func (e *Estimator) Count(d []float64) (pass int, badPerSpec map[int]int) {
	off := e.offsets(d)
	badPerSpec = make(map[int]int)
	// lastBad[spec] is the last sample already counted bad for spec.
	lastBad := make(map[int]int, len(e.Models))
	for _, model := range e.Models {
		lastBad[model.Spec] = -1
	}
	for j := 0; j < e.N; j++ {
		ok := true
		for m, model := range e.Models {
			if e.base[m][j]+off[m] < 0 {
				ok = false
				if lastBad[model.Spec] != j {
					lastBad[model.Spec] = j
					badPerSpec[model.Spec]++
				}
			}
		}
		if ok {
			pass++
		}
	}
	return pass, badPerSpec
}

// CoordinateData exposes what the coordinate search needs for the exact
// Eq.-20 sweep along axis k: per (sample, model) pass thresholds.
type CoordinateData struct {
	// C[m][j] is the margin of model m at sample j for α = 0.
	C [][]float64
	// G[m] is model m's margin slope along the coordinate.
	G []float64
	// Scale[m] converts model m's margin into sigma-like units
	// (1/‖∇_s m‖): margins of different performances (dB, MHz, mW)
	// become comparable, which the robustness tie-break needs.
	Scale []float64
}

// Coordinate assembles the sweep data at the current design d for axis k
// into cd, reusing cd's slices when they are already the right size, so
// a search can fill one CoordinateData per coordinate without allocating.
func (e *Estimator) Coordinate(cd *CoordinateData, d []float64, k int) {
	off := e.offsets(d)
	nm := len(e.Models)
	if len(cd.C) != nm {
		cd.C = make([][]float64, nm)
		cd.G = make([]float64, nm)
		cd.Scale = make([]float64, nm)
	}
	for m, model := range e.Models {
		cd.G[m] = model.GradD[k]
		cd.Scale[m] = 1 / (model.GradS.Norm2() + 1e-12)
		if len(cd.C[m]) != e.N {
			cd.C[m] = make([]float64, e.N)
		}
		row := cd.C[m]
		for j := range row {
			row[j] = e.base[m][j] + off[m]
		}
	}
}

// NewEstimatorLHS is NewEstimator with Latin-hypercube sampling: each
// statistical dimension is stratified into n equiprobable bins, each hit
// exactly once (in a random permutation). Stratification removes most of
// the binomial noise of plain Monte-Carlo sampling from the yield
// estimate at identical cost, which steadies the coordinate search's
// comparisons between candidate steps.
func NewEstimatorLHS(models []*SpecModel, nStat, n int, r *rng.Rand) *Estimator {
	e := &Estimator{Models: models, N: n, base: make([][]float64, len(models))}
	for m := range e.base {
		e.base[m] = make([]float64, n)
	}
	if len(models) > 0 {
		e.df = models[0].Df
	}
	// Per-dimension stratified normal samples.
	cols := make([][]float64, nStat)
	for i := 0; i < nStat; i++ {
		perm := r.Perm(n)
		col := make([]float64, n)
		for j := 0; j < n; j++ {
			u := (float64(perm[j]) + r.Float64Open()) / float64(n)
			col[j] = stat.NormalQuantile(u)
		}
		cols[i] = col
	}
	s := make([]float64, nStat)
	for j := 0; j < n; j++ {
		for i := 0; i < nStat; i++ {
			s[i] = cols[i][j]
		}
		for m, model := range models {
			e.base[m][j] = model.SMargin(s)
		}
	}
	return e
}
