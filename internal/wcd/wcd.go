// Package wcd implements worst-case analysis: the worst-case operating
// point θ_wc over the operating range Θ (paper Eq. 2) and the worst-case
// statistical point s_wc — the most probable parameter set on the
// specification boundary (paper Eq. 8) — via the iterative linearization
// scheme of the worst-case-distance literature (refs. [10], [12]).
package wcd

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync/atomic"

	"specwise/internal/linalg"
	"specwise/internal/problem"
	"specwise/internal/sched"
)

// MarginFunc evaluates one spec's normalized margin (>= 0 means pass) at a
// point in the normalized statistical space. Gradient probes call it
// concurrently, so it must be safe for concurrent calls (the circuit
// evaluation layer gives each concurrent call its own pooled circuit, so
// its margins are).
type MarginFunc func(s []float64) (float64, error)

// Options tunes the worst-case distance search.
type Options struct {
	MaxIter   int     // SQP-style iterations (default 15)
	Tol       float64 // |margin| convergence tolerance (default 1e-4)
	FDStep    float64 // finite-difference step in sigma units (default 0.1)
	MaxRadius float64 // clamp on ‖s_wc‖ for insensitive specs (default 6)
	Damping   float64 // step damping factor in (0,1] (default 1.0)
	// Starts is the number of search starts (default 3): the nominal
	// point plus randomized restarts. Restarts are essential for
	// mismatch-quadratic performances, where the nominal point sits on a
	// ridge with a vanishing first-order gradient (the pathology the
	// paper's ref. [12] addresses); the minimum-norm boundary point over
	// all converged starts is returned.
	Starts int
	// Seed drives the deterministic restart perturbations.
	Seed uint64
}

func (o *Options) defaults() {
	if o.MaxIter == 0 {
		o.MaxIter = 15
	}
	if o.Tol == 0 {
		o.Tol = 1e-4
	}
	if o.FDStep == 0 {
		o.FDStep = 0.1
	}
	if o.MaxRadius == 0 {
		o.MaxRadius = 6
	}
	if o.Damping == 0 {
		o.Damping = 1
	}
	if o.Starts == 0 {
		o.Starts = 3
	}
	if o.Seed == 0 {
		o.Seed = 0x5eed
	}
}

// WorstCase is the result of one spec's worst-case distance search.
type WorstCase struct {
	S linalg.Vector // worst-case point s_wc (on the boundary, or clamped)
	// Beta is the signed worst-case distance ±‖s_wc‖: positive when the
	// nominal design satisfies the spec, negative when it violates it.
	Beta float64
	// GradS is the margin gradient ∇_s m at s_wc.
	GradS linalg.Vector
	// MarginNominal is the margin at s = 0.
	MarginNominal float64
	// MarginWc is the residual margin at s_wc (≈ 0 when converged).
	MarginWc float64
	// Converged reports boundary convergence; false for clamped or
	// insensitive searches.
	Converged bool
	// Evals counts margin-function calls spent in the search.
	Evals int
}

// gradient computes a forward-difference margin gradient; f0 is the margin
// at s, reused to save one evaluation per component (step opts.FDStep).
// A NaN probe (broken circuit) is retried in the opposite direction; if
// both sides fail the component is treated as locally insensitive rather
// than poisoning the whole gradient. The independent probes run on the
// process-wide scheduler's caller-runs loop; each component's value lands
// at its own index and errors are reported in index order, so the result
// is bit-identical however many workers join.
func gradient(m MarginFunc, s []float64, f0 float64, opts Options) (linalg.Vector, int, error) {
	dim := len(s)
	h := opts.FDStep
	g := linalg.NewVector(dim)
	errs := make([]error, dim)
	var evals atomic.Int64
	sch := sched.Default()
	// One scratch copy of s per worker, made on the worker's first probe.
	work := make([][]float64, sch.Workers(dim))
	sch.For(dim, func(k, i int) bool {
		if work[k] == nil {
			work[k] = slices.Clone(s)
		}
		fi, n, err := probe(m, work[k], s, i, f0, h)
		evals.Add(int64(n))
		if err != nil {
			errs[i] = err
		} else {
			g[i] = fi
		}
		return true
	})
	for _, err := range errs {
		if err != nil {
			return nil, int(evals.Load()), err
		}
	}
	return g, int(evals.Load()), nil
}

// probe computes one gradient component using work as scratch (restored
// to s[i] before returning). It returns the component value and the
// number of margin evaluations spent.
func probe(m MarginFunc, work, s []float64, i int, f0, h float64) (float64, int, error) {
	work[i] = s[i] + h
	fi, err := m(work)
	evals := 1
	if err != nil {
		work[i] = s[i]
		return 0, evals, err
	}
	if math.IsNaN(fi) {
		work[i] = s[i] - h
		fi, err = m(work)
		evals++
		if err != nil {
			work[i] = s[i]
			return 0, evals, err
		}
		fi = f0 - (fi - f0) // mirror the backward difference
	}
	work[i] = s[i]
	if math.IsNaN(fi) {
		return 0, evals, nil
	}
	return (fi - f0) / h, evals, nil
}

// FindWorstCase solves Eq. 8 for one spec by the iterative linearization
// scheme, run from several starting points; the minimum-norm boundary
// point over all converged runs wins. Each run repeatedly linearizes the
// margin and jumps to the minimum-norm point of the linearized boundary
// { s | m0 + g·(s−s0) = 0 }, whose closed form is s* = g·(g·s0 − m0)/(g·g).
func FindWorstCase(m MarginFunc, dim int, opts Options) (*WorstCase, error) {
	opts.defaults()
	switch {
	case opts.Starts < 0:
		return nil, errors.New("wcd: Starts must not be negative")
	case opts.MaxRadius < 0:
		return nil, errors.New("wcd: MaxRadius must not be negative")
	case opts.Damping < 0:
		return nil, errors.New("wcd: Damping must not be negative")
	case opts.Tol < 0:
		return nil, errors.New("wcd: Tol must not be negative")
	}

	m0, err := m(make([]float64, dim))
	if err != nil {
		return nil, err
	}
	evals := 1

	var best *WorstCase
	rng := newSplitMix(opts.Seed)
	for start := 0; start < opts.Starts; start++ {
		s0 := linalg.NewVector(dim)
		if start > 0 {
			for i := range s0 {
				s0[i] = rng.norm()
			}
		}
		wc, n, err := searchFrom(m, s0, m0, opts)
		evals += n
		if err != nil {
			return nil, err
		}
		if better(wc, best) {
			best = wc
		}
		// A converged nominal-start search on a well-behaved (one-sided)
		// spec is already optimal in practice; restarts pay off when the
		// first run stalls or lands far out.
		if start == 0 && wc.Converged && wc.S.Norm2() < 0.75*opts.MaxRadius {
			restart, n2, err := searchFrom(m, perturb(wc.S, rng), m0, opts)
			evals += n2
			if err != nil {
				return nil, err
			}
			if better(restart, best) {
				best = restart
			}
			break
		}
	}
	best.MarginNominal = m0
	best.Evals = evals
	return best, nil
}

// SpecMargin returns spec i's normalized margin at design d and
// operating point theta as a MarginFunc over the statistical space. It
// checks ctx before each evaluation, so a cancelled search stops at its
// next simulation.
func SpecMargin(ctx context.Context, p *problem.Problem, d, theta []float64, i int) MarginFunc {
	return func(s []float64) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		v, err := p.SpecValue(d, s, theta, i)
		if err != nil {
			return 0, err
		}
		return p.Specs[i].Margin(v), nil
	}
}

// SearchSpec solves Eq. 8 for spec i of p at design d and operating
// point theta (FindWorstCase over SpecMargin).
func SearchSpec(ctx context.Context, p *problem.Problem, d, theta []float64, i int, opts Options) (*WorstCase, error) {
	return FindWorstCase(SpecMargin(ctx, p, d, theta, i), p.NumStat(), opts)
}

// SearchAll solves Eq. 8 for every spec of p at design d, spec i at its
// worst-case operating point thetas[i] with opts.Seed replaced by
// seed(i). The searches are independent, so they run as one sched.For
// pool (the paper used a machine cluster for the same reason), sharing
// the scheduler's slots with the gradient pools nested inside them;
// each writes its own index and draws its own restart stream, so the
// result is identical to the serial run. A panicking search is re-raised
// on the caller's goroutine by sched.For. Errors are reported in spec
// order; once ctx is cancelled no further search starts, and SearchAll
// returns ctx.Err().
func SearchAll(ctx context.Context, p *problem.Problem, d []float64, thetas [][]float64, opts Options, seed func(i int) uint64) ([]*WorstCase, error) {
	wcs := make([]*WorstCase, p.NumSpecs())
	errs := make([]error, p.NumSpecs())
	sched.Default().For(p.NumSpecs(), func(_, i int) bool {
		o := opts
		o.Seed = seed(i)
		wcs[i], errs[i] = SearchSpec(ctx, p, d, thetas[i], i, o)
		return ctx.Err() == nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Specs left unclaimed after a cancellation hold nil results and nil
	// errors; this check is what reports them.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return wcs, nil
}

// better prefers converged boundary points of smaller norm.
func better(a, b *WorstCase) bool {
	if b == nil {
		return true
	}
	if a.Converged != b.Converged {
		return a.Converged
	}
	return a.S.Norm2() < b.S.Norm2()
}

// perturb returns a slightly randomized copy of s used to verify that a
// converged boundary point is not an artifact of the start.
func perturb(s linalg.Vector, r *splitMix) linalg.Vector {
	out := s.Clone()
	for i := range out {
		out[i] += 0.3 * r.norm()
	}
	return out
}

// splitMix is a tiny local PRNG so the package stays dependency-free.
type splitMix struct{ state uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{state: seed} }

func (r *splitMix) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitMix) norm() float64 {
	// Sum of 4 uniforms, centered and scaled: a light-tailed bell curve
	// good enough for restart dispersion.
	s := 0.0
	for i := 0; i < 4; i++ {
		s += float64(r.next()>>11) / (1 << 53)
	}
	return (s - 2) * math.Sqrt(3)
}

// searchFrom runs one damped linearize-and-project search from s0.
func searchFrom(m MarginFunc, s0 linalg.Vector, m0 float64, opts Options) (*WorstCase, int, error) {
	s := s0.Clone()
	evals := 0
	wc := &WorstCase{}

	margin := m0
	if s.Norm2() > 0 {
		var err error
		margin, err = m(s)
		if err != nil {
			return nil, evals, err
		}
		evals++
		// A randomized start on a broken circuit shrinks toward the
		// evaluable nominal point.
		for i := 0; math.IsNaN(margin) && i < 4; i++ {
			s.Scale(0.5)
			margin, err = m(s)
			if err != nil {
				return nil, evals, err
			}
			evals++
		}
		if math.IsNaN(margin) {
			s.Zero()
			margin = m0
		}
	}
	var grad linalg.Vector
	for iter := 0; iter < opts.MaxIter; iter++ {
		g, n, err := gradient(m, s, margin, opts)
		evals += n
		if err != nil {
			return nil, evals, err
		}
		gg := g.Dot(g)
		if gg < 1e-18 {
			if margin*m0 < 0 {
				// A dead plateau on the failing side (the circuit
				// collapsed and the margin flatlined): the boundary lies
				// between here and the origin — recover it by bisection,
				// then let the loop refresh the gradient there.
				var n int
				var err error
				margin, n, err = bisectBoundary(m, s, m0, margin, opts.Tol)
				evals += n
				if err != nil {
					return nil, evals, err
				}
				if math.Abs(margin) <= 10*opts.Tol {
					wc.Converged = true
				}
				gBnd, n2, err := gradient(m, s, margin, opts)
				evals += n2
				if err != nil {
					return nil, evals, err
				}
				wc.S = s
				wc.GradS = gBnd
				wc.MarginWc = margin
				wc.Beta = signedBeta(s.Norm2(), m0)
				return wc, evals, nil
			}
			// Insensitive direction on the passing side: the boundary is
			// (numerically) infinitely far away; clamp at MaxRadius.
			wc.S = s
			wc.GradS = g
			wc.MarginWc = margin
			wc.Beta = signedBeta(opts.MaxRadius, m0)
			wc.Converged = false
			return wc, evals, nil
		}
		// Minimum-norm point on the linearized boundary.
		target := g.Dot(s) - margin
		next := g.Clone().Scale(target / gg)
		// Damped move, clamped to the search radius; a step landing on a
		// broken circuit (NaN margin) is repeatedly halved.
		step := next.Sub(s)
		prev := s.Clone()
		scale := opts.Damping
		for attempt := 0; ; attempt++ {
			copy(s, prev)
			s.AddScaled(scale, step)
			if r := s.Norm2(); r > opts.MaxRadius {
				s.Scale(opts.MaxRadius / r)
			}
			margin, err = m(s)
			if err != nil {
				return nil, evals, err
			}
			evals++
			if !math.IsNaN(margin) {
				break
			}
			if attempt >= 4 {
				// Unable to step anywhere evaluable: report the last good
				// point as a clamped (non-converged) result.
				copy(s, prev)
				wc.S = s
				wc.GradS = g
				wc.MarginWc = 0
				wc.Beta = signedBeta(opts.MaxRadius, m0)
				return wc, evals, nil
			}
			scale /= 2
		}
		grad = g
		if math.Abs(margin) < opts.Tol && step.Norm2()*opts.Damping < 0.05 {
			wc.Converged = true
			break
		}
	}
	if grad == nil {
		return nil, evals, errors.New("wcd: no iterations performed")
	}
	// A stalled search that ended on the failing side while the nominal
	// passes (or vice versa) brackets the boundary along the ray from the
	// origin: recover the crossing by bisection — no gradients needed, so
	// dead plateaus (regions where the circuit collapses and the margin
	// flatlines) cannot trap it.
	if !wc.Converged && margin*m0 < 0 {
		var n int
		var err error
		margin, n, err = bisectBoundary(m, s, m0, margin, opts.Tol)
		evals += n
		if err != nil {
			return nil, evals, err
		}
		if math.Abs(margin) <= 10*opts.Tol {
			wc.Converged = true
		}
	}
	// Refresh the gradient at the final point for the linear model.
	gFinal, n, err := gradient(m, s, margin, opts)
	evals += n
	if err != nil {
		return nil, evals, err
	}
	wc.S = s
	wc.GradS = gFinal
	wc.MarginWc = margin
	wc.Beta = signedBeta(s.Norm2(), m0)
	return wc, evals, nil
}

// bisectBoundary shrinks s along the ray toward the origin until the
// margin changes sign, then bisects to the boundary. s is updated in
// place; the final margin is returned.
func bisectBoundary(m MarginFunc, s linalg.Vector, m0, mEnd, tol float64) (float64, int, error) {
	loT, hiT := 0.0, 1.0 // margin(loT·s) has m0's sign, margin(hiT·s) opposite
	endpoint := s.Clone()
	margin := mEnd
	evals := 0
	for i := 0; i < 40 && math.Abs(margin) > tol; i++ {
		mid := (loT + hiT) / 2
		copy(s, endpoint)
		s.Scale(mid)
		v, err := m(s)
		evals++
		if err != nil {
			return 0, evals, err
		}
		switch {
		case math.IsNaN(v):
			// Broken region counts as the failing side.
			if m0 >= 0 {
				hiT = mid
			} else {
				loT = mid
			}
		case (v >= 0) == (m0 >= 0):
			loT = mid
		default:
			hiT = mid
		}
		if !math.IsNaN(v) {
			margin = v
		}
	}
	copy(s, endpoint)
	s.Scale((loT + hiT) / 2)
	v, err := m(s)
	evals++
	if err != nil {
		return 0, evals, err
	}
	if !math.IsNaN(v) {
		margin = v
	}
	return margin, evals, nil
}

// signedBeta applies the paper's sign convention: β > 0 when the nominal
// design satisfies the spec.
func signedBeta(norm, marginNominal float64) float64 {
	if marginNominal >= 0 {
		return norm
	}
	return -norm
}

// ThetaResult maps each spec to its worst-case operating point.
type ThetaResult struct {
	// PerSpec[i] is θ_wc^(i), the operating point minimizing spec i's
	// margin over the enumerated corners of Θ.
	PerSpec [][]float64
	// Margins[i] is spec i's margin at its worst-case operating point
	// (at the statistical point the search was run with).
	Margins []float64
	// Evals counts simulator calls used.
	Evals int
}

// WorstCaseTheta implements Eq. 2 by corner enumeration: every vertex of
// the operating box plus the nominal point is simulated once and each
// spec keeps its own minimizer. With dim(Θ) operating parameters this
// costs 2^dim + 1 evaluations for all specs together, matching the
// paper's effort bound N* ≤ N·2^dim(Θ).
func WorstCaseTheta(p *problem.Problem, d, s []float64) (*ThetaResult, error) {
	if err := p.CheckPoint(d, s); err != nil {
		return nil, err
	}
	corners := Corners(p.Theta)
	corners = append(corners, p.NominalTheta())

	res := &ThetaResult{
		PerSpec: make([][]float64, p.NumSpecs()),
		Margins: make([]float64, p.NumSpecs()),
	}
	for i := range res.Margins {
		res.Margins[i] = math.Inf(1)
	}
	for _, theta := range corners {
		vals, err := p.Eval(d, s, theta)
		if err != nil {
			return nil, err
		}
		res.Evals++
		for i, spec := range p.Specs {
			mg := spec.Margin(vals[i])
			if math.IsNaN(mg) {
				// A corner where the circuit breaks outright is the worst
				// corner by definition.
				mg = math.Inf(-1)
			}
			if mg < res.Margins[i] {
				res.Margins[i] = mg
				res.PerSpec[i] = theta
			}
		}
	}
	return res, nil
}

// Corners returns the 2^n vertices of the operating box, bit j of the
// vertex index selecting Hi on axis j.
func Corners(ranges []problem.OpRange) [][]float64 {
	n := len(ranges)
	if n == 0 {
		return [][]float64{{}}
	}
	out := make([][]float64, 0, 1<<n)
	for mask := 0; mask < 1<<n; mask++ {
		theta := make([]float64, n)
		for j, r := range ranges {
			if mask&(1<<j) != 0 {
				theta[j] = r.Hi
			} else {
				theta[j] = r.Lo
			}
		}
		out = append(out, theta)
	}
	return out
}

// DistinctThetas deduplicates the per-spec worst-case operating points,
// returning the unique set and, per unique point u, the mask of the
// specs judged there: wants[u][i] reports whether spec i's point is u.
// The Monte-Carlo verifier uses it to share simulations between specs
// with a common worst-case corner, and passes each corner's mask to
// problem.Problem.SubsetValues so the corner is simulated only as deep
// as its own specs need.
func DistinctThetas(perSpec [][]float64) (unique [][]float64, wants [][]bool) {
	for i, th := range perSpec {
		found := -1
		for u, ut := range unique {
			if equalVec(ut, th) {
				found = u
				break
			}
		}
		if found < 0 {
			unique = append(unique, th)
			wants = append(wants, make([]bool, len(perSpec)))
			found = len(unique) - 1
		}
		wants[found][i] = true
	}
	return unique, wants
}

func equalVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RefineTheta improves each spec's worst-case operating point by cyclic
// golden-section minimization over the operating box, starting from the
// corner-enumeration result. Corner enumeration (Eq. 2's usual
// implementation) assumes the worst case sits on a vertex; performances
// like phase margin can dip *inside* the range, which this refinement
// catches at a cost of ~evalsPerAxis simulations per spec and axis.
func RefineTheta(p *problem.Problem, d, s []float64, res *ThetaResult, passes int) error {
	if passes <= 0 {
		return nil
	}
	const golden = 0.6180339887498949
	for i := range p.Specs {
		i := i
		theta := append([]float64(nil), res.PerSpec[i]...)
		margin := func(th []float64) (float64, error) {
			v, err := p.SpecValue(d, s, th, i)
			if err != nil {
				return 0, err
			}
			res.Evals++
			m := p.Specs[i].Margin(v)
			if math.IsNaN(m) {
				m = math.Inf(-1)
			}
			return m, nil
		}
		best := res.Margins[i]
		for pass := 0; pass < passes; pass++ {
			for j, rng := range p.Theta {
				a, b := rng.Lo, rng.Hi
				if a == b {
					continue
				}
				// Golden-section MINIMIZATION of the margin along axis j.
				x1 := b - golden*(b-a)
				x2 := a + golden*(b-a)
				work := append([]float64(nil), theta...)
				work[j] = x1
				f1, err := margin(work)
				if err != nil {
					return err
				}
				work[j] = x2
				f2, err := margin(work)
				if err != nil {
					return err
				}
				for it := 0; it < 8; it++ {
					if f1 < f2 {
						b, x2, f2 = x2, x1, f1
						x1 = b - golden*(b-a)
						work[j] = x1
						if f1, err = margin(work); err != nil {
							return err
						}
					} else {
						a, x1, f1 = x1, x2, f2
						x2 = a + golden*(b-a)
						work[j] = x2
						if f2, err = margin(work); err != nil {
							return err
						}
					}
				}
				cand := x1
				fc := f1
				if f2 < f1 {
					cand, fc = x2, f2
				}
				if fc < best {
					best = fc
					theta[j] = cand
				}
			}
		}
		if best < res.Margins[i] {
			res.Margins[i] = best
			res.PerSpec[i] = theta
		}
	}
	return nil
}
