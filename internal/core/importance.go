package core

import (
	"errors"
	"fmt"
	"math"

	"specwise/internal/problem"
	"specwise/internal/rng"
)

// ISResult is an importance-sampled failure-probability estimate.
type ISResult struct {
	// PFail is the estimated probability that the spec is violated.
	PFail float64
	// StdErr is the standard error of the estimator.
	StdErr float64
	// Evals counts simulator calls.
	Evals int
	// EffectiveN is the effective sample size (Σw)²/Σw² of the failing
	// samples' weights — the diagnostic that matters for a failure-region
	// estimator (the all-sample weight variance is huge by construction
	// for large shifts and says nothing about PFail's quality).
	EffectiveN float64
}

// EstimateSpecFailureIS estimates one spec's failure probability by
// importance sampling with the proposal density shifted to the spec's
// worst-case point: samples are drawn from N(s_wc, I) and re-weighted by
// w(s) = exp(‖s_wc‖²/2 − sᵀs_wc). For robust specs — failure rates far
// below 1/N, invisible to the plain Monte Carlo of Eq. 6 — the shifted
// density puts half its mass on the failing side of the boundary, cutting
// the estimator variance by orders of magnitude. This is the classical
// worst-case-distance companion technique to the paper's Sec. 3 machinery
// and costs nothing extra: s_wc is already computed per spec.
func EstimateSpecFailureIS(p *problem.Problem, d []float64, spec int, theta, swc []float64, n int, seed uint64) (*ISResult, error) {
	if spec < 0 || spec >= p.NumSpecs() {
		return nil, errors.New("core: spec index out of range")
	}
	if len(swc) != p.NumStat() {
		return nil, errors.New("core: worst-case point dimension mismatch")
	}
	if n < 1 {
		return nil, fmt.Errorf("core: importance sampling needs at least one sample, got %d", n)
	}
	r := rng.New(seed)
	sp := p.Specs[spec]

	mu2 := 0.0
	for _, v := range swc {
		mu2 += v * v
	}

	s := make([]float64, p.NumStat())
	sumW, sumW2 := 0.0, 0.0 // failing-sample weight sums
	res := &ISResult{}
	for j := 0; j < n; j++ {
		dot := 0.0
		for i := range s {
			z := r.NormFloat64()
			s[i] = swc[i] + z
			dot += s[i] * swc[i]
		}
		w := math.Exp(mu2/2 - dot)

		v, err := p.SpecValue(d, s, theta, spec)
		if err != nil {
			return nil, err
		}
		res.Evals++
		if math.IsNaN(v) || !sp.Satisfied(v) {
			sumW += w
			sumW2 += w * w
		}
	}
	nf := float64(n)
	res.PFail = sumW / nf
	variance := (sumW2/nf - res.PFail*res.PFail) / nf
	if variance > 0 {
		res.StdErr = math.Sqrt(variance)
	}
	if sumW2 > 0 {
		res.EffectiveN = sumW * sumW / sumW2
	}
	return res, nil
}
