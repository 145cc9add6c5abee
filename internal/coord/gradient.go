package coord

import (
	"math"

	"specwise/internal/linmodel"
)

// GradientOptions tunes the baseline gradient-ascent search.
type GradientOptions struct {
	MaxIter  int     // ascent steps (default 60)
	FDFrac   float64 // finite-difference step as a fraction of each range (default 0.01)
	StepFrac float64 // initial step length as a fraction of each range (default 0.1)
}

func (o *GradientOptions) defaults() {
	if o.MaxIter == 0 {
		o.MaxIter = 60
	}
	if o.FDFrac == 0 {
		o.FDFrac = 0.01
	}
	if o.StepFrac == 0 {
		o.StepFrac = 0.1
	}
}

// GradientSearch is the baseline the paper argues against (Sec. 5.3): a
// finite-difference gradient ascent on the sampled yield estimate Ȳ(d).
// Because Ȳ is a step function of the design — piecewise constant between
// sample crossings — its measured gradient vanishes on the plateaus of
// Fig. 5, including the entire Ȳ = 0 region around a bad initial design,
// and the ascent stalls exactly where the coordinate search keeps moving.
// It exists for the comparison benchmark, not for production use.
func GradientSearch(box Box, est *linmodel.Estimator, lc *LinearConstraints, d0 []float64, opts GradientOptions) *Result {
	opts.defaults()
	nd := len(box.Lo)
	d := append([]float64(nil), d0...)
	res := &Result{}

	clampBox := func(v []float64) {
		for k := range v {
			if v[k] < box.Lo[k] {
				v[k] = box.Lo[k]
			}
			if v[k] > box.Hi[k] {
				v[k] = box.Hi[k]
			}
		}
	}
	feasible := func(v []float64) bool {
		if lc == nil {
			return true
		}
		for j := range lc.C0 {
			if lc.Margin(j, v) < 0 {
				return false
			}
		}
		return true
	}

	cur := est.Yield(d)
	for iter := 0; iter < opts.MaxIter; iter++ {
		// Finite-difference yield gradient.
		grad := make([]float64, nd)
		norm := 0.0
		for k := 0; k < nd; k++ {
			h := opts.FDFrac * (box.Hi[k] - box.Lo[k])
			probe := append([]float64(nil), d...)
			probe[k] += h
			if probe[k] > box.Hi[k] {
				probe[k] = d[k] - h
				h = -h
			}
			grad[k] = (est.Yield(probe) - cur) / h
			norm += grad[k] * grad[k]
		}
		if norm == 0 {
			// Plateau: the gradient of the sampled yield estimate is
			// exactly zero — the failure mode the paper describes.
			break
		}
		norm = math.Sqrt(norm)

		// Backtracking line search along the gradient.
		improved := false
		for scale := 1.0; scale > 1.0/64; scale /= 2 {
			trial := append([]float64(nil), d...)
			for k := 0; k < nd; k++ {
				step := opts.StepFrac * (box.Hi[k] - box.Lo[k])
				trial[k] += scale * step * grad[k] / norm
			}
			clampBox(trial)
			if !feasible(trial) {
				continue
			}
			if y := est.Yield(trial); y > cur {
				d, cur = trial, y
				improved = true
				break
			}
		}
		if !improved {
			break
		}
		res.Moved = true
		res.Passes = iter + 1
	}
	res.D = d
	res.Yield = cur
	return res
}

// MaxMinBeta is the design-centering baseline of the worst-case-distance
// literature (the paper's ref. [10]): instead of maximizing the sampled
// yield estimate, it maximizes the smallest normalized margin
// min_i m̄_i(d)/‖∇_s m_i‖ — the smallest worst-case distance β under the
// linear models. The objective is concave piecewise-linear in d, so a
// cyclic ternary search per coordinate converges. It ignores how many
// specs are simultaneously endangered (the correlation information the
// sampled estimate carries), which is exactly the paper's argument for
// direct yield optimization; the comparison benchmark quantifies it.
func MaxMinBeta(box Box, est *linmodel.Estimator, lc *LinearConstraints, d0 []float64, opts Options) *Result {
	opts.Defaults()
	d := append([]float64(nil), d0...)
	res := &Result{}

	minBeta := func(dd []float64) float64 {
		worst := math.Inf(1)
		for _, m := range est.Models {
			norm := m.GradS.Norm2()
			if norm < 1e-12 {
				norm = 1e-12
			}
			if b := m.Margin(dd, m.S) / norm; b < worst {
				// Margin at the model's own linearization point S equals
				// its intercept; adding the d-term tracks the design.
				worst = b
			}
		}
		return worst
	}

	cur := minBeta(d)
	for pass := 0; pass < opts.MaxPasses; pass++ {
		moved := 0.0
		for k := range box.Lo {
			lo, hi := lc.AlphaInterval(box, d, k)
			if lo >= hi {
				continue
			}
			obj := func(alpha float64) float64 {
				d[k] += alpha
				v := minBeta(d)
				d[k] -= alpha
				return v
			}
			a, b := lo, hi
			for i := 0; i < 50 && b-a > 1e-9*(1+math.Abs(a)+math.Abs(b)); i++ {
				m1 := a + (b-a)/3
				m2 := b - (b-a)/3
				if obj(m1) < obj(m2) {
					a = m1
				} else {
					b = m2
				}
			}
			alpha := (a + b) / 2
			if v := obj(alpha); v > cur {
				d[k] += alpha
				cur = v
				moved += math.Abs(alpha)
			}
		}
		res.Passes = pass + 1
		if moved > opts.ShrinkTol {
			res.Moved = true
		} else {
			break
		}
	}
	res.D = d
	res.Yield = est.Yield(d)
	return res
}
