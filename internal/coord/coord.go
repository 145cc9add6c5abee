// Package coord implements the feasibility-guided coordinate search of the
// paper's Eq. 19: one design coordinate at a time, the sampled yield
// estimate Ȳ is maximized exactly over the segment allowed by the design
// box and the linearized functional constraints. Because every sample's
// pass/fail condition is linear in the step α, each sample passes on an
// interval of α values; a sweep over the interval endpoints finds the
// globally best α for that coordinate without any grid.
//
// When the estimate ties (notably on the Ȳ = 0 plateaus of Fig. 5 where a
// gradient would vanish), a concave secondary objective — the mean over
// samples of the minimum model margin — breaks the tie, so the search
// still moves toward the acceptance region from arbitrarily bad starts.
package coord

import (
	"math"
	"slices"

	"specwise/internal/linmodel"
	"specwise/internal/sched"
)

// Box is the design-space box constraint: Lo[k] <= d[k] <= Hi[k].
// Log[k] marks multiplicatively acting coordinates (sizes), which get a
// ratio-based trust band instead of an additive one.
type Box struct {
	Lo, Hi []float64
	Log    []bool
}

// LinearConstraints is the linearized feasibility region of Eq. 15:
// C0[j] + J[j]·(d − Df) >= 0.
type LinearConstraints struct {
	Df []float64
	C0 []float64
	J  [][]float64 // len(C0) rows × len(Df) columns
}

// Margin evaluates constraint j's linearized margin at d.
func (lc *LinearConstraints) Margin(j int, d []float64) float64 {
	v := lc.C0[j]
	for k := range d {
		v += lc.J[j][k] * (d[k] - lc.Df[k])
	}
	return v
}

// AlphaInterval intersects the allowed step range along coordinate k at
// design d: box bounds first, then every linearized constraint.
// It returns lo > hi when no feasible step exists.
func (lc *LinearConstraints) AlphaInterval(box Box, d []float64, k int) (lo, hi float64) {
	lo, hi = box.Lo[k]-d[k], box.Hi[k]-d[k]
	if lc == nil {
		return lo, hi
	}
	for j := range lc.C0 {
		c := lc.Margin(j, d)
		g := lc.J[j][k]
		switch {
		case g > 1e-15:
			if b := -c / g; b > lo {
				lo = b
			}
		case g < -1e-15:
			if b := -c / g; b < hi {
				hi = b
			}
		default:
			if c < 0 {
				// Constraint violated and insensitive to this axis: the
				// whole segment is (linearly) infeasible.
				return 1, -1
			}
		}
	}
	return lo, hi
}

// Options tunes the coordinate search.
type Options struct {
	MaxPasses int     // full sweeps over all coordinates (default 8)
	MinGain   int     // samples gained to accept a move (default 1)
	ShrinkTol float64 // stop when no coordinate moved more than this (default 1e-6)
	// TrustFactor limits each log-scaled coordinate's total move per
	// Search call to the multiplicative band [d0/TrustFactor,
	// d0·TrustFactor]; linearly acting coordinates get an additive band
	// of ±TrustFrac of their box range instead. The linear models are
	// local; letting the search run to the far side of the box is
	// exactly the kind of extrapolation the paper's feasibility region
	// exists to prevent. Default 2.5; values >= 1e9 disable.
	TrustFactor float64
	// TrustFrac is the additive trust band for linear coordinates as a
	// fraction of the box range (default 0.35).
	TrustFrac float64
}

func (o *Options) defaults() {
	if o.MaxPasses == 0 {
		o.MaxPasses = 8
	}
	if o.MinGain == 0 {
		o.MinGain = 1
	}
	if o.ShrinkTol == 0 {
		o.ShrinkTol = 1e-6
	}
	if o.TrustFactor <= 0 {
		o.TrustFactor = 2.5
	}
	if o.TrustFrac <= 0 {
		o.TrustFrac = 0.35
	}
}

// Result reports the search outcome.
type Result struct {
	D       []float64
	Yield   float64 // final estimated yield over the models
	Passes  int
	Moved   bool
	History []float64 // estimated yield after each pass
}

// Search maximizes the sampled yield estimate over d within the linearized
// feasibility polytope, coordinate by coordinate, until a full pass makes
// no progress.
func Search(box Box, est *linmodel.Estimator, lc *LinearConstraints, d0 []float64, opts Options) *Result {
	opts.defaults()
	d := append([]float64(nil), d0...)
	res := &Result{}

	var w scratch
	bestCount, _ := est.Count(d)
	for pass := 0; pass < opts.MaxPasses; pass++ {
		movedThisPass := 0.0
		for k := range box.Lo {
			lo, hi := lc.AlphaInterval(box, d, k)
			{
				// Total per-coordinate move since the start of the search
				// stays within the trust band around d0: multiplicative
				// for sizes, additive for everything else.
				var up, down float64
				if len(box.Log) > k && box.Log[k] {
					up = (opts.TrustFactor - 1) * math.Abs(d0[k])
					down = math.Abs(d0[k]) * (1 - 1/opts.TrustFactor)
				} else {
					up = opts.TrustFrac * (box.Hi[k] - box.Lo[k])
					down = up
				}
				if l := d0[k] - down - d[k]; l > lo {
					lo = l
				}
				if h := d0[k] + up - d[k]; h < hi {
					hi = h
				}
			}
			if lo > hi {
				continue
			}
			est.Coordinate(&w.cd, d, k)
			cd := w.cd
			alpha, count := w.bestAlpha(cd, lo, hi, est.N)
			if count >= bestCount+opts.MinGain && alpha != 0 {
				d[k] += alpha
				bestCount = count
				movedThisPass += math.Abs(alpha)
				continue
			}
			// Tie (plateau): move along the concave mean-min-margin
			// surrogate as long as it does not lose samples.
			if alphaT := w.tieBreakAlpha(cd, lo, hi, est.N); alphaT != 0 {
				if cnt := countAt(cd, alphaT, est.N); cnt >= bestCount {
					d[k] += alphaT
					bestCount = cnt
					movedThisPass += math.Abs(alphaT)
				}
			}
		}
		res.Passes = pass + 1
		res.History = append(res.History, float64(bestCount)/float64(est.N))
		if movedThisPass > opts.ShrinkTol {
			res.Moved = true
		}
		if movedThisPass <= opts.ShrinkTol {
			break
		}
	}
	res.D = d
	res.Yield = float64(bestCount) / float64(est.N)
	return res
}

// block is the number of consecutive samples one worker takes at a time
// in the per-sample loops. It is fixed, not derived from GOMAXPROCS, and
// every block writes only its own samples' results, so the outcome does
// not depend on how many workers join.
const block = 1024

// blocks is the number of blocks covering n samples; block k spans
// samples [k·block, min((k+1)·block, n)). The per-sample loops run the
// blocks as the indices of the process-wide scheduler's caller-runs loop,
// so a single block runs inline without starting a goroutine.
func blocks(n int) int { return (n + block - 1) / block }

// scratch is one search's reusable per-sample workspace: the coordinate
// data, the tie-break's per-sample minima and slopes, and the event
// sweep's intervals and endpoint lists.
type scratch struct {
	cd             linmodel.CoordinateData
	minM, sLo, sHi []float64
	l, h           []float64
	opens, closes  []float64
}

// grow returns buf resized to n, reallocating only when it is too short.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// bestAlpha finds the α in [lo, hi] maximizing the passing-sample count by
// an event sweep: each sample passes on an interval [l_j, h_j] of α
// (intersection of its per-model half-lines), and the best α lies on a
// maximal overlap of those intervals. Ties prefer the smallest |α| and the
// returned α is centered within its plateau for robustness.
//
// The intervals are computed block-parallel by sample index; the open and
// close abscissae are then collected in sample order, sorted as plain
// values and merged opens-first on ties, which is exactly the event order
// of one sort over (x, open-before-close) pairs.
func (w *scratch) bestAlpha(cd linmodel.CoordinateData, lo, hi float64, n int) (float64, int) {
	w.l, w.h = grow(w.l, n), grow(w.h, n)
	sched.Default().For(blocks(n), func(_, k int) bool {
		b0, b1 := k*block, min((k+1)*block, n)
		for j := b0; j < b1; j++ {
			l, h, ok := sampleInterval(cd, j, lo, hi)
			if !ok {
				l, h = math.Inf(1), math.Inf(-1)
			}
			w.l[j], w.h[j] = l, h
		}
		return true
	})
	opens, closes := grow(w.opens, n)[:0], grow(w.closes, n)[:0]
	for j := 0; j < n; j++ {
		if w.l[j] <= w.h[j] {
			opens = append(opens, w.l[j])
			closes = append(closes, w.h[j])
		}
	}
	w.opens, w.closes = opens, closes
	if len(opens) == 0 {
		return 0, 0
	}
	slices.Sort(opens)
	slices.Sort(closes)
	// Sweep the merged events. The k-th smallest close is never below the
	// k-th smallest open, so a close is pending whenever an open is. A new
	// best plateau runs from its open to the next event; when that is an
	// open strictly before the pending close, the count rises again there
	// and replaces this plateau, so the plateau that survives always ends
	// at the pending close.
	bestCount, cur := 0, 0
	bestL, bestR := 0.0, 0.0
	for i, k := 0, 0; i < len(opens); {
		if opens[i] <= closes[k] {
			cur++
			if cur > bestCount {
				bestCount, bestL, bestR = cur, opens[i], closes[k]
			}
			i++
		} else {
			cur--
			k++
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

// sampleInterval intersects sample j's pass conditions over all models
// with the feasible segment.
func sampleInterval(cd linmodel.CoordinateData, j int, lo, hi float64) (l, h float64, ok bool) {
	l, h = lo, hi
	for m := range cd.G {
		c := cd.C[m][j]
		g := cd.G[m]
		switch {
		case g > 1e-15:
			if b := -c / g; b > l {
				l = b
			}
		case g < -1e-15:
			if b := -c / g; b < h {
				h = b
			}
		default:
			if c < 0 {
				return 0, 0, false
			}
		}
	}
	return l, h, l <= h
}

// countAt counts passing samples at step α.
func countAt(cd linmodel.CoordinateData, alpha float64, n int) int {
	count := 0
	for j := 0; j < n; j++ {
		ok := true
		for m := range cd.G {
			if cd.C[m][j]+cd.G[m]*alpha < 0 {
				ok = false
				break
			}
		}
		if ok {
			count++
		}
	}
	return count
}

// tieBreakAlpha maximizes the mean over samples of the minimum model
// margin — a concave piecewise-linear function of α — exactly. Each
// evaluation returns the one-sided derivatives alongside the value, and
// a tangent-intersection search (Newton's method for piecewise-linear
// concave functions, with a midpoint safeguard) closes in on the plateau
// whose subgradient contains zero. Each step costs one O(n·m) pass,
// versus the ~120 passes of the former 60-iteration ternary search, and
// the returned α lies exactly inside the optimum plateau. On the paper's
// Fig.-5 zero plateaus this pulls the design toward the acceptance
// region even though the count objective is flat.
//
// The per-sample minima and slopes are computed block-parallel, each block
// writing only its own samples; the three sums stay one serial
// left-to-right loop, so every evaluation is bit-identical to a
// single-threaded one.
func (w *scratch) tieBreakAlpha(cd linmodel.CoordinateData, lo, hi float64, n int) float64 {
	if len(cd.G) == 0 || lo >= hi {
		return 0
	}
	minM, sLo, sHi := grow(w.minM, n), grow(w.sLo, n), grow(w.sHi, n)
	w.minM, w.sLo, w.sHi = minM, sLo, sHi
	// eval computes F(α) = mean_j min_m (C[m][j] + G[m]·α)·Scale[m] with
	// its one-sided derivatives: F'₊ averages the smallest slope tied at
	// each sample's minimum, F'₋ the largest. Within a block the model
	// loop is outermost so each C[m] row streams sequentially; the
	// per-element arithmetic and the final left-to-right summation match
	// the naive sample-major double loop exactly, so the maximizer is
	// unchanged.
	eval := func(alpha float64) (f, dMinus, dPlus float64) {
		sched.Default().For(blocks(n), func(_, k int) bool {
			b0, b1 := k*block, min((k+1)*block, n)
			minM, sLo, sHi := minM[b0:b1], sLo[b0:b1], sHi[b0:b1]
			inf := math.Inf(1)
			for j := range minM {
				minM[j] = inf
				sLo[j], sHi[j] = 0, 0
			}
			for m := range cd.G {
				row := cd.C[m][b0:b1]
				shift := cd.G[m] * alpha
				scale := cd.Scale[m]
				s := cd.G[m] * scale
				for j, c := range row {
					v := (c + shift) * scale
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
			return true
		})
		var tf, tm, tp float64
		for j := 0; j < n; j++ {
			tf += minM[j]
			tm += sHi[j]
			tp += sLo[j]
		}
		fn := float64(n)
		return tf / fn, tm / fn, tp / fn
	}
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
