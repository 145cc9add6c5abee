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

// Defaults fills every unset option with its default. Search and
// MaxMinBeta apply it to their own copy; a caller that derives
// options from the effective values (feasguided halves the trust bands
// on a rejected step) applies it once up front.
func (o *Options) Defaults() {
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
	opts.Defaults()
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
// data, the event sweep's intervals and endpoint lists, and the
// tie-break's evaluator with its cache.
type scratch struct {
	cd            linmodel.CoordinateData
	l, h          []float64
	opens, closes []float64
	tie           tieEval
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
// whose subgradient contains zero. The returned α lies exactly inside the
// optimum plateau. On the paper's Fig.-5 zero plateaus this pulls the
// design toward the acceptance region even though the count objective
// is flat.
//
// The evaluations go through tieEval, whose per-sample cache of binding
// models makes most of a sample's evaluations one model line instead of
// all of them while returning the bits a full scan would.
func (w *scratch) tieBreakAlpha(cd linmodel.CoordinateData, lo, hi float64, n int) float64 {
	if len(cd.G) == 0 || lo >= hi {
		return 0
	}
	w.tie.reset(cd, lo, hi, n)
	eval := w.tie.eval
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

// Margins of the certified intervals. For |α| <= X a model line's
// computed value (C + G·α)·Scale differs from the exact one by at most
// ~3.1u times its magnitude bound (|C| + |G|·X)·|Scale| (u = 2⁻⁵³), plus
// underflow terms of a few 2⁻¹⁰⁷⁵ scaled by |Scale|, X or a slope
// difference; computing a crossing adds errors of the same kinds. The
// certified gap E exceeds all of them by a factor of about 10⁶ (certRel)
// and 2⁷⁵ (certAbs). certMax keeps every intermediate below overflow.
const (
	certRel = 1e-9
	certAbs = 0x1p-1000
	certMax = 1e300
)

// tieEval evaluates the tie-break objective
//
//	F(α) = mean_j min_m (C[m][j] + G[m]·α)·Scale[m]
//
// with its one-sided derivatives: F'₊ averages the smallest slope
// G[m]·Scale[m] tied at each sample's minimum, F'₋ the largest.
//
// Along one coordinate most samples keep the same minimal model over a
// wide range of α, so each sample caches its binding model b and a
// certified interval [ilo, ihi] ⊂ [−X, X], X = max(|lo|, |hi|), on which
// every other model m lies above b by more than the margin
//
//	E = certRel·(B_m + B_b) + certAbs·(1 + X + |S_m| + |S_b| + |G_m·S_m − G_b·S_b|),
//
// where B_i = (max_j |C_i[j]| + |G_i|·X)·|S_i| bounds line i's magnitude
// over the finite samples on [−X, X]. The interval is the intersection
// of the half-lines where the difference line
// (C_m·S_m − C_b·S_b) + (G_m·S_m − G_b·S_b)·α exceeds E. E dwarfs every
// rounding error of the computed lines and crossings (see certRel), so
// inside the interval the computed value of b is strictly below every
// other computed value: the full scan's < and == comparisons would keep
// b alone, with min = b's value and both slopes = b's slope. A query
// inside the interval therefore computes only b's line, with the full
// scan's expression. Any other query runs the full model loop, with its
// exact tie and NaN semantics, and re-certifies the sample at the
// binding model it found. A tie at α leaves an interval that excludes α
// (duplicate lines leave it empty); a NaN or ±Inf margin, or a bound
// above certMax, leaves the sample uncached.
//
// The per-sample work runs block-parallel, each block writing only its
// own samples; the three sums stay one serial left-to-right loop. Every
// evaluation is therefore bit-identical to the single-threaded full scan
// whatever the cache holds and however the scheduler splits the blocks.
type tieEval struct {
	cd   linmodel.CoordinateData
	n    int
	x    float64
	warm bool // the cache holds this reset's certificates

	// Per model: the line's terms, and max_j |C[j]| over the finite
	// samples (−1 when B exceeds certMax) with the bound B itself.
	lines       []tieLine
	cmax, bound []float64
	// Per ordered pair (b, m), at b·len(G)+m: E and the reciprocal of
	// the slope difference (0 for parallel lines). A pair whose E or
	// reciprocal is out of range gets reciprocal 0 and E = +Inf, so it
	// never certifies.
	inv, e []float64
	// Per sample: the value and slopes of the current query, the cached
	// binding model, its C and its certified interval (empty when
	// ilo > ihi).
	minM, sLo, sHi []float64
	best           []int32
	cb, ilo, ihi   []float64
}

// tieLine is model m's line at the current query: its value at sample
// j is (C[m][j] + shift)·scale, its slope in α is slope.
type tieLine struct {
	shift, scale, slope float64 // G·α, Scale, G·Scale
}

// reset binds the evaluator to one coordinate's data and bracket and
// drops the previous certificates.
func (t *tieEval) reset(cd linmodel.CoordinateData, lo, hi float64, n int) {
	nm := len(cd.G)
	t.cd, t.n, t.warm = cd, n, false
	t.x = max(math.Abs(lo), math.Abs(hi))
	if cap(t.lines) < nm {
		t.lines = make([]tieLine, nm)
	}
	t.lines = t.lines[:nm]
	t.cmax, t.bound = grow(t.cmax, nm), grow(t.bound, nm)
	for m, g := range cd.G {
		scale := cd.Scale[m]
		t.lines[m] = tieLine{scale: scale, slope: g * scale}
		cmax := 0.0
		for _, c := range cd.C[m][:n] {
			if a := math.Abs(c); a > cmax && a <= math.MaxFloat64 {
				cmax = a
			}
		}
		t.bound[m] = (cmax + math.Abs(g)*t.x) * math.Abs(scale)
		if !(t.bound[m] <= certMax) {
			cmax = -1
		}
		t.cmax[m] = cmax
	}
	t.inv, t.e = grow(t.inv, nm*nm), grow(t.e, nm*nm)
	for b, lb := range t.lines {
		for m, lm := range t.lines {
			ds := lm.slope - lb.slope
			e := certRel*(t.bound[m]+t.bound[b]) +
				certAbs*(1+t.x+math.Abs(lm.scale)+math.Abs(lb.scale)+math.Abs(ds))
			inv := 0.0
			if ds != 0 {
				inv = 1 / ds
			}
			if !(e <= certMax) || !(math.Abs(inv) <= math.MaxFloat64) {
				inv, e = 0, math.Inf(1)
			}
			t.inv[b*nm+m], t.e[b*nm+m] = inv, e
		}
	}
	t.minM, t.sLo, t.sHi = grow(t.minM, n), grow(t.sLo, n), grow(t.sHi, n)
	t.cb, t.ilo, t.ihi = grow(t.cb, n), grow(t.ilo, n), grow(t.ihi, n)
	if cap(t.best) < n {
		t.best = make([]int32, n)
	}
	t.best = t.best[:n]
}

// eval returns F(α), F'₋(α) and F'₊(α).
func (t *tieEval) eval(alpha float64) (f, dMinus, dPlus float64) {
	for m, g := range t.cd.G {
		t.lines[m].shift = g * alpha
	}
	warm, n := t.warm, t.n
	sched.Default().For(blocks(n), func(_, k int) bool {
		b0, b1 := k*block, min((k+1)*block, n)
		if !warm {
			for j := b0; j < b1; j++ {
				t.scan(j)
			}
			return true
		}
		lines := t.lines
		best, cb, ilo, ihi := t.best[b0:b1], t.cb[b0:b1], t.ilo[b0:b1], t.ihi[b0:b1]
		minM, sLo, sHi := t.minM[b0:b1], t.sLo[b0:b1], t.sHi[b0:b1]
		for i, l := range ilo {
			if alpha >= l && alpha <= ihi[i] {
				ln := &lines[best[i]]
				minM[i] = (cb[i] + ln.shift) * ln.scale
				sLo[i], sHi[i] = ln.slope, ln.slope
			} else {
				t.scan(b0 + i)
			}
		}
		return true
	})
	t.warm = true
	minM, sLo, sHi := t.minM[:n], t.sLo[:n], t.sHi[:n]
	var tf, tm, tp float64
	for j := range minM {
		tf += minM[j]
		tm += sHi[j]
		tp += sLo[j]
	}
	fn := float64(n)
	return tf / fn, tm / fn, tp / fn
}

// scan runs the full model loop for sample j at the current query and
// re-certifies the sample at the binding model it finds.
func (t *tieEval) scan(j int) {
	C, lines := t.cd.C, t.lines
	minV, lo, hi := math.Inf(1), 0.0, 0.0
	b := -1
	for m, row := range C {
		ln := &lines[m]
		v := (row[j] + ln.shift) * ln.scale
		s := ln.slope
		if v < minV {
			minV, lo, hi, b = v, s, s, m
		} else if v == minV {
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
		}
	}
	t.minM[j], t.sLo[j], t.sHi[j] = minV, lo, hi
	t.ilo[j], t.ihi[j] = 1, -1
	if b < 0 {
		return
	}
	t.best[j], t.cb[j] = int32(b), C[b][j]
	t.ilo[j], t.ihi[j] = t.certify(j, b)
}

// certify returns the interval of α in [−X, X] on which model b is
// certified to be sample j's strict computed minimum (see tieEval); it
// is empty (lo > hi) when there is none.
func (t *tieEval) certify(j, b int) (lo, hi float64) {
	C, lines, cmax := t.cd.C, t.lines, t.cmax
	nm := len(C)
	inv, e := t.inv[b*nm:(b+1)*nm], t.e[b*nm:(b+1)*nm]
	cb := C[b][j]
	if !(math.Abs(cb) <= cmax[b]) {
		return 1, -1
	}
	csb := cb * lines[b].scale
	lo, hi = -t.x, t.x
	for m, row := range C {
		c := row[j]
		if m == b {
			continue
		}
		if !(math.Abs(c) <= cmax[m]) {
			return 1, -1
		}
		// e, the intercept difference a and inv are finite, so the
		// crossing is a number or ±Inf, never NaN.
		a := c*lines[m].scale - csb
		switch d := inv[m]; {
		case d > 0:
			lo = max(lo, (e[m]-a)*d)
		case d < 0:
			hi = min(hi, (e[m]-a)*d)
		case !(a > e[m]):
			return 1, -1
		}
	}
	return lo, hi
}
