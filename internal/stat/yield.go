package stat

import "math"

// YieldEstimate is a Monte-Carlo pass/fail tally with its confidence
// interval, the Ỹ of the paper's Eq. (6).
type YieldEstimate struct {
	Pass, Total int
	// Lo, Hi is the 95% Wilson score interval for the true yield.
	Lo, Hi float64
}

// Yield returns the point estimate Pass/Total (0 for an empty tally).
func (e YieldEstimate) Yield() float64 {
	if e.Total == 0 {
		return 0
	}
	return float64(e.Pass) / float64(e.Total)
}

// NewYieldEstimate builds the estimate together with its 95% Wilson
// interval, which stays well-behaved at 0% and 100% — exactly the regimes
// the paper's tables visit.
func NewYieldEstimate(pass, total int) YieldEstimate {
	e := YieldEstimate{Pass: pass, Total: total}
	if total == 0 {
		return e
	}
	const z = 1.959963984540054 // 97.5% normal quantile
	n := float64(total)
	p := float64(pass) / n
	den := 1 + z*z/n
	center := (p + z*z/(2*n)) / den
	half := z * math.Sqrt(p*(1-p)/n+z*z/(4*n*n)) / den
	e.Lo = math.Max(0, center-half)
	e.Hi = math.Min(1, center+half)
	// The interval endpoints are exact at the boundary tallies; protect
	// them from rounding in the rational expressions above.
	if pass == 0 {
		e.Lo = 0
	}
	if pass == total {
		e.Hi = 1
	}
	return e
}

// Moments accumulates streaming mean and variance (Welford's algorithm),
// used to report the paper's Table-2 per-performance μ and σ shifts.
type Moments struct {
	N        int
	mean, m2 float64
}

// Add folds one observation into the accumulator.
func (m *Moments) Add(x float64) {
	m.N++
	d := x - m.mean
	m.mean += d / float64(m.N)
	m.m2 += d * (x - m.mean)
}

// Mean returns the sample mean (0 if empty).
func (m *Moments) Mean() float64 { return m.mean }

// Variance returns the unbiased sample variance (0 if fewer than 2 points).
func (m *Moments) Variance() float64 {
	if m.N < 2 {
		return 0
	}
	return m.m2 / float64(m.N-1)
}

// Sigma returns the sample standard deviation.
func (m *Moments) Sigma() float64 { return math.Sqrt(m.Variance()) }
