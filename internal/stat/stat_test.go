package stat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{1.959963984540054, 0.975},
		{3, 0.9986501019683699},
		{-3, 0.0013498980316301035},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("NormalCDF(%v) = %v want %v", c.x, got, c.want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-10, 1e-6, 0.001, 0.025, 0.3, 0.5, 0.7, 0.975, 0.999, 1 - 1e-9} {
		x := NormalQuantile(p)
		if got := NormalCDF(x); math.Abs(got-p) > 1e-12*math.Max(1, 1/p) {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

func TestNormalQuantileEdges(t *testing.T) {
	if !math.IsInf(NormalQuantile(0), -1) {
		t.Error("Quantile(0) != -Inf")
	}
	if !math.IsInf(NormalQuantile(1), 1) {
		t.Error("Quantile(1) != +Inf")
	}
	if !math.IsNaN(NormalQuantile(-0.1)) || !math.IsNaN(NormalQuantile(1.1)) {
		t.Error("Quantile outside [0,1] should be NaN")
	}
	if NormalQuantile(0.5) != 0 && math.Abs(NormalQuantile(0.5)) > 1e-15 {
		t.Errorf("Quantile(0.5) = %v", NormalQuantile(0.5))
	}
}

// Property: quantile is monotone increasing.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(a, b float64) bool {
		pa := math.Abs(math.Mod(a, 1))
		pb := math.Abs(math.Mod(b, 1))
		if pa == 0 || pb == 0 || pa == pb {
			return true
		}
		if pa > pb {
			pa, pb = pb, pa
		}
		return NormalQuantile(pa) < NormalQuantile(pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The worst-case-distance-to-yield map Y = Φ(β) and its inverse.
func TestYieldBetaRoundTrip(t *testing.T) {
	for _, beta := range []float64{-3, -1, 0, 0.5, 2, 4} {
		y := NormalCDF(beta)
		if got := NormalQuantile(y); math.Abs(got-beta) > 1e-9 {
			t.Errorf("round trip beta %v -> %v", beta, got)
		}
	}
	if NormalCDF(0) != 0.5 {
		t.Error("beta 0 should give 50% yield")
	}
	if NormalCDF(3) < 0.99 {
		t.Error("beta 3 should give >99% yield")
	}
}

func TestYieldEstimate(t *testing.T) {
	e := NewYieldEstimate(90, 100)
	if e.Yield() != 0.9 {
		t.Errorf("yield = %v", e.Yield())
	}
	if e.Lo >= 0.9 || e.Hi <= 0.9 {
		t.Errorf("interval [%v, %v] must bracket 0.9", e.Lo, e.Hi)
	}
	if e.Lo < 0.8 || e.Hi > 0.97 {
		t.Errorf("interval [%v, %v] implausibly wide", e.Lo, e.Hi)
	}
}

func TestYieldEstimateExtremes(t *testing.T) {
	zero := NewYieldEstimate(0, 300)
	if zero.Yield() != 0 || zero.Lo != 0 || zero.Hi <= 0 || zero.Hi > 0.05 {
		t.Errorf("zero-yield interval [%v,%v]", zero.Lo, zero.Hi)
	}
	full := NewYieldEstimate(300, 300)
	if full.Yield() != 1 || full.Hi != 1 || full.Lo >= 1 || full.Lo < 0.95 {
		t.Errorf("full-yield interval [%v,%v]", full.Lo, full.Hi)
	}
	empty := NewYieldEstimate(0, 0)
	if empty.Yield() != 0 {
		t.Error("empty estimate must be 0")
	}
}

func TestMomentsWelford(t *testing.T) {
	var m Moments
	data := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range data {
		m.Add(x)
	}
	if math.Abs(m.Mean()-5) > 1e-12 {
		t.Errorf("mean = %v", m.Mean())
	}
	// Unbiased variance of that classic dataset is 32/7.
	if math.Abs(m.Variance()-32.0/7.0) > 1e-12 {
		t.Errorf("variance = %v", m.Variance())
	}
	if math.Abs(m.Sigma()-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Errorf("sigma = %v", m.Sigma())
	}
}

func TestMomentsEmptyAndSingle(t *testing.T) {
	var m Moments
	if m.Variance() != 0 || m.Mean() != 0 {
		t.Error("empty moments must be zero")
	}
	m.Add(3)
	if m.Mean() != 3 || m.Variance() != 0 {
		t.Error("single observation: mean 3, variance 0")
	}
}

// Property: Wilson interval always brackets the point estimate and stays
// within [0, 1].
func TestWilsonIntervalProperty(t *testing.T) {
	f := func(passRaw, totalRaw uint16) bool {
		total := int(totalRaw%1000) + 1
		pass := int(passRaw) % (total + 1)
		e := NewYieldEstimate(pass, total)
		y := e.Yield()
		return e.Lo >= 0 && e.Hi <= 1 && e.Lo <= y+1e-12 && e.Hi >= y-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
