// Package mismatch implements the paper's Sec. 3: detection and ranking of
// mismatch-sensitive parameter pairs from worst-case points. A pair of
// statistical parameters whose worst-case components have equal magnitude
// and opposite sign lies on the "mismatch line" Δs_k = −Δs_l, and the
// measure m_kl^(i) (Eq. 9) combines three factors:
//
//   - Φ(arctan(s_k/s_l)): a selector that is 1 on the mismatch line and
//     fades to 0 toward the neutral line (Fig. 2);
//   - max(|s_k|,|s_l|)/s_max: a deviation weight emphasizing the pairs
//     that dominate the worst-case point;
//   - η(β_wc): a robustness weight that shrinks the measure of robust
//     specs and grows it for endangered ones (Fig. 3).
//
// The measure requires only the worst-case points already computed for
// yield optimization, so it costs no extra simulations; Analyze runs the
// worst-case analysis itself for a standalone report.
package mismatch

import (
	"context"
	"math"
	"sort"
	"strings"

	"specwise/internal/problem"
	"specwise/internal/wcd"
)

// Options holds the selector tolerances Δ1 and Δ2 (radians): Φ is 1
// within Δ1 of the mismatch line and 0 beyond Δ2.
type Options struct {
	Delta1 float64 // full-acceptance half-width (default π/16)
	Delta2 float64 // zero-crossing half-width (default π/8)
}

func (o *Options) defaults() {
	if o.Delta1 == 0 {
		o.Delta1 = math.Pi / 16
	}
	if o.Delta2 == 0 {
		o.Delta2 = math.Pi / 8
	}
}

// Phi is the mismatch-line selector of Eq. 9 / Fig. 2: a trapezoid over
// the angle arctan(s_k/s_l), peaking at −π/4 (the mismatch line, where
// s_k = −s_l) and vanishing at the neutral line +π/4. Because arctan of
// the ratio folds (s_k, s_l) and (−s_k, −s_l) together, both branches of
// the mismatch line map to the same angle.
func Phi(angle float64, opts Options) float64 {
	opts.defaults()
	dist := math.Abs(angle + math.Pi/4)
	switch {
	case dist <= opts.Delta1:
		return 1
	case dist >= opts.Delta2:
		return 0
	default:
		return (opts.Delta2 - dist) / (opts.Delta2 - opts.Delta1)
	}
}

// Eta is the robustness weight of Eq. 9 / Fig. 3 over the signed
// worst-case distance β: 1/2 at β = 0, approaching 1 for strongly
// violated specs (β → −∞) and 0 for very robust ones (β → +∞). It is
// continuously differentiable at 0.
func Eta(beta float64) float64 {
	if beta < 0 {
		return 1 - 1/(2*(-beta+1))
	}
	return 1 / (2 * (beta + 1))
}

// Measure is one pair's mismatch measure for one spec.
type Measure struct {
	K, L  int // indices into the worst-case point / parameter name list
	Value float64
}

// PairMeasure evaluates Eq. 9 for a single pair (k, l) of components of
// the worst-case point swc with signed worst-case distance beta.
func PairMeasure(swc []float64, beta float64, k, l int, opts Options) float64 {
	sk, sl := swc[k], swc[l]
	smax := 0.0
	for _, v := range swc {
		if a := math.Abs(v); a > smax {
			smax = a
		}
	}
	if smax == 0 {
		return 0
	}
	angle := math.Atan(sk / sl) // ±π/2 for sl → 0; NaN only for 0/0
	if math.IsNaN(angle) {
		return 0
	}
	dev := math.Max(math.Abs(sk), math.Abs(sl)) / smax
	return Eta(beta) * dev * Phi(angle, opts)
}

// Pairs evaluates the measure for the given candidate index pairs and
// returns them sorted by decreasing value. Candidates are typically the
// like-kind local parameters of device pairs (e.g. all ΔVth components).
func Pairs(swc []float64, beta float64, candidates [][2]int, opts Options) []Measure {
	out := make([]Measure, 0, len(candidates))
	for _, c := range candidates {
		out = append(out, Measure{
			K: c[0], L: c[1],
			Value: PairMeasure(swc, beta, c[0], c[1], opts),
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Value > out[j].Value })
	return out
}

// AllPairs builds the candidate list of every unordered index pair among
// the given indices.
func AllPairs(indices []int) [][2]int {
	var out [][2]int
	for i := 0; i < len(indices); i++ {
		for j := i + 1; j < len(indices); j++ {
			out = append(out, [2]int{indices[i], indices[j]})
		}
	}
	return out
}

// Report is one spec's mismatch analysis.
type Report struct {
	Beta float64 // signed worst-case distance of the spec
	// Pairs holds every like-kind candidate pair, sorted by decreasing
	// measure (Pairs' order).
	Pairs []Measure
}

// Analyze performs the mismatch analysis at design d, one report per
// spec in spec order: each spec's
// worst-case operating point (Eq. 2) and worst-case statistical point
// (Eq. 8, spec i's restarts seeded with seed+i), then the measure
// (Eq. 9) over every like-kind local parameter pair. Parameters are
// grouped by the suffix after the last '.', so "M1.dVth" pairs with
// "M2.dVth" but not with "M2.dBeta"; global parameters ("g." prefix or
// no '.') are excluded.
func Analyze(p *problem.Problem, d []float64, seed uint64) ([]Report, error) {
	thetaRes, err := wcd.WorstCaseTheta(p, d, make([]float64, p.NumStat()))
	if err != nil {
		return nil, err
	}
	wcs, err := wcd.SearchAll(context.Background(), p, d, thetaRes.PerSpec, wcd.Options{}, func(i int) uint64 {
		return seed + uint64(i)
	})
	if err != nil {
		return nil, err
	}
	candidates := likeKindPairs(p.StatNames)
	out := make([]Report, len(wcs))
	for i, wc := range wcs {
		out[i] = Report{Beta: wc.Beta, Pairs: Pairs(wc.S, wc.Beta, candidates, Options{})}
	}
	return out, nil
}

// likeKindPairs builds the index pairs of local statistical parameters
// that share a kind suffix (".dVth" with ".dVth", etc.), kinds in sorted
// order.
func likeKindPairs(names []string) [][2]int {
	byKind := make(map[string][]int)
	var kinds []string
	for i, n := range names {
		dot := strings.LastIndex(n, ".")
		if dot <= 0 || strings.HasPrefix(n, "g.") {
			continue // global or unnamed parameter
		}
		kind := n[dot:]
		if _, ok := byKind[kind]; !ok {
			kinds = append(kinds, kind)
		}
		byKind[kind] = append(byKind[kind], i)
	}
	sort.Strings(kinds)
	var out [][2]int
	for _, k := range kinds {
		out = append(out, AllPairs(byKind[k])...)
	}
	return out
}
