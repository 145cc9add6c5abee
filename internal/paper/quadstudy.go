package paper

import (
	"context"
	"math"

	"specwise/internal/circuits"
	"specwise/internal/core"
	"specwise/internal/linmodel"
	"specwise/internal/rng"
	"specwise/internal/wcd"
)

// QuadStudy quantifies the paper's claim that "no model of higher order is
// needed" for yield estimation once worst-case linearization and mirror
// models are in place. For the folded-cascode's CMRR — the quadratic
// mismatch-type performance — it compares the per-spec yield predicted by
// three model classes against a simulated Monte-Carlo reference:
//
//   - a single linearization at the worst-case point (Eq. 16 alone);
//   - the linearization plus its mirror (Eqs. 21–22, the paper's method);
//   - a radial quadratic: exact quadratic fit along the worst-case ray
//     through the three already-simulated points (s_wc, 0, −s_wc) with the
//     orthogonal directions kept linear — the cheapest genuine
//     second-order alternative.
type QuadStudy struct {
	MCYield       float64 // simulated per-spec reference
	LinearYield   float64
	MirrorYield   float64
	QuadYield     float64
	LinearErr     float64 // |model − reference|
	MirrorErr     float64
	QuadErr       float64
	ModelSamples  int
	VerifySamples int
}

// RunQuadStudy executes the study at the folded-cascode initial design.
func RunQuadStudy(modelSamples, verifySamples int) (*QuadStudy, error) {
	p := circuits.FoldedCascodeProblem()
	d := p.InitialDesign()
	const specIdx = 2 // CMRR
	thetaRes, err := wcd.WorstCaseTheta(p, d, make([]float64, p.NumStat()))
	if err != nil {
		return nil, err
	}
	theta := thetaRes.PerSpec[specIdx]
	wc, err := wcd.SearchSpec(context.Background(), p, d, theta, specIdx, wcd.Options{Seed: Seed})
	if err != nil {
		return nil, err
	}

	// Linear and mirror models through the standard builder.
	mkWcs := func() []*wcd.WorstCase {
		out := make([]*wcd.WorstCase, p.NumSpecs())
		for i := range out {
			out[i] = wc // only spec 2 is evaluated below
		}
		return out
	}
	buildFor := func(mirror bool) ([]*linmodel.SpecModel, error) {
		models, err := linmodel.Build(p, d, mkWcs(), thetaRes.PerSpec, linmodel.BuildOptions{MirrorSpecs: mirror})
		if err != nil {
			return nil, err
		}
		var cmrr []*linmodel.SpecModel
		for _, m := range models {
			if m.Spec == specIdx {
				cmrr = append(cmrr, m)
			}
		}
		return cmrr, nil
	}
	linModels, err := buildFor(false)
	if err != nil {
		return nil, err
	}
	mirModels, err := buildFor(true)
	if err != nil {
		return nil, err
	}

	// Radial quadratic: fit q(t) through (t=1, 0), (0, m0), (−1, mMirror).
	r := wc.S.Norm2()
	u := wc.S.Clone().Scale(1 / r)
	m0 := wc.MarginNominal
	mirrorS := wc.S.Clone().Scale(-1)
	mMirror, err := wcd.SpecMargin(context.Background(), p, d, theta, specIdx)(mirrorS)
	if err != nil {
		return nil, err
	}
	if math.IsNaN(mMirror) {
		mMirror = 0
	}
	qa := (mMirror+0)/2 - m0
	qc := m0
	qb := -(qa + qc)
	gradPerp := wc.GradS.Clone()
	gu := gradPerp.Dot(u)
	gradPerp.AddScaled(-gu, u)

	quadMargin := func(s []float64) float64 {
		su := 0.0
		for i := range s {
			su += s[i] * u[i]
		}
		t := su / r
		v := qa*t*t + qb*t + qc
		for i := range s {
			v += gradPerp[i] * (s[i] - su*u[i])
		}
		return v
	}

	// Evaluate all three on one common sample stream.
	rs := rng.New(Seed + 99)
	s := make([]float64, p.NumStat())
	passLin, passMir, passQuad := 0, 0, 0
	for j := 0; j < modelSamples; j++ {
		rs.NormVector(s)
		ok := true
		for _, m := range linModels {
			if m.Margin(d, s) < 0 {
				ok = false
				break
			}
		}
		if ok {
			passLin++
		}
		ok = true
		for _, m := range mirModels {
			if m.Margin(d, s) < 0 {
				ok = false
				break
			}
		}
		if ok {
			passMir++
		}
		if quadMargin(s) >= 0 {
			passQuad++
		}
	}

	// Simulated per-spec reference.
	mc, err := core.VerifyMC(p, d, thetaRes.PerSpec, verifySamples, Seed+7)
	if err != nil {
		return nil, err
	}
	ref := 1 - float64(mc.BadPerSpec[specIdx])/float64(verifySamples)

	st := &QuadStudy{
		MCYield:       ref,
		LinearYield:   float64(passLin) / float64(modelSamples),
		MirrorYield:   float64(passMir) / float64(modelSamples),
		QuadYield:     float64(passQuad) / float64(modelSamples),
		ModelSamples:  modelSamples,
		VerifySamples: verifySamples,
	}
	st.LinearErr = math.Abs(st.LinearYield - ref)
	st.MirrorErr = math.Abs(st.MirrorYield - ref)
	st.QuadErr = math.Abs(st.QuadYield - ref)
	return st, nil
}
