package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"specwise/internal/linmodel"
	"specwise/internal/rng"
	"specwise/internal/wcd"
)

// cem is the alternative search backend: a risk-sensitive
// cross-entropy sampler in the spirit of GLOVA's yield optimization.
// Instead of linearizing specs and walking the model's yield surface,
// it maintains a Gaussian sampling distribution over the (normalized)
// design box and iteratively narrows it around elite candidates. Each
// candidate is scored by a risk-sensitive soft-min of its spec margins
// over a fixed set of statistical samples (common random numbers, so
// generations are comparable), evaluated at the worst-case operating
// points found at the starting design; infeasible candidates are ranked
// by constraint violation without spending performance simulations.
// When progress stalls the distribution re-widens — the random-restart
// element. Every draw comes from one sequential stream derived from
// Options.Seed, so runs are bit-deterministic like the default backend.
//
// The engine's shared analysis (worst-case distances, spec-wise models,
// MC verification) still brackets the run: the initial and final
// designs get full Analyze records, so results carry the same table
// blocks as feasguided runs and verify the same way.
type cem struct {
	// Sampling distribution over normalized [0,1] design coordinates.
	mean, sigma []float64

	// Fixed scoring machinery, set up at Init.
	samples [][]float64 // common statistical samples, one stream for the run
	thetas  [][]float64 // distinct worst-case operating points
	wants   [][]bool    // per θ, the specs judged there
	scale   []float64   // per-spec margin normalizer (sample σ at the start)
	cscale  []float64   // per-constraint violation normalizer
	r       *rng.Rand

	best      []float64
	bestScore float64
	stall     int // generations without a new best (drives re-widening)

	gen, generations int
	pop, elites      int
	kappa            float64
}

// Tuning constants. Population and sample counts scale with the problem
// (design dimension, Options.ModelSamples) inside Init.
const (
	cemSigmaInit  = 0.25 // initial spread, as a fraction of the normalized box
	cemSigmaFloor = 0.01
	cemSigmaDone  = 0.02 // converged when every coordinate narrows below this
	cemSmooth     = 0.7  // elite-update smoothing
	cemRiskKappa  = 2.0  // risk aversion of the soft-min objective
)

// Init freezes the scoring machinery from the engine's analyzed
// starting point: the worst-case operating points, the common
// statistical samples and the per-spec margin scales.
func (b *cem) Init(ctx context.Context, e *Engine, start *Iteration, _ *linmodel.Estimator) error {
	p := e.Problem()
	opts := e.Options()
	d := start.Design

	// Distinct worst-case operating points from the initial analysis;
	// candidates are judged at these θ for the rest of the run.
	perSpec := make([][]float64, len(start.Specs))
	for i, st := range start.Specs {
		perSpec[i] = append([]float64(nil), st.ThetaWc...)
	}
	b.thetas, b.wants = wcd.DistinctThetas(perSpec)

	// Budgets: MaxIterations meters generations, ModelSamples meters the
	// per-candidate sample count — so the existing effort knobs scale
	// this backend the way they scale the default one.
	b.pop = 8 + 4*p.NumDesign()
	if b.pop > 32 {
		b.pop = 32
	}
	b.elites = b.pop / 4
	if b.elites < 2 {
		b.elites = 2
	}
	b.generations = 4 * opts.MaxIterations
	b.kappa = cemRiskKappa

	k := opts.ModelSamples / 50
	if k < 12 {
		k = 12
	}
	if k > 48 {
		k = 48
	}
	b.r = rng.New(opts.Seed ^ 0x9e3779b97f4a7c15)
	b.samples = make([][]float64, k)
	for j := range b.samples {
		b.samples[j] = b.r.NormVector(make([]float64, p.NumStat()))
	}

	// Per-spec margin scales from the sample spread at the start, so the
	// soft-min compares specs in "sigmas" rather than raw (mixed) units.
	margins, err := b.marginsAt(ctx, e, d)
	if err != nil {
		return err
	}
	b.scale = make([]float64, p.NumSpecs())
	for i := range b.scale {
		var sum, sum2 float64
		for j := 0; j < k; j++ {
			m := margins[j][i]
			sum += m
			sum2 += m * m
		}
		mean := sum / float64(k)
		v := sum2/float64(k) - mean*mean
		if v < 0 {
			v = 0
		}
		b.scale[i] = math.Sqrt(v)
		if b.scale[i] < 1e-12 {
			b.scale[i] = math.Max(math.Abs(mean), 1)
		}
	}
	if p.Constraints != nil {
		c0, err := p.Constraints(d)
		if err != nil {
			return fmt.Errorf("cem: constraints at start: %w", err)
		}
		b.cscale = make([]float64, len(c0))
		for j, c := range c0 {
			b.cscale[j] = math.Max(math.Abs(c), 1e-9)
		}
	}

	b.mean = b.encode(e, d)
	b.sigma = make([]float64, p.NumDesign())
	for i := range b.sigma {
		b.sigma[i] = cemSigmaInit
	}
	b.best = append([]float64(nil), d...)
	b.bestScore = b.riskScore(margins)
	return nil
}

// Step runs one generation: sample a population, score it, narrow the
// distribution around the elites. When the budget is spent or the
// distribution has collapsed, the best candidate gets a full engine
// analysis as the final recorded state.
func (b *cem) Step(ctx context.Context, e *Engine) (bool, error) {
	opts := e.Options()
	if b.gen >= b.generations || b.converged() {
		// Final full analysis at the best design found.
		it, _, err := e.Analyze(ctx, b.best, opts.Seed+uint64(b.gen)+1)
		if err != nil {
			return false, err
		}
		e.Logf("final: model yield %.4f, MC yield %.4f after %d generations",
			it.ModelYield, it.MCYield, b.gen)
		e.Record(it)
		e.Emit("accepted", 1, b.gen, it)
		return true, nil
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	gen := b.gen
	b.gen++

	n := len(b.mean)
	type cand struct {
		x     []float64
		d     []float64
		score float64
	}
	cands := make([]cand, b.pop)
	for c := range cands {
		x := make([]float64, n)
		for k := range x {
			x[k] = clamp01(b.mean[k] + b.sigma[k]*b.r.NormFloat64())
		}
		d := b.decode(e, x)
		s, err := b.scoreAt(ctx, e, d)
		if err != nil {
			return false, err
		}
		cands[c] = cand{x: x, d: d, score: s}
	}
	// Stable sort: ties resolve by draw order, keeping runs deterministic.
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].score > cands[j].score })

	for k := 0; k < n; k++ {
		var sum, sum2 float64
		for _, c := range cands[:b.elites] {
			sum += c.x[k]
			sum2 += c.x[k] * c.x[k]
		}
		em := sum / float64(b.elites)
		v := sum2/float64(b.elites) - em*em
		if v < 0 {
			v = 0
		}
		esd := math.Sqrt(v)
		b.mean[k] = (1-cemSmooth)*b.mean[k] + cemSmooth*em
		b.sigma[k] = (1-cemSmooth)*b.sigma[k] + cemSmooth*esd
		if b.sigma[k] < cemSigmaFloor {
			b.sigma[k] = cemSigmaFloor
		}
	}

	if top := cands[0]; top.score > b.bestScore {
		b.bestScore = top.score
		b.best = append([]float64(nil), top.d...)
		b.stall = 0
	} else {
		b.stall++
		if b.stall >= 2 {
			// Restart element: re-widen the distribution around the best
			// point instead of letting the sampler collapse onto a stall.
			copy(b.mean, b.encode(e, b.best))
			for k := range b.sigma {
				if b.sigma[k] < cemSigmaInit {
					b.sigma[k] = cemSigmaInit
				}
			}
			b.stall = 0
			e.Logf("generation %d: stalled; re-widening around best (score %.4f)", gen, b.bestScore)
		}
	}
	e.Logf("generation %d: best score %.4f (run best %.4f)", gen, cands[0].score, b.bestScore)
	return false, nil
}

// Final returns the best design found.
func (b *cem) Final() []float64 { return b.best }

func (b *cem) converged() bool {
	for _, s := range b.sigma {
		if s >= cemSigmaDone {
			return false
		}
	}
	return true
}

// marginsAt evaluates the common sample set at d and returns, per
// sample, the per-spec margins (each spec judged at its worst-case θ,
// each θ simulated only as deep as its own specs need).
func (b *cem) marginsAt(ctx context.Context, e *Engine, d []float64) ([][]float64, error) {
	p := e.Problem()
	out := make([][]float64, len(b.samples))
	for j, s := range b.samples {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		row := make([]float64, p.NumSpecs())
		for u, th := range b.thetas {
			vals, err := p.SubsetValues(d, s, th, b.wants[u])
			if err != nil {
				return nil, err
			}
			for i, w := range b.wants[u] {
				if w {
					row[i] = p.Specs[i].Margin(vals[i])
				}
			}
		}
		out[j] = row
	}
	return out, nil
}

// riskScore is the risk-sensitive soft-min objective
// −(1/κ)·log E[exp(−κ·min_i margin_i/scale_i)]: it rewards raising the
// worst normalized margin, with κ weighting bad samples more than a
// plain mean would (the GLOVA-style risk sensitivity).
func (b *cem) riskScore(margins [][]float64) float64 {
	args := make([]float64, len(margins))
	maxArg := math.Inf(-1)
	for j, row := range margins {
		minM := math.Inf(1)
		for i, m := range row {
			if v := m / b.scale[i]; v < minM {
				minM = v
			}
		}
		args[j] = -b.kappa * minM
		if args[j] > maxArg {
			maxArg = args[j]
		}
	}
	var sum float64
	for _, a := range args {
		sum += math.Exp(a - maxArg)
	}
	return -(maxArg + math.Log(sum/float64(len(args)))) / b.kappa
}

// scoreAt scores one candidate. Infeasible candidates rank strictly
// below every feasible one, ordered by normalized violation, and cost
// only a constraint evaluation — the feasibility-guided shortcut.
func (b *cem) scoreAt(ctx context.Context, e *Engine, d []float64) (float64, error) {
	p := e.Problem()
	if p.Constraints != nil {
		cv, err := p.Constraints(d)
		if err != nil {
			return 0, err
		}
		var viol float64
		for j, c := range cv {
			if c < 0 {
				viol += -c / b.cscale[j]
			}
		}
		if viol > 0 {
			return -100 - 50*viol, nil
		}
	}
	margins, err := b.marginsAt(ctx, e, d)
	if err != nil {
		return 0, err
	}
	return b.riskScore(margins), nil
}

// encode maps a design point into normalized [0,1] coordinates
// (logarithmic for log-scaled parameters).
func (b *cem) encode(e *Engine, d []float64) []float64 {
	p := e.Problem()
	x := make([]float64, p.NumDesign())
	for k, prm := range p.Design {
		lo, hi := prm.Lo, prm.Hi
		if prm.LogScale && lo > 0 {
			x[k] = (math.Log(d[k]) - math.Log(lo)) / (math.Log(hi) - math.Log(lo))
		} else {
			x[k] = (d[k] - lo) / (hi - lo)
		}
		x[k] = clamp01(x[k])
	}
	return x
}

// decode maps normalized coordinates back into the design box.
func (b *cem) decode(e *Engine, x []float64) []float64 {
	p := e.Problem()
	d := make([]float64, p.NumDesign())
	for k, prm := range p.Design {
		lo, hi := prm.Lo, prm.Hi
		if prm.LogScale && lo > 0 {
			d[k] = math.Exp(math.Log(lo) + x[k]*(math.Log(hi)-math.Log(lo)))
		} else {
			d[k] = lo + x[k]*(hi-lo)
		}
	}
	return p.ClampDesign(d)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
