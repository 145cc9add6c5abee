package core

import (
	"context"
	"fmt"

	"specwise/internal/coord"
	"specwise/internal/evalcache"
	"specwise/internal/feasopt"
	"specwise/internal/linmodel"
	"specwise/internal/problem"
	"specwise/internal/rng"
	"specwise/internal/wcd"
)

// Engine is the backend-independent half of the optimizer: the
// instrumented (counted, memoized) problem, the run options, the
// worst-case analysis and model build shared by every search strategy,
// progress and log plumbing, and result assembly. A SearchBackend drives
// the design point; the engine does everything else.
type Engine struct {
	prob  *problem.Problem
	opts  Options
	cache *evalcache.View     // the run's effort ledger (and memo, unless NoEvalCache)
	sim0  problem.SimCounters // simulator counters at construction time
	p     *problem.Problem    // counted (and, unless NoEvalCache, memoized) copy
	mc    *problem.Problem    // counted, never cached: the MC samples' path
	res   *Result             // assembled during run
}

// newEngine instruments the problem per the (already defaulted) options.
// Every evaluation goes through one evalcache.View, which counts each
// simulator call once: Options.EvalCache, or a private cache when that
// is nil or the run switched memoization off.
func newEngine(prob *problem.Problem, opts Options) *Engine {
	e := &Engine{prob: prob, opts: opts, cache: opts.EvalCache}
	if e.cache == nil || opts.NoEvalCache {
		e.cache = evalcache.New(0)
	}
	e.mc = e.cache.PassThrough(prob)
	e.p = e.mc
	if !opts.NoEvalCache {
		e.p = e.cache.Wrap(prob)
	}
	if opts.NoConstraints {
		e.p.Constraints = nil
	}
	if prob.SimStats != nil {
		e.sim0 = prob.SimStats()
	}
	return e
}

// Problem returns the instrumented problem backends must evaluate
// through: evaluations are counted (Result.Simulations) and memoized
// unless the run disabled the cache.
func (e *Engine) Problem() *problem.Problem { return e.p }

// Options returns the run options (with defaults applied). Backends
// read them; mutating them mid-run is not supported.
func (e *Engine) Options() *Options { return &e.opts }

// Logf writes one human-readable progress line to Options.Log, if set.
func (e *Engine) Logf(format string, args ...any) {
	if e.opts.Log != nil {
		fmt.Fprintf(e.opts.Log, format+"\n", args...)
	}
}

// Emit forwards a progress event to the Options.Progress hook, if set.
func (e *Engine) Emit(stage string, iteration, attempt int, it *Iteration) {
	if e.opts.Progress == nil {
		return
	}
	e.opts.Progress(ProgressEvent{
		Stage:      stage,
		Iteration:  iteration,
		Attempt:    attempt,
		ModelYield: it.ModelYield,
		MCYield:    it.MCYield,
		Design:     append([]float64(nil), it.Design...),
	})
}

// Record appends one iteration state to the run's result. The engine
// records the initial state; backends call it for every further state
// worth a table block (accepted steps, not rejected probes).
func (e *Engine) Record(it *Iteration) {
	e.res.Iterations = append(e.res.Iterations, *it)
}

// DesignBox returns the design-space box constraint for searches.
func (e *Engine) DesignBox() coord.Box {
	p := e.p
	box := coord.Box{
		Lo:  make([]float64, p.NumDesign()),
		Hi:  make([]float64, p.NumDesign()),
		Log: make([]bool, p.NumDesign()),
	}
	for k, prm := range p.Design {
		box.Lo[k], box.Hi[k], box.Log[k] = prm.Lo, prm.Hi, prm.LogScale
	}
	return box
}

// run drives a backend through one full optimization and assembles the
// result. The preamble is the same for every backend: find a feasible
// start (Sec. 5.5), analyze it and record it as the initial state; the
// backend's search then starts from there. Cancelling ctx stops the run
// between backend steps (and inside them, wherever the backend checks)
// and returns ctx.Err().
func (e *Engine) run(ctx context.Context, b SearchBackend) (*Result, error) {
	e.res = &Result{Problem: e.prob, Algorithm: e.opts.Algorithm}
	p := e.p
	d := p.InitialDesign()
	if p.Constraints != nil {
		df, err := feasopt.FeasibleStart(p, d, 0)
		if err != nil {
			e.Logf("feasible start: %v (continuing from best effort)", err)
		}
		if df != nil {
			d = df
		}
	}
	start, est, err := e.Analyze(ctx, d, e.opts.Seed)
	if err != nil {
		return nil, err
	}
	e.Logf("initial: model yield %.4f, MC yield %.4f", start.ModelYield, start.MCYield)
	e.Record(start)
	e.Emit("initial", 0, 0, start)
	if err := b.Init(ctx, e, start, est); err != nil {
		return nil, err
	}
	for {
		done, err := b.Step(ctx, e)
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
	}
	return e.finish(b.Final()), nil
}

// finish fills the result's final design and effort counters.
func (e *Engine) finish(final []float64) *Result {
	res := e.res
	res.FinalDesign = final
	res.EvalCache = e.cache.Stats()
	res.Simulations = res.EvalCache.Misses
	res.ConstraintSims = res.EvalCache.ConstraintMisses
	if e.prob.SimStats != nil {
		// Report only this run's share of the (problem-cumulative)
		// simulator counters.
		now := e.prob.SimStats()
		res.Sim = problem.SimCounters{
			WarmStarts:     now.WarmStarts - e.sim0.WarmStarts,
			WarmConverged:  now.WarmConverged - e.sim0.WarmConverged,
			Fallbacks:      now.Fallbacks - e.sim0.Fallbacks,
			NewtonIters:    now.NewtonIters - e.sim0.NewtonIters,
			Solver:         now.Solver,
			Factorizations: now.Factorizations - e.sim0.Factorizations,
			Solves:         now.Solves - e.sim0.Solves,
			SymbolicFacts:  now.SymbolicFacts - e.sim0.SymbolicFacts,
			MatrixNNZ:      now.MatrixNNZ,
			FactorNNZ:      now.FactorNNZ,
			DCSolveNanos:   now.DCSolveNanos - e.sim0.DCSolveNanos,
			ACSolveNanos:   now.ACSolveNanos - e.sim0.ACSolveNanos,
			TranSolveNanos: now.TranSolveNanos - e.sim0.TranSolveNanos,
		}
	}
	return res
}

// Analyze performs the worst-case analysis and model build at design d
// and assembles the iteration record (including the optional MC
// verification). It is the shared heart of every backend: worst-case
// operating points (Eq. 2), per-spec worst-case statistical points
// (Eq. 8), spec-wise linear models (Eq. 16 / Eqs. 21–22), the sampled
// model-yield estimate (Eq. 17) and the simulation-based verification.
func (e *Engine) Analyze(ctx context.Context, d []float64, seed uint64) (*Iteration, *linmodel.Estimator, error) {
	p := e.p
	opts := e.opts
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	// Worst-case operating points (Eq. 2) at the nominal statistical point.
	zeroS := make([]float64, p.NumStat())
	thetaRes, err := wcd.WorstCaseTheta(p, d, zeroS)
	if err != nil {
		return nil, nil, err
	}
	if err := wcd.RefineTheta(p, d, zeroS, thetaRes, opts.RefineThetaPasses); err != nil {
		return nil, nil, err
	}

	// Worst-case statistical points (Eq. 8) per spec, searched as one
	// sched.For pool. A pinned WC seed (Options.WC.Seed) decouples the
	// restart stream from the run seed: the search becomes a pure
	// function of (d, spec), so seed sweeps vary only their sampling
	// streams — and share the WC simulations.
	wcSeed := seed
	if opts.WC.Seed != 0 {
		wcSeed = opts.WC.Seed
	}
	wcs, err := wcd.SearchAll(ctx, p, d, thetaRes.PerSpec, opts.WC, func(i int) uint64 {
		return wcSeed + uint64(i)*1000003
	})
	if err != nil {
		return nil, nil, err
	}

	// Spec-wise linear models (Eq. 16 / Eqs. 21–22).
	models, err := linmodel.Build(p, d, wcs, thetaRes.PerSpec, linmodel.BuildOptions{
		MirrorSpecs:    !opts.NoMirrorSpecs && !opts.LinearizeAtNominal,
		AtNominal:      opts.LinearizeAtNominal,
		QuadraticSpecs: opts.QuadraticSpecs,
	})
	if err != nil {
		return nil, nil, err
	}

	var est *linmodel.Estimator
	if opts.LHS {
		est = linmodel.NewEstimatorLHS(models, p.NumStat(), opts.ModelSamples, rng.New(seed))
	} else {
		est = linmodel.NewEstimator(models, p.NumStat(), opts.ModelSamples, rng.New(seed))
	}
	pass, bad := est.Count(d)

	iter := &Iteration{
		Design:     append([]float64(nil), d...),
		Specs:      make([]SpecState, p.NumSpecs()),
		ModelYield: float64(pass) / float64(est.N),
		WorstCases: wcs,
		Models:     models,
	}
	for i := range p.Specs {
		iter.Specs[i] = SpecState{
			NominalMargin: thetaRes.Margins[i],
			BadPerMille:   1000 * float64(bad[i]) / float64(est.N),
			Beta:          wcs[i].Beta,
			ThetaWc:       thetaRes.PerSpec[i],
		}
	}

	iter.MCYield = -1
	if !opts.SkipVerify {
		// The samples are fresh random points nothing else revisits, so
		// they are counted but not memoized (see evalcache.PassThrough).
		mc, err := VerifyMCContext(ctx, e.mc, d, thetaRes.PerSpec, opts.VerifySamples, seed^0xabcdef, 0)
		if err != nil {
			return nil, nil, err
		}
		iter.MCResult = mc
		iter.MCYield = mc.Estimate.Yield()
		for i := range p.Specs {
			iter.Specs[i].MCMean = mc.Moments[i].Mean()
			iter.Specs[i].MCSigma = mc.Moments[i].Sigma()
			iter.Specs[i].MCBad = mc.BadPerSpec[i]
		}
	}
	return iter, est, nil
}
