// Package core implements the paper's primary contribution: the iterative
// direct yield optimizer of Fig. 6, built from spec-wise linearization at
// worst-case points (Sec. 5.2), feasibility-region linearization
// (Sec. 5.1), a sampled-yield coordinate search (Sec. 5.3), a
// simulation-based line search (Sec. 5.4) and a feasible-start search
// (Sec. 5.5). The problem abstraction it runs on lives in
// internal/problem.
package core

import (
	"context"
	"io"

	"specwise/internal/coord"
	"specwise/internal/evalcache"
	"specwise/internal/linmodel"
	"specwise/internal/problem"
	"specwise/internal/wcd"
)

// Options configures the yield optimizer. The zero value gives the paper's
// setup: functional constraints on, worst-case linearization, mirrored
// specs, 10,000 model samples and 300 verification samples.
type Options struct {
	// Algorithm selects the search backend driving the run. The empty
	// string selects DefaultAlgorithm (the paper's feasibility-guided
	// coordinate search); any other value must name a registered
	// SearchBackend — importing specwise/internal/search registers the
	// built-in set.
	Algorithm string
	// ModelSamples is N for the linear-model yield estimate (Eq. 17).
	ModelSamples int
	// VerifySamples is the simulation-based Monte-Carlo sample size.
	VerifySamples int
	// MaxIterations bounds the outer linearize/search/line-search loop.
	MaxIterations int
	// Seed drives every random stream of the run. A zero Seed selects
	// the paper's default stream unless HasSeed is set.
	Seed uint64
	// HasSeed marks Seed as explicitly chosen, making seed 0 a real,
	// requestable stream instead of shorthand for the default.
	HasSeed bool
	// NoConstraints disables the functional constraints entirely — the
	// Table-3 ablation.
	NoConstraints bool
	// LinearizeAtNominal builds the spec models at s = 0 instead of the
	// worst-case points — the Table-4 ablation.
	LinearizeAtNominal bool
	// NoMirrorSpecs disables the quadratic-performance mirror models of
	// Eqs. 21–22.
	NoMirrorSpecs bool
	// SkipVerify skips the simulation-based Monte-Carlo verification
	// (used by cheap smoke tests; table runs keep it on).
	SkipVerify bool
	// LHS draws the linear-model yield samples by Latin-hypercube
	// stratification instead of plain Monte Carlo, reducing estimator
	// noise at the same N (an extension beyond the paper's setup).
	LHS bool
	// RefineThetaPasses enables golden-section refinement of the
	// worst-case operating points after corner enumeration, catching
	// interior worst cases (e.g. mid-range phase-margin dips). 0 = off.
	RefineThetaPasses int
	// QuadraticSpecs upgrades detected quadratic performances from the
	// paper's linear+mirror pair to a radial-quadratic model at the same
	// simulation cost (extension; see the QuadStudy experiment).
	QuadraticSpecs bool
	// NoEvalCache disables the evaluation memoization cache, forcing
	// every (d, s, θ) point back to the simulator; the calls are still
	// counted by a private evalcache.View (PassThrough). Results are
	// bit-identical either way (the cache keys on exact bit patterns);
	// the switch exists for ablation and the determinism tests.
	NoEvalCache bool
	// EvalCache, when non-nil, replaces the run's private memoization
	// cache — typically a problem-scoped evalcache.Shared view, so sweep
	// members reuse each other's simulations. Ignored when NoEvalCache is
	// set. Bit-exact keying keeps results identical either way.
	EvalCache *evalcache.View
	// WC tunes the worst-case distance searches.
	WC wcd.Options
	// Coord tunes the coordinate search.
	Coord coord.Options
	// Log, when non-nil, receives human-readable progress lines.
	Log io.Writer
	// Progress, when non-nil, receives one event after every completed
	// analysis (the initial state and each accepted or rejected step).
	// It is called synchronously from the optimizer goroutine.
	Progress func(ProgressEvent)
}

// ProgressEvent is one optimizer milestone, emitted through
// Options.Progress so that long runs (e.g. jobs behind a service) can
// report live state.
type ProgressEvent struct {
	// Stage is "initial", "accepted" or "rejected".
	Stage string
	// Iteration counts accepted optimizer states so far (0 = initial).
	Iteration int
	// Attempt counts linearize/search/line-search cycles tried.
	Attempt int
	// ModelYield is the linear-model yield estimate at the analyzed point.
	ModelYield float64
	// MCYield is the verified yield (-1 when verification is off).
	MCYield float64
	// Design is a copy of the analyzed design point.
	Design []float64
}

// The paper's defaults: its random stream (DAC 2001 opening day) and
// its 300-sample Monte-Carlo verification.
const (
	DefaultSeed          = 20010618
	DefaultVerifySamples = 300
)

func (o *Options) defaults() {
	if o.ModelSamples == 0 {
		o.ModelSamples = 10000
	}
	if o.VerifySamples == 0 {
		o.VerifySamples = DefaultVerifySamples
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 2
	}
	if o.Seed == 0 && !o.HasSeed {
		o.Seed = DefaultSeed
	}
}

// SpecState is one spec's situation at an iteration point, mirroring the
// per-spec rows of the paper's Tables 1, 3, 4 and 6.
type SpecState struct {
	// NominalMargin is f(d, s0, θ_wc) − f_b in the normalized ">= 0 is
	// good" sense (the paper's f − f_b rows, sign-adjusted for ≤ specs).
	NominalMargin float64
	// BadPerMille is the linear-model bad-sample rate in ‰ (Eq. 18).
	BadPerMille float64
	// Beta is the signed worst-case distance.
	Beta float64
	// ThetaWc is the spec's worst-case operating point.
	ThetaWc []float64
	// MCMean / MCSigma are the verification-run performance moments.
	MCMean, MCSigma float64
	// MCBad counts verification samples violating the spec.
	MCBad int
}

// Iteration is the full record of one optimizer state (the "Initial",
// "1st Iter", "2nd Iter" blocks of the paper's tables).
type Iteration struct {
	Design     []float64
	Specs      []SpecState
	ModelYield float64 // Ȳ over the linear models at Design
	MCYield    float64 // Ỹ from simulation (NaN when verification is off)
	MCResult   *MCResult
	WorstCases []*wcd.WorstCase
	Models     []*linmodel.SpecModel
}

// Result is the outcome of a full optimization run.
type Result struct {
	Problem *problem.Problem
	// Algorithm names the search backend that produced the run.
	Algorithm string
	// Iterations[0] is the initial state; each further entry is a state
	// the backend recorded along the way (for the default backend, one
	// per accepted linearize → search → line-search cycle).
	Iterations  []Iteration
	FinalDesign []float64
	// Simulations totals the performance evaluations, full and per-spec,
	// that actually reached the simulator (cache hits are excluded). It
	// is EvalCache.Misses.
	Simulations int64
	// ConstraintSims totals the DC-only constraint evaluations that
	// reached the simulator. It is EvalCache.ConstraintMisses.
	ConstraintSims int64
	// EvalCache reports the counters of the run's evaluation-cache view,
	// the one place its simulator calls are counted. With
	// Options.NoEvalCache every evaluation is a miss. Misses and
	// Hits+Deduped are the same for identical runs; the split between
	// Hits and Deduped depends on goroutine timing (see
	// evalcache.Stats.Deduped).
	EvalCache evalcache.Stats
	// Sim reports the simulator-side effort counters (DC warm starts,
	// homotopy fallbacks, Newton iterations) when the problem exposes
	// them through Problem.SimStats; zero otherwise.
	Sim problem.SimCounters
}

// Optimizer pairs the engine with a search backend. The default backend
// runs the paper's Fig.-6 algorithm.
type Optimizer struct {
	eng     *Engine
	backend SearchBackend
}

// NewOptimizer validates the problem, resolves the search backend named
// by Options.Algorithm and prepares an instrumented engine. Every
// evaluation goes through one evalcache.View, which memoizes it unless
// Options.NoEvalCache is set and counts each call that reaches the
// simulator, so Result.Simulations counts only evaluations that
// actually ran.
func NewOptimizer(prob *problem.Problem, opts Options) (*Optimizer, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	opts.defaults()
	backend, err := backendFor(opts.Algorithm)
	if err != nil {
		return nil, err
	}
	return &Optimizer{eng: newEngine(prob, opts), backend: backend}, nil
}

// Run executes the optimization without external cancellation; see
// RunContext.
func (o *Optimizer) Run() (*Result, error) {
	return o.RunContext(context.Background())
}

// RunContext executes the selected search backend against the engine:
// Init finds and analyzes the starting point, then Step runs search
// cycles until the backend converges. With the default feasguided
// backend this is the paper's algorithm — feasible start (Sec. 5.5),
// then MaxIterations cycles of constraint linearization (Eq. 15),
// worst-case analysis (Eqs. 2 and 8), spec-wise linearization (Eq. 16,
// with Eqs. 21–22 mirrors), sampled-yield coordinate search
// (Eqs. 17–20) and a simulation-based line search (Eq. 23) — so a run
// with MaxIterations=2 yields the three table blocks.
//
// Cancelling ctx stops the run promptly — between optimizer stages and
// between individual Monte-Carlo verification samples — and returns
// ctx.Err().
func (o *Optimizer) RunContext(ctx context.Context) (*Result, error) {
	return o.eng.run(ctx, o.backend)
}

// NewAndRun is a convenience wrapper: validate, construct and run.
func NewAndRun(p *problem.Problem, opts Options) (*Result, error) {
	o, err := NewOptimizer(p, opts)
	if err != nil {
		return nil, err
	}
	return o.Run()
}
