package core

import (
	"context"
	"fmt"
	"math"

	"specwise/internal/evalcache"
	"specwise/internal/problem"
	"specwise/internal/rng"
	"specwise/internal/sched"
	"specwise/internal/stat"
	"specwise/internal/wcd"
)

// MCResult is a simulation-based Monte-Carlo yield verification (the Ỹ of
// Eqs. 6–7): every sample is evaluated at each spec's worst-case operating
// point, and a sample passes only if every spec holds at its own corner.
type MCResult struct {
	Estimate stat.YieldEstimate
	// BadPerSpec[i] counts samples violating spec i (a sample may violate
	// several specs).
	BadPerSpec []int
	// Moments[i] tracks spec i's performance distribution at its
	// worst-case operating point (feeding the Table-2 μ/σ report).
	Moments []stat.Moments
	// Evals is the number of simulator calls spent.
	Evals int
}

// VerifyMC runs the Monte-Carlo verification without external
// cancellation; see VerifyMCContext.
func VerifyMC(p *problem.Problem, d []float64, thetas [][]float64, n int, seed uint64) (*MCResult, error) {
	return VerifyMCContext(context.Background(), p, d, thetas, n, seed, 0)
}

// VerifyDesign is the sign-off verification at design d: each spec's
// worst-case operating corner (Eq. 2, at s = 0), then n Monte-Carlo
// samples at those corners (VerifyMCContext). With a non-nil cache the
// corner analysis is memoized through it and the samples, fresh random
// points no other request repeats, pass through it uncached but counted
// (evalcache.View.PassThrough).
func VerifyDesign(ctx context.Context, p *problem.Problem, d []float64, n int, seed uint64, cache *evalcache.View) (*MCResult, error) {
	corners, samples := p, p
	if cache != nil {
		corners, samples = cache.Wrap(p), cache.PassThrough(p)
	}
	thetaRes, err := wcd.WorstCaseTheta(corners, d, make([]float64, p.NumStat()))
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return VerifyMCContext(ctx, samples, d, thetaRes.PerSpec, n, seed, 0)
}

// VerifyMCContext runs the simulation-based Monte-Carlo analysis of
// Sec. 2 at design d with n ≥ 0 samples. thetas[i] is spec i's worst-case
// operating point; specs sharing a corner share simulations, matching the
// paper's observation that N* stays well below N·n_spec.
//
// Samples are evaluated on the process-wide scheduler's caller-runs loop
// (the paper ran its verification on a cluster of five machines; here
// the workers are goroutines). The sample stream is drawn up front and
// results are written by index, so the result is bit-identical however
// many workers run. workers is ignored: the scheduler alone sizes the
// pool, and the parameter stays only for existing callers.
//
// Cancelling ctx stops the pool between samples: every worker exits at
// its next sample claim and the call returns ctx.Err() — no goroutine
// outlives the call, even on early cancellation.
func VerifyMCContext(ctx context.Context, p *problem.Problem, d []float64, thetas [][]float64, n int, seed uint64, workers int) (*MCResult, error) {
	if n < 0 {
		return nil, fmt.Errorf("core: negative Monte-Carlo sample count %d", n)
	}
	unique, specToUnique := wcd.DistinctThetas(thetas)
	r := rng.New(seed)
	res := &MCResult{
		BadPerSpec: make([]int, p.NumSpecs()),
		Moments:    make([]stat.Moments, p.NumSpecs()),
	}

	// Deterministic sample block, independent of scheduling.
	samples := make([][]float64, n)
	for j := range samples {
		samples[j] = r.NormVector(make([]float64, p.NumStat()))
	}

	// vals[j][u][i]: sample j, corner u, spec i. Samples run on the
	// process-wide scheduler's caller-runs loop and are written back by
	// index, so the result is independent of how many workers ran; any
	// pool nested inside a sample shares the same slots.
	vals := make([][][]float64, n)
	errs := make([]error, n)
	sched.Default().For(n, func(_, j int) bool {
		if ctx.Err() != nil {
			return false
		}
		out := make([][]float64, len(unique))
		for u, theta := range unique {
			v, err := p.Eval(d, samples[j], theta)
			if err != nil {
				errs[j] = err
				break
			}
			out[u] = v
		}
		vals[j] = out
		return true
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	pass := 0
	for j := 0; j < n; j++ {
		if errs[j] != nil {
			return nil, errs[j]
		}
		res.Evals += len(unique)
		ok := true
		for i, spec := range p.Specs {
			v := vals[j][specToUnique[i]][i]
			if math.IsNaN(v) {
				// Broken circuit: the sample fails this spec; keep the
				// moment accumulators clean.
				ok = false
				res.BadPerSpec[i]++
				continue
			}
			res.Moments[i].Add(v)
			if !spec.Satisfied(v) {
				ok = false
				res.BadPerSpec[i]++
			}
		}
		if ok {
			pass++
		}
	}
	res.Estimate = stat.NewYieldEstimate(pass, n)
	return res, nil
}
