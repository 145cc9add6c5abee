package core_test

import (
	"context"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"specwise/internal/core"
	"specwise/internal/evalcache"
	"specwise/internal/problem"
	"specwise/internal/testprob"
)

// countedAnalytic is the analytic fixture with a subset evaluator,
// tallying every call that reaches its functions.
func countedAnalytic(evals, cons *atomic.Int64) *problem.Problem {
	p := testprob.Analytic()
	eval, constraints := p.Eval, p.Constraints
	p.Eval = func(d, s, th []float64) ([]float64, error) {
		evals.Add(1)
		return eval(d, s, th)
	}
	p.EvalSubset = func(d, s, th []float64, want []bool) ([]float64, error) {
		evals.Add(1)
		v, err := eval(d, s, th)
		if err != nil {
			return nil, err
		}
		for i, w := range want {
			if !w {
				v[i] = math.NaN()
			}
		}
		return v, nil
	}
	p.Constraints = func(d []float64) ([]float64, error) {
		cons.Add(1)
		return constraints(d)
	}
	return p
}

// The run's evaluation-cache view is its one effort ledger: whatever
// the cache setup, Result.Simulations and ConstraintSims are the view's
// misses, and those are exactly the calls that reached the problem.
func TestSimulationsAreCacheMisses(t *testing.T) {
	base := core.Options{ModelSamples: 500, VerifySamples: 60, MaxIterations: 2, Seed: 7}
	shared := base
	shared.EvalCache = evalcache.NewShared(0).View("analytic")
	off := base
	off.NoEvalCache = true

	var final []float64
	var cachedSims int64
	for _, c := range []struct {
		name string
		opts core.Options
	}{{"private", base}, {"shared", shared}, {"off", off}} {
		var evals, cons atomic.Int64
		res, err := core.Optimize(context.Background(), countedAnalytic(&evals, &cons), c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		st := res.EvalCache
		if res.Simulations != st.Misses || res.ConstraintSims != st.ConstraintMisses {
			t.Errorf("%s: simulations %d / %d, cache misses %d / %d", c.name,
				res.Simulations, res.ConstraintSims, st.Misses, st.ConstraintMisses)
		}
		if st.Misses != evals.Load() || st.ConstraintMisses != cons.Load() {
			t.Errorf("%s: cache misses %d / %d, simulator calls %d / %d", c.name,
				st.Misses, st.ConstraintMisses, evals.Load(), cons.Load())
		}
		if res.Simulations == 0 || res.ConstraintSims == 0 {
			t.Errorf("%s: run counted %d / %d simulations", c.name, res.Simulations, res.ConstraintSims)
		}
		switch c.name {
		case "private":
			final, cachedSims = res.FinalDesign, res.Simulations
		case "shared":
			if !slices.Equal(res.FinalDesign, final) || res.Simulations != cachedSims {
				t.Errorf("shared view: design %v after %d simulations, private run %v after %d",
					res.FinalDesign, res.Simulations, final, cachedSims)
			}
		case "off":
			if st.Hits+st.Deduped+st.ConstraintHits != 0 || res.Simulations <= cachedSims {
				t.Errorf("cache off: stats %+v; want no hits and more than the cached run's %d simulations", st, cachedSims)
			}
			if !slices.Equal(res.FinalDesign, final) {
				t.Errorf("cache off: design %v, cached run %v", res.FinalDesign, final)
			}
		}
	}
}
