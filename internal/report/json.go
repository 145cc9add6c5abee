package report

import (
	"math"

	"specwise/internal/core"
	"specwise/internal/problem"
)

// This file defines the JSON-serializable mirror of core.Result used by
// the HTTP job service. The optimizer's native records hold models,
// worst-case points and NaN sentinels that either do not belong on the
// wire or do not survive encoding/json; Result flattens them into plain
// numbers keyed by spec and parameter names.

// DesignValue is one named design-parameter value.
type DesignValue struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit,omitempty"`
	Value float64 `json:"value"`
}

// SpecInfo describes one performance specification.
type SpecInfo struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit,omitempty"`
	Op    string  `json:"op"` // ">=" or "<="
	Bound float64 `json:"bound"`
}

// SpecState is one spec's situation at one iteration, mirroring the
// per-spec rows of the paper's tables.
type SpecState struct {
	Name          string   `json:"name"`
	NominalMargin float64  `json:"nominalMargin"`
	BadPerMille   float64  `json:"badPerMille"`
	Beta          float64  `json:"beta"`
	MCMean        *float64 `json:"mcMean,omitempty"`
	MCSigma       *float64 `json:"mcSigma,omitempty"`
	MCBad         int      `json:"mcBad,omitempty"`
}

// IterationRecord is one optimizer state ("Initial", "1st Iter.", ...).
type IterationRecord struct {
	Label      string        `json:"label"`
	Design     []DesignValue `json:"design"`
	ModelYield float64       `json:"modelYield"`
	// MCYield is the verified yield with its Wilson interval; all three
	// are absent when verification was skipped.
	MCYield   *float64    `json:"mcYield,omitempty"`
	MCYieldLo *float64    `json:"mcYieldLo,omitempty"`
	MCYieldHi *float64    `json:"mcYieldHi,omitempty"`
	Specs     []SpecState `json:"specs"`
}

// Perf reports the evaluation-reuse counters of a run: how often the
// memoization cache and singleflight layer spared a simulation, and how
// the DC warm-start machinery behaved underneath the evaluations that
// did run.
type Perf struct {
	EvalCacheHits   int64 `json:"evalCacheHits"`
	EvalCacheMisses int64 `json:"evalCacheMisses"`
	// EvalCacheCrossHits is the subset of hits answered from an entry a
	// sibling job stored in a shared cache (always zero for per-run
	// caching) — the cross-job reuse a batch sweep buys.
	EvalCacheCrossHits    int64 `json:"evalCacheCrossHits,omitempty"`
	EvalCacheDeduped      int64 `json:"evalCacheDeduped"`
	EvalCacheOverflow     int64 `json:"evalCacheOverflow,omitempty"`
	ConstraintCacheHits   int64 `json:"constraintCacheHits"`
	ConstraintCacheMisses int64 `json:"constraintCacheMisses"`
	WarmStarts            int64 `json:"warmStarts"`
	WarmConverged         int64 `json:"warmConverged"`
	DCFallbacks           int64 `json:"dcFallbacks"`
	NewtonIters           int64 `json:"newtonIters"`
	// Linear-solver effort underneath the Newton iterations: the backend
	// in use, its factorization/solve counts, and the sparsity of the
	// last assembled MNA system (factorNNZ − matrixNNZ is the fill-in).
	Solver         string `json:"solver,omitempty"`
	Factorizations int64  `json:"factorizations"`
	Solves         int64  `json:"solves"`
	SymbolicFacts  int64  `json:"symbolicFactorizations"`
	MatrixNNZ      int64  `json:"matrixNNZ,omitempty"`
	FactorNNZ      int64  `json:"factorNNZ,omitempty"`
	// Solver wall time split by analysis type, in nanoseconds.
	DCSolveNanos   int64 `json:"dcSolveNanos,omitempty"`
	ACSolveNanos   int64 `json:"acSolveNanos,omitempty"`
	TranSolveNanos int64 `json:"tranSolveNanos,omitempty"`
}

// Result is the full JSON-serializable record of an optimization run.
type Result struct {
	Problem string `json:"problem"`
	// Algorithm names the search backend that produced the run
	// ("feasguided", "cem", ...). omitempty keeps results written before
	// the field existed byte-stable on re-marshal.
	Algorithm      string            `json:"algorithm,omitempty"`
	Specs          []SpecInfo        `json:"specs"`
	Iterations     []IterationRecord `json:"iterations"`
	FinalDesign    []DesignValue     `json:"finalDesign"`
	Simulations    int64             `json:"simulations"`
	ConstraintSims int64             `json:"constraintSims"`
	Perf           Perf              `json:"perf"`
}

// StripVolatile zeroes the perf fields that legitimately vary between
// bit-identical runs: the wall-clock solver timings and the
// scheduling-dependent cache-hit/dedup split (a lookup racing an
// in-flight computation lands as a hit or a dedup depending on timing;
// the miss count — one per unique simulation — stays deterministic).
// Everything else in a Result is deterministic for a given (problem,
// seed, options), so two runs of the same request — on the in-process
// pool or on any remote worker — compare byte-equal after stripping.
func (r *Result) StripVolatile() {
	r.Perf.DCSolveNanos = 0
	r.Perf.ACSolveNanos = 0
	r.Perf.TranSolveNanos = 0
	r.Perf.EvalCacheHits = 0
	r.Perf.EvalCacheCrossHits = 0
	r.Perf.EvalCacheDeduped = 0
}

// StripEffortVolatile additionally zeroes the effort counters that a
// shared evaluation cache legitimately changes: with sharing on, which
// job pays for a simulation depends on sweep scheduling, so per-member
// Simulations, ConstraintSims and the remaining cache counters vary even
// though every reported design, yield and margin is bit-identical. Use
// this (not StripVolatile) when comparing a shared-cache run against an
// isolated one; keep StripVolatile for same-configuration comparisons,
// where the effort counters are themselves a deterministic signal.
func (r *Result) StripEffortVolatile() {
	r.StripVolatile()
	r.Simulations = 0
	r.ConstraintSims = 0
	r.Perf.EvalCacheMisses = 0
	r.Perf.EvalCacheOverflow = 0
	r.Perf.ConstraintCacheHits = 0
	r.Perf.ConstraintCacheMisses = 0
	// The simulator-side counters follow the simulation count.
	r.Perf.WarmStarts = 0
	r.Perf.WarmConverged = 0
	r.Perf.DCFallbacks = 0
	r.Perf.NewtonIters = 0
	r.Perf.Factorizations = 0
	r.Perf.Solves = 0
	r.Perf.SymbolicFacts = 0
}

// num returns a pointer to v, or nil when v is not a finite number —
// encoding/json rejects NaN and ±Inf, so they become absent fields.
func num(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// JSONResult flattens a core.Result into its wire form.
func JSONResult(res *core.Result) *Result {
	p := res.Problem
	out := &Result{
		Problem:        p.Name,
		Algorithm:      res.Algorithm,
		Simulations:    res.Simulations,
		ConstraintSims: res.ConstraintSims,
		Perf: Perf{
			EvalCacheHits:         res.EvalCache.Hits,
			EvalCacheMisses:       res.EvalCache.Misses,
			EvalCacheCrossHits:    res.EvalCache.CrossHits,
			EvalCacheDeduped:      res.EvalCache.Deduped,
			EvalCacheOverflow:     res.EvalCache.Overflow,
			ConstraintCacheHits:   res.EvalCache.ConstraintHits,
			ConstraintCacheMisses: res.EvalCache.ConstraintMisses,
			WarmStarts:            res.Sim.WarmStarts,
			WarmConverged:         res.Sim.WarmConverged,
			DCFallbacks:           res.Sim.Fallbacks,
			NewtonIters:           res.Sim.NewtonIters,
			Solver:                res.Sim.Solver,
			Factorizations:        res.Sim.Factorizations,
			Solves:                res.Sim.Solves,
			SymbolicFacts:         res.Sim.SymbolicFacts,
			MatrixNNZ:             res.Sim.MatrixNNZ,
			FactorNNZ:             res.Sim.FactorNNZ,
			DCSolveNanos:          res.Sim.DCSolveNanos,
			ACSolveNanos:          res.Sim.ACSolveNanos,
			TranSolveNanos:        res.Sim.TranSolveNanos,
		},
	}
	for _, s := range p.Specs {
		op := ">="
		if s.Kind == problem.LE {
			op = "<="
		}
		out.Specs = append(out.Specs, SpecInfo{Name: s.Name, Unit: s.Unit, Op: op, Bound: s.Bound})
	}
	design := func(d []float64) []DesignValue {
		vals := make([]DesignValue, len(p.Design))
		for k, prm := range p.Design {
			vals[k] = DesignValue{Name: prm.Name, Unit: prm.Unit, Value: d[k]}
		}
		return vals
	}
	for i, it := range res.Iterations {
		rec := IterationRecord{
			Label:      blockLabel(i),
			Design:     design(it.Design),
			ModelYield: it.ModelYield,
		}
		verified := it.MCYield >= 0
		if verified {
			rec.MCYield = num(it.MCYield)
			if it.MCResult != nil {
				rec.MCYieldLo = num(it.MCResult.Estimate.Lo)
				rec.MCYieldHi = num(it.MCResult.Estimate.Hi)
			}
		}
		for j, st := range it.Specs {
			ss := SpecState{
				Name:          p.Specs[j].Name,
				NominalMargin: st.NominalMargin,
				BadPerMille:   st.BadPerMille,
				Beta:          st.Beta,
			}
			if verified {
				ss.MCMean = num(st.MCMean)
				ss.MCSigma = num(st.MCSigma)
				ss.MCBad = st.MCBad
			}
			rec.Specs = append(rec.Specs, ss)
		}
		out.Iterations = append(out.Iterations, rec)
	}
	out.FinalDesign = design(res.FinalDesign)
	return out
}

// SpecMC is one spec's Monte-Carlo verification summary.
type SpecMC struct {
	Name  string   `json:"name"`
	Bad   int      `json:"bad"`
	Mean  *float64 `json:"mean,omitempty"`
	Sigma *float64 `json:"sigma,omitempty"`
}

// Verification is the JSON-serializable record of a standalone
// Monte-Carlo yield verification.
type Verification struct {
	Problem string   `json:"problem"`
	Yield   float64  `json:"yield"`
	YieldLo float64  `json:"yieldLo"`
	YieldHi float64  `json:"yieldHi"`
	Samples int      `json:"samples"`
	Evals   int      `json:"evals"`
	Specs   []SpecMC `json:"specs"`
}

// JSONVerification flattens a core.MCResult into its wire form.
func JSONVerification(p *problem.Problem, mc *core.MCResult) *Verification {
	out := &Verification{
		Problem: p.Name,
		Yield:   mc.Estimate.Yield(),
		YieldLo: mc.Estimate.Lo,
		YieldHi: mc.Estimate.Hi,
		Samples: mc.Estimate.Total,
		Evals:   mc.Evals,
	}
	for i, s := range p.Specs {
		sm := SpecMC{Name: s.Name, Bad: mc.BadPerSpec[i]}
		sm.Mean = num(mc.Moments[i].Mean())
		sm.Sigma = num(mc.Moments[i].Sigma())
		out.Specs = append(out.Specs, sm)
	}
	return out
}
