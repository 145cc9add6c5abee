package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"specwise"
)

// libWorkload is a researcher calling the library one job at a time: a
// closed loop with one client. Each optimize job (specwise.OptimizeContext)
// is followed by its share of sign-off verifications
// (specwise.VerifyYieldContext with fresh seeds).
type libWorkload struct {
	circuit func() *specwise.Problem
	opts    specwise.Options // optimize request shape; the seed is per job
	verifyN int              // Monte-Carlo samples per sign-off call
	// optPerSecond sizes the optimize list from --seconds (about one
	// job's wall time, inverted, on a 2-core reference machine).
	optPerSecond float64
	nVerify      int // sign-off calls per run (>= 100: five blocks for verify_p90_s)
	setups       int // repeated set-ups; setup_s is their median
	paper        *paperCheck
}

// paperCheck pins the paper-seed job's effort and yields: the first job
// of every run uses the paper's seed and must reproduce them exactly.
type paperCheck struct {
	seed          uint64
	sims, csims   int64
	yield0, yield float64
}

// warmSeed is outside every timed job list (those seeds are splitmix
// outputs or the paper seed).
const warmSeed = 7

// libPlan is a run's fixed job list.
type libPlan struct {
	optSeeds, verifySeeds []uint64
}

func (w *libWorkload) plan(seed uint64, seconds int) libPlan {
	n := max(2, int(math.Round(float64(seconds)*w.optPerSecond)))
	var pl libPlan
	for i := 0; i < n; i++ {
		pl.optSeeds = append(pl.optSeeds, splitmix(seed, i))
	}
	if w.paper != nil {
		pl.optSeeds[0] = w.paper.seed
	}
	for i := 0; i < w.nVerify; i++ {
		pl.verifySeeds = append(pl.verifySeeds, splitmix(^seed, i))
	}
	return pl
}

func (w *libWorkload) options(seed uint64) specwise.Options {
	o := w.opts
	o.Seed, o.HasSeed = seed, true
	return o
}

// run sets up, then runs the job list once; tr is nil for untraced runs.
func (w *libWorkload) run(ctx context.Context, seed uint64, seconds int, tr *tracer) (*pass, error) {
	pl := w.plan(seed, seconds)
	ps := &pass{}
	var p *specwise.Problem
	for i := 0; i < w.setups; i++ {
		start := time.Now()
		p = w.circuit()
		res, err := specwise.OptimizeContext(ctx, p, w.options(warmSeed))
		if err != nil {
			return nil, fmt.Errorf("warm-up optimize: %w", err)
		}
		if _, err := specwise.VerifyYieldContext(ctx, p, res.FinalDesign, w.verifyN, warmSeed); err != nil {
			return nil, fmt.Errorf("warm-up verify: %w", err)
		}
		ps.setups = append(ps.setups, time.Since(start).Seconds())
	}

	sim0 := p.SimStats()
	m := startMeter()
	// Sign-off calls verify the first job's final design, the same design
	// in every run (the paper-seed result), so their latency does not
	// depend on where the seed-dependent jobs end up. They run in whole
	// blocks of blockSize consecutive calls, spread evenly between the
	// optimize jobs, so each block of verify_p90_s is one stretch of time.
	var signoff []float64
	nv := 0
	blocks := (len(pl.verifySeeds) + blockSize - 1) / blockSize
	for i, s := range pl.optSeeds {
		op, final := w.optimize(ctx, p, fmt.Sprintf("opt-%d", i), s, tr)
		if i == 0 && w.paper != nil && op.ok {
			w.paper.check(op)
		}
		ps.ops = append(ps.ops, op)
		if signoff == nil {
			signoff = final
			if signoff == nil {
				signoff = p.InitialDesign()
			}
		}
		for end := min(len(pl.verifySeeds), (i+1)*blocks/len(pl.optSeeds)*blockSize); nv < end; nv++ {
			ps.ops = append(ps.ops, w.verify(ctx, p, fmt.Sprintf("ver-%d", nv), signoff, pl.verifySeeds[nv], tr))
		}
	}
	m.stop(ps)
	ps.sim = simDelta(sim0, p.SimStats())
	if tr != nil {
		ps.spans = tr.snapshot()
	}
	return ps, nil
}

// optimize runs one optimize job and checks its result.
func (w *libWorkload) optimize(ctx context.Context, p *specwise.Problem, key string, seed uint64, tr *tracer) (*opRecord, []float64) {
	op := &opRecord{key: key, kind: kindOptimize, ok: true}
	opts := w.options(seed)
	var runID, start int64
	if tr != nil {
		runID = tr.newID()
		p = tr.instrument(p, key, runID)
	}
	t0 := time.Now()
	opts.Progress = func(ev specwise.ProgressEvent) {
		op.events = append(op.events, time.Since(t0).Seconds())
		op.stages = append(op.stages, ev.Stage)
	}
	if tr != nil {
		start = tr.now()
	}
	res, err := specwise.OptimizeContext(ctx, p, opts)
	op.latency = time.Since(t0).Seconds()
	if tr != nil {
		end := tr.now()
		tr.add(runID, 0, key, "job", start, end)
		events := make([]int64, len(op.events))
		for k, e := range op.events {
			events[k] = start + int64(e*1e9)
		}
		tr.addIterations(key, runID, start, end, events)
	}
	if err != nil {
		op.fail("%s: %v", key, err)
		return op, nil
	}
	op.sims = res.Simulations + res.ConstraintSims
	op.hits, op.misses = res.EvalCache.Hits, res.EvalCache.Misses
	op.cross, op.deduped = res.EvalCache.CrossHits, res.EvalCache.Deduped
	if len(res.Iterations) == 0 {
		op.fail("%s: no iterations recorded", key)
		return op, nil
	}
	op.constraintSims = res.ConstraintSims
	op.initialYield = res.Iterations[0].MCYield
	op.finalYield = res.Iterations[len(res.Iterations)-1].MCYield
	checkDesign(op, p, res.FinalDesign)
	checkYield(op, op.finalYield)
	return op, res.FinalDesign
}

// verify runs one sign-off verification and checks its result.
func (w *libWorkload) verify(ctx context.Context, p *specwise.Problem, key string, d []float64, seed uint64, tr *tracer) *opRecord {
	op := &opRecord{key: key, kind: kindVerify, ok: true}
	var runID, start int64
	if tr != nil {
		runID = tr.newID()
		p = tr.instrument(p, key, runID)
		start = tr.now()
	}
	t0 := time.Now()
	mc, err := specwise.VerifyYieldContext(ctx, p, d, w.verifyN, seed)
	op.latency = time.Since(t0).Seconds()
	if tr != nil {
		tr.add(runID, 0, key, "job", start, tr.now())
	}
	if err != nil {
		op.fail("%s: %v", key, err)
		return op
	}
	if mc.Estimate.Total != w.verifyN {
		op.fail("%s: %d samples verified, want %d", key, mc.Estimate.Total, w.verifyN)
	}
	checkYield(op, mc.Estimate.Yield())
	return op
}

// check compares the paper-seed job with the pinned effort and yields.
func (c *paperCheck) check(op *opRecord) {
	if op.sims-op.constraintSims != c.sims || op.constraintSims != c.csims {
		op.fail("%s: paper-seed job ran %d simulations + %d constraint DC, want %d + %d",
			op.key, op.sims-op.constraintSims, op.constraintSims, c.sims, c.csims)
	}
	if math.Abs(op.initialYield-c.yield0) > 1e-9 || math.Abs(op.finalYield-c.yield) > 1e-9 {
		op.fail("%s: paper-seed job yield %.4f -> %.4f, want %.4f -> %.4f",
			op.key, op.initialYield, op.finalYield, c.yield0, c.yield)
	}
}

// checkDesign fails the operation when d leaves the design box.
func checkDesign(op *opRecord, p *specwise.Problem, d []float64) {
	if len(d) != p.NumDesign() {
		op.fail("%s: final design has %d parameters, want %d", op.key, len(d), p.NumDesign())
		return
	}
	for k, prm := range p.Design {
		if !(d[k] >= prm.Lo && d[k] <= prm.Hi) {
			op.fail("%s: final %s = %g outside [%g, %g]", op.key, prm.Name, d[k], prm.Lo, prm.Hi)
		}
	}
}

// checkYield fails the operation when a yield is not a fraction.
func checkYield(op *opRecord, y float64) {
	if !(y >= 0 && y <= 1) {
		op.fail("%s: yield %g outside [0, 1]", op.key, y)
	}
}

func (w *libWorkload) replay(ctx context.Context, seed uint64, seconds int) (*replayResult, error) {
	return stageReplay(ctx, w.circuit(), w.options(w.plan(seed, seconds).optSeeds[0]))
}
