package main

import (
	"fmt"
	"runtime"
	"time"

	"specwise/internal/problem"
)

const (
	kindOptimize = "optimize"
	kindVerify   = "verify"
)

// opRecord is one timed operation of a run's job list.
type opRecord struct {
	key     string
	kind    string
	ok      bool
	err     string
	latency float64 // seconds, call (library) or POST to terminal event (service)

	// Optimize results.
	sims                         int64 // Simulations + ConstraintSims
	constraintSims               int64
	initialYield, finalYield     float64
	hits, misses, cross, deduped int64     // evaluation-cache counters
	events                       []float64 // progress event times, s after the run started
	stages                       []string  // progress event stages

	// Service-side timings, seconds.
	submit, result, wait, run float64
	resultBytes               int
	refused                   bool // 429, 413 or 5xx on submit
}

// fail marks the operation as not ok with a reason.
func (o *opRecord) fail(format string, args ...any) {
	o.ok = false
	if o.err == "" {
		o.err = fmt.Sprintf(format, args...)
	}
}

// pass is what one run of a workload's job list measured.
type pass struct {
	setups []float64 // seconds per repeated set-up
	wall   float64   // seconds to run the whole job list
	cpu    float64   // process CPU seconds over the job list
	ops    []*opRecord

	allocBytes uint64  // Go heap bytes allocated over the job list
	gcPause    float64 // seconds of GC pauses over the job list

	// Traced runs only.
	sim   problem.SimCounters // simulator effort over the job list
	store storeCounts
	spans []span
}

// storeCounts is the store's growth over the job list.
type storeCounts struct {
	bytes       int64
	compactions int64
}

// meter brackets the timed job list: wall clock, process CPU and Go
// allocator counters.
type meter struct {
	start time.Time
	cpu   time.Duration
	mem   runtime.MemStats
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.mem)
	m.cpu, _ = rusage()
	m.start = time.Now()
	return m
}

// stop fills the pass's wall, CPU and allocator figures.
func (m *meter) stop(p *pass) {
	p.wall = time.Since(m.start).Seconds()
	cpu, _ := rusage()
	p.cpu = (cpu - m.cpu).Seconds()
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	p.allocBytes = now.TotalAlloc - m.mem.TotalAlloc
	p.gcPause = float64(now.PauseTotalNs-m.mem.PauseTotalNs) / 1e9
}

// simDelta returns b − a for the cumulative simulator counters; the NNZ
// gauges and the solver name take b's values.
func simDelta(a, b problem.SimCounters) problem.SimCounters {
	return problem.SimCounters{
		WarmStarts:     b.WarmStarts - a.WarmStarts,
		WarmConverged:  b.WarmConverged - a.WarmConverged,
		Fallbacks:      b.Fallbacks - a.Fallbacks,
		NewtonIters:    b.NewtonIters - a.NewtonIters,
		Solver:         b.Solver,
		Factorizations: b.Factorizations - a.Factorizations,
		Solves:         b.Solves - a.Solves,
		SymbolicFacts:  b.SymbolicFacts - a.SymbolicFacts,
		MatrixNNZ:      b.MatrixNNZ,
		FactorNNZ:      b.FactorNNZ,
		DCSolveNanos:   b.DCSolveNanos - a.DCSolveNanos,
		ACSolveNanos:   b.ACSolveNanos - a.ACSolveNanos,
		TranSolveNanos: b.TranSolveNanos - a.TranSolveNanos,
	}
}

// endToEndMetrics reduces an untraced pass to the end-to-end metrics.
func endToEndMetrics(p *pass) map[string]float64 {
	var opt, ver, sims, yields []float64
	ok := 0
	for _, o := range p.ops {
		if o.ok {
			ok++
		}
		switch o.kind {
		case kindOptimize:
			opt = append(opt, o.latency)
			sims = append(sims, float64(o.sims))
			yields = append(yields, o.finalYield)
		case kindVerify:
			ver = append(ver, o.latency)
		}
	}
	_, rss := rusage()
	n := float64(len(p.ops))
	return map[string]float64{
		"setup_s":         median(p.setups),
		"job_p50_s":       median(opt),
		"verify_p50_s":    median(ver),
		"verify_p90_s":    blockPercentile(ver, blockSize, 0.9),
		"jobs_per_s":      ratio(float64(ok), p.wall),
		"cpu_s_per_job":   ratio(p.cpu, n),
		"sims_per_job":    mean(sims),
		"final_yield_pct": 100 * median(yields),
		"ok_pct":          100 * ratio(float64(ok), n),
		"peak_rss_mb":     rss,
	}
}

// layerMetrics reduces a traced pass, the stage replay and the measured
// tracing overhead to the per-layer metrics.
func layerMetrics(p *pass, rp *replayResult, overhead float64) map[string]float64 {
	m := make(map[string]float64, len(perLayer))

	var evalDur []float64
	var evalBusy, consCalls float64
	for _, s := range p.spans {
		switch s.Name {
		case "eval":
			d := float64(s.End-s.Start) / 1e9
			evalDur = append(evalDur, d)
			evalBusy += d
		case "constraint":
			consCalls++
		}
	}
	calls := float64(len(evalDur)) + consCalls
	m["spice.eval_calls"] = float64(len(evalDur))
	m["spice.eval_busy_s"] = evalBusy
	m["spice.eval_p50_us"] = median(evalDur) * 1e6
	m["spice.constraint_calls"] = consCalls
	m["spice.dc_s"] = float64(p.sim.DCSolveNanos) / 1e9
	m["spice.ac_s"] = float64(p.sim.ACSolveNanos) / 1e9
	m["spice.newton_iters_per_eval"] = ratio(float64(p.sim.NewtonIters), calls)
	m["spice.warm_converged_ratio"] = ratio(float64(p.sim.WarmConverged), float64(p.sim.WarmStarts))
	m["spice.fallbacks"] = float64(p.sim.Fallbacks)
	m["linalg.factorizations_per_eval"] = ratio(float64(p.sim.Factorizations), calls)
	m["linalg.solves_per_eval"] = ratio(float64(p.sim.Solves), calls)
	m["linalg.fill_ratio"] = ratio(float64(p.sim.FactorNNZ), float64(p.sim.MatrixNNZ))

	for _, st := range replayStages {
		m[st+"_s"] = rp.seconds[st]
		m[st+"_sims"] = float64(rp.sims[st])
	}
	delete(m, "linmodel.estimator_sims") // the estimator never simulates
	delete(m, "coord.search_sims")
	m["replay.sims"] = float64(rp.total)

	var initial, iters []float64
	var attempts, accepted, nOpt float64
	var hits, misses, cross, deduped float64
	var waits, runs = map[string][]float64{}, map[string][]float64{}
	var submits, results, overheads, bytes []float64
	var refused float64
	for _, o := range p.ops {
		if o.refused {
			refused++
		}
		if o.kind == kindOptimize {
			nOpt++
			if len(o.events) > 0 {
				initial = append(initial, o.events[0])
			}
			for k := 1; k < len(o.events); k++ {
				iters = append(iters, o.events[k]-o.events[k-1])
				attempts++
				if o.stages[k] == "accepted" {
					accepted++
				}
			}
			hits += float64(o.hits)
			misses += float64(o.misses)
			cross += float64(o.cross)
			deduped += float64(o.deduped)
		}
		if o.submit > 0 {
			waits[o.kind] = append(waits[o.kind], o.wait)
			runs[o.kind] = append(runs[o.kind], o.run)
			submits = append(submits, o.submit)
			results = append(results, o.result)
			overheads = append(overheads, o.latency-o.wait-o.run)
			bytes = append(bytes, float64(o.resultBytes))
		}
	}
	m["core.initial_analysis_s"] = median(initial)
	m["core.iteration_p50_s"] = median(iters)
	m["core.attempts_per_job"] = ratio(attempts, nOpt)
	m["search.accept_ratio"] = ratio(accepted, attempts)
	m["evalcache.hit_ratio"] = ratio(hits, hits+misses)
	m["evalcache.cross_hit_ratio"] = ratio(cross, hits+misses)
	m["evalcache.deduped"] = deduped

	m["jobs.verify_wait_p50_s"] = median(waits[kindVerify])
	m["jobs.optimize_wait_p50_s"] = median(waits[kindOptimize])
	m["jobs.verify_run_p50_s"] = median(runs[kindVerify])
	m["jobs.optimize_run_p50_s"] = median(runs[kindOptimize])
	m["jobs.refused"] = refused
	m["server.submit_p50_s"] = median(submits)
	m["server.result_p50_s"] = median(results)
	m["server.result_bytes"] = mean(bytes)
	m["server.overhead_p50_s"] = median(overheads)

	var appendDur []float64
	var appendBusy float64
	for _, s := range p.spans {
		if s.Name == "store.append" {
			d := float64(s.End-s.Start) / 1e9
			appendDur = append(appendDur, d)
			appendBusy += d
		}
	}
	jobs := float64(len(p.ops))
	m["store.appends_per_job"] = ratio(float64(len(appendDur)), jobs)
	m["store.append_p50_us"] = median(appendDur) * 1e6
	m["store.append_busy_s"] = appendBusy
	m["store.bytes_per_job"] = ratio(float64(p.store.bytes), jobs)
	m["store.compactions"] = float64(p.store.compactions)

	m["go.alloc_mb_per_job"] = ratio(float64(p.allocBytes)/(1<<20), jobs)
	m["go.gc_pause_s"] = p.gcPause

	self := selfTimes(p.spans)
	for _, l := range []string{"spice", "core", "jobs", "server", "store"} {
		m["self."+l+"_s"] = self[l]
	}
	m["trace.spans"] = float64(len(p.spans))
	m["trace.overhead_s"] = overhead
	return m
}
