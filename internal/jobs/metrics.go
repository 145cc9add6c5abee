package jobs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"specwise/internal/core"
	"specwise/internal/evalcache"
	"specwise/internal/report"
	"specwise/internal/sched"
)

// Metrics holds the service counters exported on GET /metrics. All
// fields are safe for concurrent use; the text rendering follows the
// Prometheus exposition format (plain counters and gauges, no labels)
// so any scraper — or a human with curl — can read it.
type Metrics struct {
	start   time.Time
	workers int

	submitted      atomic.Int64 // every accepted Submit, cache hits included
	queued         atomic.Int64 // gauge: waiting in the queue
	running        atomic.Int64 // gauge: executing on a worker
	done           atomic.Int64
	failed         atomic.Int64
	canceled       atomic.Int64
	cacheHits      atomic.Int64
	cacheWarmHits  atomic.Int64 // cache hits on entries restored by recovery
	cacheEvictions atomic.Int64 // result-cache LRU evictions
	cacheEntries   atomic.Int64 // gauge: results currently cached
	busyNanos      atomic.Int64 // total local-pool worker-occupied time
	wallNanos      atomic.Int64 // total per-job wall time, local and remote

	// Job-store retention (terminal jobs kept for status queries).
	jobsTracked atomic.Int64 // gauge: jobs currently in the store
	jobsEvicted atomic.Int64 // terminal jobs dropped by the retention policy

	// Batch submissions (POST /v1/batches).
	batches        atomic.Int64 // batches accepted
	batchMembers   atomic.Int64 // member requests across all batches
	batchDeduped   atomic.Int64 // members folded into an in-batch sibling
	batchesEvicted atomic.Int64 // terminal batches dropped by retention

	// Remote worker-pull protocol: claims granted, leases currently
	// outstanding, silent-lease expiries and the requeues they caused.
	claims        atomic.Int64
	leasesActive  atomic.Int64 // gauge
	leaseExpiries atomic.Int64
	requeued      atomic.Int64

	// Persistence: live store counters come from the store itself via
	// storeStats (set once before any concurrency); the recovery figures
	// are recorded by the boot-time replay.
	storeStats         func() StoreStats
	storeRecovered     atomic.Int64 // jobs restored by the last recovery
	storeRecoveryNanos atomic.Int64 // wall time of the last recovery

	// Per-shard (per remote worker) counters, keyed by worker name.
	wmu         sync.Mutex
	workerStats map[string]*WorkerStat

	// Per-lane (priority queue) counters, keyed by lane name.
	lnmu      sync.Mutex
	laneStats map[string]*LaneStat

	// Per-algorithm (search backend) counters over done optimize jobs,
	// keyed by backend name; wherever a job ran — local pool, remote
	// worker or the result cache — its settlement is attributed to the
	// backend stamped on the result.
	amu       sync.Mutex
	algoStats map[string]*AlgoStat

	// Per-evaluation reuse counters aggregated over completed
	// optimization runs: the in-run memoization cache and the DC
	// warm-start machinery (see internal/evalcache, internal/spice).
	evalCacheHits     atomic.Int64
	evalCacheMisses   atomic.Int64
	evalCacheDeduped  atomic.Int64
	evalCacheEvicted  atomic.Int64
	evalCacheOverflow atomic.Int64
	warmStarts        atomic.Int64
	warmConverged     atomic.Int64
	dcFallbacks       atomic.Int64

	// Manager-scoped shared evaluation cache, when configured: live
	// snapshot hooks installed once before any concurrency. The shared
	// counters supersede the per-run aggregates above in the exposition —
	// with sharing on, every job's lookups flow through the shared cache,
	// and these hooks see them live instead of only at job completion.
	sharedEval           func() evalcache.SharedStats
	sharedEvalPerProblem func() map[string]int

	// Linear-solver effort underneath the Newton iterations, aggregated
	// over completed runs; the NNZ gauges describe the last observed MNA
	// system and its factors.
	solverFactorizations atomic.Int64
	solverSolves         atomic.Int64
	solverSymbolic       atomic.Int64
	solverMatrixNNZ      atomic.Int64
	solverFactorNNZ      atomic.Int64
	solverDCNanos        atomic.Int64 // solver wall time by analysis type
	solverACNanos        atomic.Int64
	solverTranNanos      atomic.Int64
}

// noteRun folds one finished optimization's evaluation-reuse counters
// into the service totals.
func (m *Metrics) noteRun(res *core.Result) {
	m.evalCacheHits.Add(res.EvalCache.Hits + res.EvalCache.ConstraintHits)
	m.evalCacheMisses.Add(res.EvalCache.Misses + res.EvalCache.ConstraintMisses)
	m.evalCacheDeduped.Add(res.EvalCache.Deduped)
	m.evalCacheEvicted.Add(res.EvalCache.Evictions)
	m.evalCacheOverflow.Add(res.EvalCache.Overflow)
	m.warmStarts.Add(res.Sim.WarmStarts)
	m.warmConverged.Add(res.Sim.WarmConverged)
	m.dcFallbacks.Add(res.Sim.Fallbacks)
	m.solverFactorizations.Add(res.Sim.Factorizations)
	m.solverSolves.Add(res.Sim.Solves)
	m.solverSymbolic.Add(res.Sim.SymbolicFacts)
	m.solverDCNanos.Add(res.Sim.DCSolveNanos)
	m.solverACNanos.Add(res.Sim.ACSolveNanos)
	m.solverTranNanos.Add(res.Sim.TranSolveNanos)
	if res.Sim.MatrixNNZ != 0 {
		m.solverMatrixNNZ.Store(res.Sim.MatrixNNZ)
	}
	if res.Sim.FactorNNZ != 0 {
		m.solverFactorNNZ.Store(res.Sim.FactorNNZ)
	}
}

// AlgoStat aggregates one search backend's shard of the optimize
// traffic: jobs settled done, accepted iterations and circuit
// simulations across their results.
type AlgoStat struct {
	Done        atomic.Int64
	Iterations  atomic.Int64
	Simulations atomic.Int64
}

// algoStat returns (creating on first use) the named backend's shard.
func (m *Metrics) algoStat(name string) *AlgoStat {
	m.amu.Lock()
	defer m.amu.Unlock()
	if m.algoStats == nil {
		m.algoStats = make(map[string]*AlgoStat)
	}
	as := m.algoStats[name]
	if as == nil {
		as = &AlgoStat{}
		m.algoStats[name] = as
	}
	return as
}

// AlgoStats snapshots the per-backend shards, keyed by algorithm name.
func (m *Metrics) AlgoStats() map[string]*AlgoStat {
	m.amu.Lock()
	defer m.amu.Unlock()
	out := make(map[string]*AlgoStat, len(m.algoStats))
	for name, as := range m.algoStats {
		out[name] = as
	}
	return out
}

// noteAlgoDone attributes one done optimize job to its search backend.
// Results written before the algorithm field existed count under the
// default backend, which is what produced them.
func (m *Metrics) noteAlgoDone(opt *report.Result) {
	name := opt.Algorithm
	if name == "" {
		name = core.DefaultAlgorithm
	}
	as := m.algoStat(name)
	as.Done.Add(1)
	as.Iterations.Add(int64(len(opt.Iterations)))
	as.Simulations.Add(opt.Simulations)
}

// LaneStat aggregates one priority lane's traffic: current queue depth,
// jobs settled done, and the cumulative time jobs spent waiting in the
// lane (total nanoseconds from enqueue to dequeue — divided by done
// counts it yields the mean lane latency, the number the weighted
// round-robin exists to keep low for the verify lane).
type LaneStat struct {
	Queued    atomic.Int64 // gauge
	Done      atomic.Int64
	WaitNanos atomic.Int64
}

// laneStat returns (creating on first use) the named lane's shard.
func (m *Metrics) laneStat(name string) *LaneStat {
	m.lnmu.Lock()
	defer m.lnmu.Unlock()
	if m.laneStats == nil {
		m.laneStats = make(map[string]*LaneStat)
	}
	ls := m.laneStats[name]
	if ls == nil {
		ls = &LaneStat{}
		m.laneStats[name] = ls
	}
	return ls
}

// LaneStats snapshots the per-lane shards, keyed by lane name.
func (m *Metrics) LaneStats() map[string]*LaneStat {
	m.lnmu.Lock()
	defer m.lnmu.Unlock()
	out := make(map[string]*LaneStat, len(m.laneStats))
	for name, ls := range m.laneStats {
		out[name] = ls
	}
	return out
}

// WorkerStat aggregates one remote worker's shard of the pull protocol.
type WorkerStat struct {
	Claims    atomic.Int64
	Done      atomic.Int64
	Failed    atomic.Int64
	Expiries  atomic.Int64
	BusyNanos atomic.Int64
}

// workerStat returns (creating on first use) the named worker's shard.
func (m *Metrics) workerStat(name string) *WorkerStat {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if m.workerStats == nil {
		m.workerStats = make(map[string]*WorkerStat)
	}
	ws := m.workerStats[name]
	if ws == nil {
		ws = &WorkerStat{}
		m.workerStats[name] = ws
	}
	return ws
}

// WorkerStats snapshots the per-worker shards, keyed by worker name.
func (m *Metrics) WorkerStats() map[string]*WorkerStat {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	out := make(map[string]*WorkerStat, len(m.workerStats))
	for name, ws := range m.workerStats {
		out[name] = ws
	}
	return out
}

// Claims returns the number of leases granted to remote workers.
func (m *Metrics) Claims() int64 { return m.claims.Load() }

// LeaseExpiries returns the number of silent leases expired.
func (m *Metrics) LeaseExpiries() int64 { return m.leaseExpiries.Load() }

// Requeued returns the number of jobs sent back to the queue by lease
// expiry.
func (m *Metrics) Requeued() int64 { return m.requeued.Load() }

// JobsTracked returns the number of jobs currently in the store.
func (m *Metrics) JobsTracked() int64 { return m.jobsTracked.Load() }

// JobsEvicted returns the number of terminal jobs dropped by retention.
func (m *Metrics) JobsEvicted() int64 { return m.jobsEvicted.Load() }

// CacheEvictions returns the number of results dropped by the LRU cap.
func (m *Metrics) CacheEvictions() int64 { return m.cacheEvictions.Load() }

// CacheHits returns the number of submissions answered from the cache.
func (m *Metrics) CacheHits() int64 { return m.cacheHits.Load() }

// CacheWarmHits returns the number of cache hits served by entries the
// boot-time recovery restored from the journal.
func (m *Metrics) CacheWarmHits() int64 { return m.cacheWarmHits.Load() }

// RecoveredJobs returns the number of jobs the last boot restored from
// the persistent store.
func (m *Metrics) RecoveredJobs() int64 { return m.storeRecovered.Load() }

// Done returns the number of jobs finished successfully.
func (m *Metrics) Done() int64 { return m.done.Load() }

// Failed returns the number of jobs that ended in error.
func (m *Metrics) Failed() int64 { return m.failed.Load() }

// Canceled returns the number of jobs canceled before completion.
func (m *Metrics) Canceled() int64 { return m.canceled.Load() }

// Utilization returns the busy fraction of the worker pool since start.
func (m *Metrics) Utilization() float64 {
	up := time.Since(m.start)
	if up <= 0 || m.workers == 0 {
		return 0
	}
	return float64(m.busyNanos.Load()) / (float64(up) * float64(m.workers))
}

// WriteText renders the counters in Prometheus exposition format.
func (m *Metrics) WriteText(w io.Writer) {
	finished := m.done.Load() + m.failed.Load() + m.canceled.Load()
	wall := time.Duration(m.wallNanos.Load()).Seconds()
	avg := 0.0
	if finished > 0 {
		avg = wall / float64(finished)
	}
	fmt.Fprintf(w, "specwised_jobs_submitted_total %d\n", m.submitted.Load())
	fmt.Fprintf(w, "specwised_jobs_queued %d\n", m.queued.Load())
	fmt.Fprintf(w, "specwised_jobs_running %d\n", m.running.Load())
	fmt.Fprintf(w, "specwised_jobs_done_total %d\n", m.done.Load())
	m.amu.Lock()
	algos := make([]string, 0, len(m.algoStats))
	for name := range m.algoStats {
		algos = append(algos, name)
	}
	sort.Strings(algos)
	for _, name := range algos {
		fmt.Fprintf(w, "specwised_jobs_done_total{algorithm=%q} %d\n", name, m.algoStats[name].Done.Load())
	}
	fmt.Fprintf(w, "specwised_jobs_failed_total %d\n", m.failed.Load())
	fmt.Fprintf(w, "specwised_jobs_canceled_total %d\n", m.canceled.Load())
	fmt.Fprintf(w, "specwised_jobs_tracked %d\n", m.jobsTracked.Load())
	fmt.Fprintf(w, "specwised_jobs_evicted_total %d\n", m.jobsEvicted.Load())
	fmt.Fprintf(w, "specwised_jobs_requeued_total %d\n", m.requeued.Load())
	m.lnmu.Lock()
	laneNames := make([]string, 0, len(m.laneStats))
	for name := range m.laneStats {
		laneNames = append(laneNames, name)
	}
	sort.Strings(laneNames)
	for _, name := range laneNames {
		ls := m.laneStats[name]
		fmt.Fprintf(w, "specwised_lane_queued{lane=%q} %d\n", name, ls.Queued.Load())
		fmt.Fprintf(w, "specwised_lane_done{lane=%q} %d\n", name, ls.Done.Load())
		fmt.Fprintf(w, "specwised_lane_wait_seconds_total{lane=%q} %.6f\n", name,
			time.Duration(ls.WaitNanos.Load()).Seconds())
	}
	m.lnmu.Unlock()
	fmt.Fprintf(w, "specwised_batches_total %d\n", m.batches.Load())
	fmt.Fprintf(w, "specwised_batch_members_total %d\n", m.batchMembers.Load())
	fmt.Fprintf(w, "specwised_batch_members_deduped_total %d\n", m.batchDeduped.Load())
	fmt.Fprintf(w, "specwised_batches_evicted_total %d\n", m.batchesEvicted.Load())
	fmt.Fprintf(w, "specwised_claims_total %d\n", m.claims.Load())
	fmt.Fprintf(w, "specwised_leases_active %d\n", m.leasesActive.Load())
	fmt.Fprintf(w, "specwised_lease_expiries_total %d\n", m.leaseExpiries.Load())
	for _, name := range algos {
		as := m.algoStats[name]
		fmt.Fprintf(w, "specwised_algorithm_iterations_total{algorithm=%q} %d\n", name, as.Iterations.Load())
		fmt.Fprintf(w, "specwised_algorithm_simulations_total{algorithm=%q} %d\n", name, as.Simulations.Load())
	}
	m.amu.Unlock()
	fmt.Fprintf(w, "specwised_cache_hits_total %d\n", m.cacheHits.Load())
	fmt.Fprintf(w, "specwised_cache_warm_hits_total %d\n", m.cacheWarmHits.Load())
	fmt.Fprintf(w, "specwised_cache_evictions_total %d\n", m.cacheEvictions.Load())
	fmt.Fprintf(w, "specwised_cache_entries %d\n", m.cacheEntries.Load())
	var st StoreStats
	if m.storeStats != nil {
		st = m.storeStats()
	}
	fmt.Fprintf(w, "specwised_store_records_appended %d\n", st.Records)
	fmt.Fprintf(w, "specwised_store_bytes %d\n", st.Bytes)
	fmt.Fprintf(w, "specwised_store_snapshots %d\n", st.Snapshots)
	fmt.Fprintf(w, "specwised_store_recovered_jobs %d\n", m.storeRecovered.Load())
	fmt.Fprintf(w, "specwised_store_recovery_seconds %.6f\n",
		time.Duration(m.storeRecoveryNanos.Load()).Seconds())
	if m.sharedEval != nil {
		// Shared cache on: every job's lookups flow through the shared
		// shard, so its live counters are the authoritative evalcache
		// series (the per-run aggregates would lag until job completion).
		es := m.sharedEval()
		fmt.Fprintf(w, "specwised_evalcache_hits_total %d\n", es.Hits)
		fmt.Fprintf(w, "specwised_evalcache_cross_hits_total %d\n", es.CrossHits)
		fmt.Fprintf(w, "specwised_evalcache_misses_total %d\n", es.Misses)
		fmt.Fprintf(w, "specwised_evalcache_deduped_total %d\n", es.Deduped)
		fmt.Fprintf(w, "specwised_evalcache_overflow_total %d\n", es.Overflow)
		fmt.Fprintf(w, "specwised_evalcache_evictions_total %d\n", es.Evictions)
		fmt.Fprintf(w, "specwised_evalcache_entries %d\n", es.Entries)
		fmt.Fprintf(w, "specwised_evalcache_problems %d\n", es.Problems)
		if m.sharedEvalPerProblem != nil {
			per := m.sharedEvalPerProblem()
			probs := make([]string, 0, len(per))
			for p := range per {
				probs = append(probs, p)
			}
			sort.Strings(probs)
			for _, p := range probs {
				label := p
				if len(label) > 12 {
					label = label[:12]
				}
				fmt.Fprintf(w, "specwised_evalcache_problem_entries{problem=%q} %d\n", label, per[p])
			}
		}
	} else {
		fmt.Fprintf(w, "specwised_evalcache_hits_total %d\n", m.evalCacheHits.Load())
		fmt.Fprintf(w, "specwised_evalcache_cross_hits_total 0\n")
		fmt.Fprintf(w, "specwised_evalcache_misses_total %d\n", m.evalCacheMisses.Load())
		fmt.Fprintf(w, "specwised_evalcache_deduped_total %d\n", m.evalCacheDeduped.Load())
		fmt.Fprintf(w, "specwised_evalcache_overflow_total %d\n", m.evalCacheOverflow.Load())
		fmt.Fprintf(w, "specwised_evalcache_evictions_total %d\n", m.evalCacheEvicted.Load())
	}
	ss := sched.Default().Stats()
	fmt.Fprintf(w, "specwised_sched_capacity %d\n", ss.Capacity)
	fmt.Fprintf(w, "specwised_sched_fg_in_use %d\n", ss.InUse)
	fmt.Fprintf(w, "specwised_sched_fg_granted_total %d\n", ss.Granted)
	fmt.Fprintf(w, "specwised_sched_fg_denied_total %d\n", ss.Denied)
	fmt.Fprintf(w, "specwised_dc_warm_starts_total %d\n", m.warmStarts.Load())
	fmt.Fprintf(w, "specwised_dc_warm_converged_total %d\n", m.warmConverged.Load())
	fmt.Fprintf(w, "specwised_dc_fallbacks_total %d\n", m.dcFallbacks.Load())
	fmt.Fprintf(w, "specwised_solver_factorizations_total %d\n", m.solverFactorizations.Load())
	fmt.Fprintf(w, "specwised_solver_solves_total %d\n", m.solverSolves.Load())
	fmt.Fprintf(w, "specwised_solver_symbolic_factorizations_total %d\n", m.solverSymbolic.Load())
	fmt.Fprintf(w, "specwised_solver_matrix_nnz %d\n", m.solverMatrixNNZ.Load())
	fmt.Fprintf(w, "specwised_solver_factor_nnz %d\n", m.solverFactorNNZ.Load())
	fmt.Fprintf(w, "specwised_solver_dc_seconds_total %.6f\n",
		time.Duration(m.solverDCNanos.Load()).Seconds())
	fmt.Fprintf(w, "specwised_solver_ac_seconds_total %.6f\n",
		time.Duration(m.solverACNanos.Load()).Seconds())
	fmt.Fprintf(w, "specwised_solver_tran_seconds_total %.6f\n",
		time.Duration(m.solverTranNanos.Load()).Seconds())
	fmt.Fprintf(w, "specwised_workers %d\n", m.workers)
	fmt.Fprintf(w, "specwised_worker_busy_seconds_total %.6f\n",
		time.Duration(m.busyNanos.Load()).Seconds())
	fmt.Fprintf(w, "specwised_worker_utilization %.6f\n", m.Utilization())
	fmt.Fprintf(w, "specwised_job_wall_seconds_total %.6f\n", wall)
	fmt.Fprintf(w, "specwised_job_wall_seconds_avg %.6f\n", avg)
	m.wmu.Lock()
	names := make([]string, 0, len(m.workerStats))
	for name := range m.workerStats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ws := m.workerStats[name]
		fmt.Fprintf(w, "specwised_remote_worker_claims_total{worker=%q} %d\n", name, ws.Claims.Load())
		fmt.Fprintf(w, "specwised_remote_worker_jobs_done_total{worker=%q} %d\n", name, ws.Done.Load())
		fmt.Fprintf(w, "specwised_remote_worker_jobs_failed_total{worker=%q} %d\n", name, ws.Failed.Load())
		fmt.Fprintf(w, "specwised_remote_worker_lease_expiries_total{worker=%q} %d\n", name, ws.Expiries.Load())
		fmt.Fprintf(w, "specwised_remote_worker_busy_seconds_total{worker=%q} %.6f\n", name,
			time.Duration(ws.BusyNanos.Load()).Seconds())
	}
	m.wmu.Unlock()
	fmt.Fprintf(w, "specwised_uptime_seconds %.3f\n", time.Since(m.start).Seconds())
}
