package jobs

import (
	"bytes"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"specwise/internal/core"
	"specwise/internal/evalcache"
	"specwise/internal/problem"
	"specwise/internal/sched"
)

// Metrics is the registry behind GET /metrics. Every family on the page
// is declared once, in registerMetrics, in the order the page lists
// them. Counters are event-driven handles the manager bumps as things
// happen; gauges are functions of state the manager already holds,
// evaluated at scrape time, so they cannot drift from it. The page
// follows the Prometheus text exposition format.
type Metrics struct {
	families []family
	start    time.Time
	// state is the manager's lock, held across a render so the gauges
	// read from the job table, the lanes and the cache agree.
	state *sync.Mutex

	submitted, done, failed, canceled        *atomic.Int64
	requeued, jobsEvicted                    *atomic.Int64
	batches, batchMembers, batchDeduped      *atomic.Int64
	batchesEvicted, claims, leaseExpiries    *atomic.Int64
	cacheHits, cacheWarmHits, cacheEvictions *atomic.Int64
	busyNanos, wallNanos                     *atomic.Int64 // local-pool busy time; per-job wall time
	lanes, workers, algorithms               counterSet

	// Evaluation-reuse and solver effort summed over completed local
	// runs (see noteRun).
	runMu    sync.Mutex
	runCache evalcache.Stats
	runSim   problem.SimCounters

	// Set once by the boot-time recovery, before any concurrency.
	recovered    int64
	recoveryTime time.Duration
}

// family is one metric on the page: its name, its type, the name of its
// label, the precision its values print with (strconv.FormatFloat: -1
// for counts, 6 for seconds) and the function that produces its samples.
// A sample with an empty label value is the family's unlabelled sample.
type family struct {
	name, typ, label string
	prec             int
	samples          func(add func(label string, v float64))
}

// Column indices of the labelled counter sets.
const (
	laneDone, laneWaitNanos = 0, 1

	workerClaims, workerDone, workerFailed, workerExpiries, workerBusyNanos = 0, 1, 2, 3, 4

	algoDone, algoIterations, algoSimulations = 0, 1, 2
)

// counterSet holds counters that share one label (per lane, per remote
// worker or per algorithm) as one row per label value, so every family
// of the set lists every label value any of them has seen, zeros
// included. A row has five columns, the widest group's (a remote
// worker's) count.
type counterSet struct {
	mu   sync.Mutex
	rows map[string]*[5]int64
}

func (s *counterSet) add(label string, col int, n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rows == nil {
		s.rows = make(map[string]*[5]int64)
	}
	row := s.rows[label]
	if row == nil {
		row = new([5]int64)
		s.rows[label] = row
	}
	row[col] += n
}

// column returns the samples of one column in label order, scaled.
func (s *counterSet) column(col int, scale float64) func(add func(string, float64)) {
	return func(add func(string, float64)) {
		s.mu.Lock()
		defer s.mu.Unlock()
		labels := make([]string, 0, len(s.rows))
		for l := range s.rows {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			add(l, float64(s.rows[l][col])*scale)
		}
	}
}

// declare appends a family to the page.
func (r *Metrics) declare(name, typ, label string, prec int, samples func(add func(string, float64))) {
	r.families = append(r.families, family{name, typ, label, prec, samples})
}

// counter declares an unlabelled counter and returns its handle.
func (r *Metrics) counter(name string) *atomic.Int64 {
	c := new(atomic.Int64)
	r.declare(name, "counter", "", -1, func(add func(string, float64)) { add("", float64(c.Load())) })
	return c
}

// value declares an unlabelled family whose one sample is v().
func (r *Metrics) value(name, typ string, prec int, v func() float64) {
	r.declare(name, typ, "", prec, func(add func(string, float64)) { add("", v()) })
}

// seconds converts a nanosecond counter to seconds.
func seconds(c *atomic.Int64) func() float64 {
	return func() float64 { return time.Duration(c.Load()).Seconds() }
}

// registerMetrics declares every family of the page, in page order.
func (m *Manager) registerMetrics() {
	r := &m.metrics
	r.start, r.state = time.Now(), &m.mu
	for _, name := range Lanes() {
		r.lanes.add(name, laneDone, 0) // every lane is listed from boot
	}
	// jobs counts the tracked jobs matching pred. The render holds m.mu
	// and this takes each j.mu after it, the order sweep uses.
	jobs := func(pred func(j *Job) bool) func() float64 {
		return func() float64 {
			n := 0
			for _, j := range m.jobs {
				j.mu.Lock()
				if pred(j) {
					n++
				}
				j.mu.Unlock()
			}
			return float64(n)
		}
	}

	r.submitted = r.counter("specwised_jobs_submitted_total")
	r.value("specwised_jobs_queued", "gauge", -1, jobs(func(j *Job) bool { return j.state == StateQueued }))
	r.value("specwised_jobs_running", "gauge", -1, jobs(func(j *Job) bool { return j.state == StateRunning }))
	r.done = new(atomic.Int64)
	r.declare("specwised_jobs_done_total", "counter", "algorithm", -1, func(add func(string, float64)) {
		add("", float64(r.done.Load()))
		r.algorithms.column(algoDone, 1)(add)
	})
	r.failed = r.counter("specwised_jobs_failed_total")
	r.canceled = r.counter("specwised_jobs_canceled_total")
	r.value("specwised_jobs_tracked", "gauge", -1, func() float64 { return float64(len(m.jobs)) })
	r.jobsEvicted = r.counter("specwised_jobs_evicted_total")
	r.requeued = r.counter("specwised_jobs_requeued_total")
	r.declare("specwised_lane_queued", "gauge", "lane", -1, func(add func(string, float64)) {
		names := Lanes()
		sort.Strings(names)
		for _, name := range names {
			add(name, float64(m.lanes[name].pending.Len()))
		}
	})
	r.declare("specwised_lane_done", "counter", "lane", -1, r.lanes.column(laneDone, 1))
	r.declare("specwised_lane_wait_seconds_total", "counter", "lane", 6, r.lanes.column(laneWaitNanos, 1e-9))
	r.batches = r.counter("specwised_batches_total")
	r.batchMembers = r.counter("specwised_batch_members_total")
	r.batchDeduped = r.counter("specwised_batch_members_deduped_total")
	r.batchesEvicted = r.counter("specwised_batches_evicted_total")
	r.claims = r.counter("specwised_claims_total")
	r.value("specwised_leases_active", "gauge", -1, jobs(func(j *Job) bool { return j.state == StateRunning && j.leaseID != "" }))
	r.leaseExpiries = r.counter("specwised_lease_expiries_total")
	r.declare("specwised_algorithm_iterations_total", "counter", "algorithm", -1, r.algorithms.column(algoIterations, 1))
	r.declare("specwised_algorithm_simulations_total", "counter", "algorithm", -1, r.algorithms.column(algoSimulations, 1))
	r.cacheHits = r.counter("specwised_cache_hits_total")
	r.cacheWarmHits = r.counter("specwised_cache_warm_hits_total")
	r.cacheEvictions = r.counter("specwised_cache_evictions_total")
	r.value("specwised_cache_entries", "gauge", -1, func() float64 { return float64(m.lru.Len()) })

	store := func(v func(StoreStats) int64) func() float64 {
		return func() float64 { return float64(v(m.store.Stats())) }
	}
	r.value("specwised_store_records_appended", "counter", -1, store(func(s StoreStats) int64 { return s.Records }))
	r.value("specwised_store_bytes", "counter", -1, store(func(s StoreStats) int64 { return s.Bytes }))
	r.value("specwised_store_snapshots", "counter", -1, store(func(s StoreStats) int64 { return s.Snapshots }))
	r.value("specwised_store_recovered_jobs", "gauge", -1, func() float64 { return float64(r.recovered) })
	r.value("specwised_store_recovery_seconds", "gauge", 6, func() float64 { return r.recoveryTime.Seconds() })

	// With the shared cache on, every job's lookups flow through it, so
	// its live counters are the evalcache series; without it the series
	// sum the finished runs' private caches.
	eval := func(v func(evalcache.Stats) int64) func() float64 {
		return func() float64 {
			if m.evalShared == nil {
				r.runMu.Lock()
				defer r.runMu.Unlock()
				return float64(v(r.runCache))
			}
			s := m.evalShared.Stats()
			return float64(v(evalcache.Stats{Hits: s.Hits, CrossHits: s.CrossHits, Misses: s.Misses,
				Deduped: s.Deduped, Overflow: s.Overflow, Evictions: s.Evictions}))
		}
	}
	r.value("specwised_evalcache_hits_total", "counter", -1, eval(func(s evalcache.Stats) int64 { return s.Hits }))
	r.value("specwised_evalcache_cross_hits_total", "counter", -1, eval(func(s evalcache.Stats) int64 { return s.CrossHits }))
	r.value("specwised_evalcache_misses_total", "counter", -1, eval(func(s evalcache.Stats) int64 { return s.Misses }))
	r.value("specwised_evalcache_deduped_total", "counter", -1, eval(func(s evalcache.Stats) int64 { return s.Deduped }))
	r.value("specwised_evalcache_overflow_total", "counter", -1, eval(func(s evalcache.Stats) int64 { return s.Overflow }))
	r.value("specwised_evalcache_evictions_total", "counter", -1, eval(func(s evalcache.Stats) int64 { return s.Evictions }))
	if sh := m.evalShared; sh != nil {
		r.value("specwised_evalcache_entries", "gauge", -1, func() float64 { return float64(sh.Stats().Entries) })
		r.value("specwised_evalcache_problems", "gauge", -1, func() float64 { return float64(sh.Stats().Problems) })
		r.declare("specwised_evalcache_problem_entries", "gauge", "problem", -1, func(add func(string, float64)) {
			per := sh.PerProblem()
			probs := make([]string, 0, len(per))
			for p := range per {
				probs = append(probs, p)
			}
			sort.Strings(probs)
			for _, p := range probs {
				add(p[:min(len(p), 12)], float64(per[p]))
			}
		})
	}

	sch := func(v func(sched.Stats) int64) func() float64 {
		return func() float64 { return float64(v(sched.Default().Stats())) }
	}
	r.value("specwised_sched_capacity", "gauge", -1, sch(func(s sched.Stats) int64 { return int64(s.Capacity) }))
	r.value("specwised_sched_fg_in_use", "gauge", -1, sch(func(s sched.Stats) int64 { return int64(s.InUse) }))
	r.value("specwised_sched_fg_granted_total", "counter", -1, sch(func(s sched.Stats) int64 { return s.Granted }))
	r.value("specwised_sched_fg_denied_total", "counter", -1, sch(func(s sched.Stats) int64 { return s.Denied }))

	sim := func(v func(problem.SimCounters) int64, scale float64) func() float64 {
		return func() float64 {
			r.runMu.Lock()
			defer r.runMu.Unlock()
			return float64(v(r.runSim)) * scale
		}
	}
	r.value("specwised_dc_warm_starts_total", "counter", -1, sim(func(s problem.SimCounters) int64 { return s.WarmStarts }, 1))
	r.value("specwised_dc_warm_converged_total", "counter", -1, sim(func(s problem.SimCounters) int64 { return s.WarmConverged }, 1))
	r.value("specwised_dc_fallbacks_total", "counter", -1, sim(func(s problem.SimCounters) int64 { return s.Fallbacks }, 1))
	r.value("specwised_solver_factorizations_total", "counter", -1, sim(func(s problem.SimCounters) int64 { return s.Factorizations }, 1))
	r.value("specwised_solver_solves_total", "counter", -1, sim(func(s problem.SimCounters) int64 { return s.Solves }, 1))
	r.value("specwised_solver_symbolic_factorizations_total", "counter", -1, sim(func(s problem.SimCounters) int64 { return s.SymbolicFacts }, 1))
	r.value("specwised_solver_matrix_nnz", "gauge", -1, sim(func(s problem.SimCounters) int64 { return s.MatrixNNZ }, 1))
	r.value("specwised_solver_factor_nnz", "gauge", -1, sim(func(s problem.SimCounters) int64 { return s.FactorNNZ }, 1))
	r.value("specwised_solver_dc_seconds_total", "counter", 6, sim(func(s problem.SimCounters) int64 { return s.DCSolveNanos }, 1e-9))
	r.value("specwised_solver_ac_seconds_total", "counter", 6, sim(func(s problem.SimCounters) int64 { return s.ACSolveNanos }, 1e-9))
	r.value("specwised_solver_tran_seconds_total", "counter", 6, sim(func(s problem.SimCounters) int64 { return s.TranSolveNanos }, 1e-9))

	r.value("specwised_workers", "gauge", -1, func() float64 { return float64(m.cfg.Workers) })
	r.busyNanos, r.wallNanos = new(atomic.Int64), new(atomic.Int64)
	r.value("specwised_worker_busy_seconds_total", "counter", 6, seconds(r.busyNanos))
	r.value("specwised_worker_utilization", "gauge", 6, func() float64 {
		up := time.Since(r.start)
		if up <= 0 || m.cfg.Workers == 0 {
			return 0
		}
		return float64(r.busyNanos.Load()) / (float64(up) * float64(m.cfg.Workers))
	})
	r.value("specwised_job_wall_seconds_total", "counter", 6, seconds(r.wallNanos))
	r.value("specwised_job_wall_seconds_avg", "gauge", 6, func() float64 {
		finished := r.done.Load() + r.failed.Load() + r.canceled.Load()
		if finished == 0 {
			return 0
		}
		return seconds(r.wallNanos)() / float64(finished)
	})
	r.declare("specwised_remote_worker_claims_total", "counter", "worker", -1, r.workers.column(workerClaims, 1))
	r.declare("specwised_remote_worker_jobs_done_total", "counter", "worker", -1, r.workers.column(workerDone, 1))
	r.declare("specwised_remote_worker_jobs_failed_total", "counter", "worker", -1, r.workers.column(workerFailed, 1))
	r.declare("specwised_remote_worker_lease_expiries_total", "counter", "worker", -1, r.workers.column(workerExpiries, 1))
	r.declare("specwised_remote_worker_busy_seconds_total", "counter", "worker", 6, r.workers.column(workerBusyNanos, 1e-9))
	r.value("specwised_uptime_seconds", "gauge", 3, func() float64 { return time.Since(r.start).Seconds() })
}

// labelEscaper applies the exposition format's three label-value
// escapes; nothing else is escaped.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// WriteText renders the page: for each family in declaration order one
// # TYPE line, then all of its samples.
func (r *Metrics) WriteText(w io.Writer) {
	var b bytes.Buffer
	r.state.Lock()
	for _, f := range r.families {
		b.WriteString("# TYPE " + f.name + " " + f.typ + "\n")
		f.samples(func(label string, v float64) {
			b.WriteString(f.name)
			if label != "" {
				b.WriteString("{" + f.label + `="` + labelEscaper.Replace(label) + `"}`)
			}
			b.WriteString(" " + strconv.FormatFloat(v, 'f', f.prec, 64) + "\n")
		})
	}
	r.state.Unlock()
	w.Write(b.Bytes()) //nolint:errcheck // a scraper that hung up needs no answer
}

// noteRun folds one finished optimization's evaluation-reuse and solver
// counters into the service totals.
func (r *Metrics) noteRun(res *core.Result) {
	r.runMu.Lock()
	defer r.runMu.Unlock()
	ec := &r.runCache
	ec.Hits += res.EvalCache.Hits + res.EvalCache.ConstraintHits
	ec.Misses += res.EvalCache.Misses + res.EvalCache.ConstraintMisses
	ec.Deduped += res.EvalCache.Deduped
	ec.Evictions += res.EvalCache.Evictions
	ec.Overflow += res.EvalCache.Overflow
	r.runSim.Add(res.Sim)
}

// noteDone counts one job settled done in its lane and, for an optimize
// result, under its search backend (results written before the
// algorithm field existed count under the default backend, which is
// what produced them).
func (r *Metrics) noteDone(lane string, res *Result) {
	r.done.Add(1)
	r.lanes.add(lane, laneDone, 1)
	if res == nil || res.Optimization == nil {
		return
	}
	opt := res.Optimization
	name := opt.Algorithm
	if name == "" {
		name = core.DefaultAlgorithm
	}
	r.algorithms.add(name, algoDone, 1)
	r.algorithms.add(name, algoIterations, int64(len(opt.Iterations)))
	r.algorithms.add(name, algoSimulations, opt.Simulations)
}

// noteRemote settles a remote worker's finished lease: its wall time and
// its done or failed column.
func (r *Metrics) noteRemote(worker string, col int, busy time.Duration) {
	r.wallNanos.Add(int64(busy))
	r.workers.add(worker, col, 1)
	r.workers.add(worker, workerBusyNanos, int64(busy))
}

// RecoveredJobs returns the number of jobs the last boot restored from
// the persistent store.
func (r *Metrics) RecoveredJobs() int64 { return r.recovered }
