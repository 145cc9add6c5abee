package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"specwise/internal/core"
	"specwise/internal/problem"
	"specwise/internal/report"
	"specwise/internal/sched"
	"specwise/internal/wcd"
)

// testProblem is a cheap two-spec analytic problem (the optimizer-test
// fixture) with an optional per-evaluation delay so cancellation tests
// have something to interrupt.
func testProblem(evalDelay time.Duration) *problem.Problem {
	return &problem.Problem{
		Name: "analytic",
		Specs: []problem.Spec{
			{Name: "f", Kind: problem.GE, Bound: 0},
			{Name: "g", Kind: problem.GE, Bound: 0},
		},
		Design: []problem.Param{
			{Name: "d0", Init: 0, Lo: -1, Hi: 10},
			{Name: "d1", Init: 0, Lo: -1, Hi: 10},
		},
		StatNames: []string{"s0", "s1"},
		Theta:     []problem.OpRange{{Name: "t", Nominal: 0, Lo: -1, Hi: 1}},
		Eval: func(d, s, th []float64) ([]float64, error) {
			if evalDelay > 0 {
				time.Sleep(evalDelay)
			}
			f := d[0] - 2 + 0.5*s[0] - 0.1*th[0]
			g := 6 - d[0] - d[1] + 0.5*s[1] - 0.1*th[0]
			return []float64{f, g}, nil
		},
	}
}

func testManager(t *testing.T, cfg Config, delay time.Duration) *Manager {
	t.Helper()
	if cfg.Resolve == nil {
		cfg.Resolve = func(req *Request) (*problem.Problem, error) {
			return testProblem(delay), nil
		}
	}
	m := New(cfg)
	t.Cleanup(m.Close)
	return m
}

// waitState polls until the job reaches a terminal state or the deadline
// passes, returning the final state.
func waitState(t *testing.T, j *Job, timeout time.Duration) State {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if st := j.State(); st.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	return j.State()
}

var quickOpts = RunOptions{ModelSamples: 500, VerifySamples: 50, MaxIterations: 1, Seed: Seed(7)}

func TestJobRunsToCompletion(t *testing.T) {
	m := testManager(t, Config{Workers: 2}, 0)
	job, err := m.Submit(Request{Circuit: "analytic", Options: quickOpts})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, job, 10*time.Second); st != StateDone {
		t.Fatalf("state = %v (err %q), want done", st, job.Err())
	}
	res, ok := job.Result()
	if !ok || res == nil || res.Optimization == nil {
		t.Fatal("done job has no optimization result")
	}
	if res.Optimization.Problem != "analytic" {
		t.Errorf("result problem = %q", res.Optimization.Problem)
	}
	if len(res.Optimization.Iterations) < 1 {
		t.Error("result has no iterations")
	}
	st := job.Status()
	if len(st.Progress) == 0 {
		t.Error("no progress entries recorded")
	}
	if st.Progress[0].Stage != "initial" {
		t.Errorf("first progress stage = %q, want initial", st.Progress[0].Stage)
	}
	if st.WallSeconds <= 0 {
		t.Error("wall time not recorded")
	}
	if got := metricValue(t, m, "specwised_jobs_done_total"); got != 1 {
		t.Errorf("done counter = %v, want 1", got)
	}
}

// TestRunPanicFailsJob checks that a run that panics fails its own job
// with the panic in the error, and that the manager goes on serving.
// The shared evaluation cache is on, and the panicking request is
// submitted twice: the second run meets the cache entry the first
// panic left behind and must fail too, not wait on it forever. Every
// scheduler slot is held so the evaluations run on the job's own
// goroutine, where the runner's recover sees the panic.
func TestRunPanicFailsJob(t *testing.T) {
	t.Cleanup(sched.Default().HoldAll())
	m := testManager(t, Config{Workers: 1, SharedEvalCache: true, Resolve: func(req *Request) (*problem.Problem, error) {
		p := testProblem(0)
		if req.Options.Seed != nil && *req.Options.Seed == 13 {
			p.Eval = func(d, s, th []float64) ([]float64, error) { panic("simulator exploded") }
		}
		return p, nil
	}}, 0)
	bad := quickOpts
	bad.Seed = Seed(13)
	for run := 1; run <= 2; run++ {
		job, err := m.Submit(Request{Circuit: "analytic", Options: bad})
		if err != nil {
			t.Fatal(err)
		}
		if st := waitState(t, job, 10*time.Second); st != StateFailed {
			t.Fatalf("run %d: state = %v, want failed", run, st)
		}
		if msg := job.Err(); !strings.Contains(msg, "panicked") || !strings.Contains(msg, "simulator exploded") {
			t.Fatalf("run %d: job error %q does not report the panic", run, msg)
		}
	}
	good, err := m.Submit(Request{Circuit: "analytic", Options: quickOpts})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, good, 10*time.Second); st != StateDone {
		t.Fatalf("job after the panic: state %v (err %q), want done", st, good.Err())
	}
}

// TestPooledPanicFailsJob panics on the Nth simulator call and every
// later one, with the scheduler's slots free and held. Depending on N
// the panic hits the job's own goroutine, a pooled sched.For worker
// running one of Engine.Analyze's per-spec worst-case searches, or one
// running a gradient probe nested inside them; each must fail the job (not the test binary), and a resubmission of
// the same request under the shared evaluation cache must fail again
// rather than hang.
func TestPooledPanicFailsJob(t *testing.T) {
	for _, held := range []bool{false, true} {
		for _, n := range []int64{3, 10, 25} {
			release := func() {}
			if held {
				release = sched.Default().HoldAll()
			}
			var calls atomic.Int64
			m := testManager(t, Config{Workers: 1, SharedEvalCache: true, Resolve: func(req *Request) (*problem.Problem, error) {
				p := testProblem(0)
				eval := p.Eval
				p.Eval = func(d, s, th []float64) ([]float64, error) {
					if calls.Add(1) >= n {
						panic("simulator exploded")
					}
					return eval(d, s, th)
				}
				return p, nil
			}}, 0)
			for run := 1; run <= 2; run++ {
				job, err := m.Submit(Request{Circuit: "analytic", Options: quickOpts})
				if err != nil {
					t.Fatal(err)
				}
				if st := waitState(t, job, 10*time.Second); st != StateFailed {
					t.Fatalf("held=%v N=%d run %d: state = %v, want failed", held, n, run, st)
				}
				if msg := job.Err(); !strings.Contains(msg, "simulator exploded") {
					t.Fatalf("held=%v N=%d run %d: job error %q does not report the panic", held, n, run, msg)
				}
			}
			release()
			m.Close()
		}
	}
}

func TestIdenticalResubmissionHitsCache(t *testing.T) {
	m := testManager(t, Config{Workers: 1}, 0)
	req := Request{Circuit: "analytic", Options: quickOpts}
	first, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, first, 10*time.Second); st != StateDone {
		t.Fatalf("first job: state %v, err %q", st, first.Err())
	}
	if metricValue(t, m, "specwised_cache_hits_total") != 0 {
		t.Fatal("cache hit before any resubmission")
	}

	second, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	// A cache hit is answered synchronously: no queue, no worker.
	if st := second.State(); st != StateDone {
		t.Fatalf("resubmission state = %v, want done immediately", st)
	}
	if !second.Status().Cached {
		t.Error("resubmission not flagged as cached")
	}
	if got := metricValue(t, m, "specwised_cache_hits_total"); got != 1 {
		t.Errorf("cache-hit counter = %v, want 1", got)
	}
	r1, _ := first.Result()
	r2, _ := second.Result()
	b1, _ := json.Marshal(r1)
	b2, _ := json.Marshal(r2)
	if string(b1) != string(b2) {
		t.Error("cached result differs from the original")
	}

	// A different seed is a different problem: it must miss.
	miss := req
	miss.Options.Seed = Seed(8)
	third, err := m.Submit(miss)
	if err != nil {
		t.Fatal(err)
	}
	if third.Status().Cached {
		t.Error("different options reported a cache hit")
	}
	waitState(t, third, 10*time.Second)
}

func TestResultCacheLRUEviction(t *testing.T) {
	m := testManager(t, Config{Workers: 1, CacheSize: 2}, 0)
	submit := func(seed uint64) *Job {
		t.Helper()
		opts := quickOpts
		opts.Seed = Seed(seed)
		job, err := m.Submit(Request{Circuit: "analytic", Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		if st := waitState(t, job, 10*time.Second); st != StateDone {
			t.Fatalf("seed %d: state %v, err %q", seed, st, job.Err())
		}
		return job
	}

	submit(1)
	submit(2)
	if got := metricValue(t, m, "specwised_cache_evictions_total"); got != 0 {
		t.Fatalf("evictions = %v before the cap was reached", got)
	}
	// Touch seed 1 so it is the most recently used, then overflow: the
	// third distinct result must push out seed 2, not seed 1.
	if j := submit(1); !j.Status().Cached {
		t.Fatal("resubmission of seed 1 missed the cache")
	}
	submit(3)
	if got := metricValue(t, m, "specwised_cache_evictions_total"); got != 1 {
		t.Fatalf("evictions = %v, want 1", got)
	}
	if j := submit(1); !j.Status().Cached {
		t.Error("seed 1 was evicted despite being recently used")
	}
	if j := submit(2); j.Status().Cached {
		t.Error("seed 2 survived past the cache cap")
	}
}

func TestCancelRunningJob(t *testing.T) {
	// Slow evaluations and a long verification give the cancel a wide
	// in-flight window; the job must still wind down promptly.
	m := testManager(t, Config{Workers: 1}, 200*time.Microsecond)
	job, err := m.Submit(Request{Circuit: "analytic", Options: RunOptions{
		ModelSamples: 500, VerifySamples: 5000, MaxIterations: 8, Seed: Seed(3),
	}})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for job.State() != StateRunning && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if job.State() != StateRunning {
		t.Fatalf("job never started (state %v)", job.State())
	}
	start := time.Now()
	if _, err := m.Cancel(job.ID()); err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, job, 5*time.Second); st != StateCanceled {
		t.Fatalf("state after cancel = %v, want canceled", st)
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Errorf("cancellation took %v", took)
	}
	if got := metricValue(t, m, "specwised_jobs_canceled_total"); got != 1 {
		t.Errorf("canceled counter = %v, want 1", got)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	m := testManager(t, Config{Workers: 1}, 500*time.Microsecond)
	// Occupy the single worker.
	blocker, err := m.Submit(Request{Circuit: "analytic", Options: RunOptions{
		ModelSamples: 500, VerifySamples: 5000, MaxIterations: 8, Seed: Seed(1),
	}})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(Request{Circuit: "analytic", Options: quickOpts})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	if st := queued.State(); st != StateCanceled {
		t.Fatalf("queued job state after cancel = %v", st)
	}
	if _, err := m.Cancel(blocker.ID()); err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, 5*time.Second)
}

// TestSettledJobReleasesProblem: a job drops its resolved problem (the
// harness with its pooled testbenches) when it settles terminal, done
// or canceled, running or queued, not when retention evicts it.
func TestSettledJobReleasesProblem(t *testing.T) {
	m := testManager(t, Config{Workers: 1}, 500*time.Microsecond)
	problemOf := func(j *Job) *problem.Problem {
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.problem
	}
	running, err := m.Submit(Request{Circuit: "analytic", Options: RunOptions{
		ModelSamples: 500, VerifySamples: 5000, MaxIterations: 8, Seed: Seed(1),
	}})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(Request{Circuit: "analytic", Options: quickOpts})
	if err != nil {
		t.Fatal(err)
	}
	if problemOf(queued) == nil {
		t.Fatal("queued job holds no problem")
	}
	if _, err := m.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(running.ID()); err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, running, 5*time.Second); st != StateCanceled {
		t.Fatalf("running job state after cancel = %v", st)
	}
	done, err := m.Submit(Request{Circuit: "analytic", Options: quickOpts})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, done, 10*time.Second); st != StateDone {
		t.Fatalf("job state = %v (%s)", st, done.Err())
	}
	for _, j := range []*Job{queued, running, done} {
		if st := j.State(); !st.Terminal() || problemOf(j) != nil {
			t.Errorf("job %s (%v) still references its problem", j.ID(), st)
		}
	}
}

func TestQueueFull(t *testing.T) {
	m := testManager(t, Config{Workers: 1, QueueSize: 1}, 500*time.Microsecond)
	slow := RunOptions{ModelSamples: 500, VerifySamples: 5000, MaxIterations: 8, Seed: Seed(1)}
	// Occupy the worker, then fill the single queue slot; the next
	// submission must bounce with ErrQueueFull.
	blocker, err := m.Submit(Request{Circuit: "analytic", Options: slow})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for blocker.State() != StateRunning && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if blocker.State() != StateRunning {
		t.Fatalf("blocker never started (state %v)", blocker.State())
	}
	filler := slow
	filler.Seed = Seed(2)
	queued, err := m.Submit(Request{Circuit: "analytic", Options: filler})
	if err != nil {
		t.Fatal(err)
	}
	rejected := slow
	rejected.Seed = Seed(3)
	if _, err := m.Submit(Request{Circuit: "analytic", Options: rejected}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity submit: err = %v, want ErrQueueFull", err)
	}
	for _, id := range []string{queued.ID(), blocker.ID()} {
		if _, err := m.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	waitState(t, blocker, 5*time.Second)
}

func TestSubmitValidation(t *testing.T) {
	m := New(Config{Workers: 1}) // default resolver
	defer m.Close()
	cases := []Request{
		{}, // neither circuit nor spec
		{Circuit: "ota", Spec: json.RawMessage(`{}`)}, // both
		{Circuit: "nonexistent"},                      // unknown circuit
		{Kind: "frobnicate", Circuit: "ota"},
		{Spec: json.RawMessage(`{"name": }`)}, // broken JSON spec
	}
	for i, req := range cases {
		if _, err := m.Submit(req); err == nil {
			t.Errorf("case %d: invalid request accepted", i)
		}
	}
}

// An inline spec has no directory of its own: a netlistFile in one must
// be refused before any file is opened, whether it climbs out of the
// working directory or is absolute. The csamp paths name a real, valid
// netlist, so a resolver that read the file would return a problem.
func TestResolveProblemRefusesNetlistFile(t *testing.T) {
	example, err := os.ReadFile("../../examples/netlistproblem/csamp.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]any
	if err := json.Unmarshal(example, &spec); err != nil {
		t.Fatal(err)
	}
	abs, err := filepath.Abs("../../examples/netlistproblem/csamp.cir")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{
		"../../../../etc/passwd",
		"/etc/passwd",
		"../../examples/netlistproblem/csamp.cir",
		abs,
	} {
		spec["netlistFile"] = path
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ResolveProblem(&Request{Spec: raw})
		if err == nil || p != nil {
			t.Fatalf("netlistFile %q: resolved %v, want an error", path, p)
		}
		if !strings.Contains(err.Error(), "inline specs must carry the netlist inline") {
			t.Errorf("netlistFile %q: err = %v, want the inline-netlist refusal", path, err)
		}
	}
}

func TestRequestHashNormalization(t *testing.T) {
	a := Request{Kind: KindOptimize, Spec: json.RawMessage(`{"name":"x","netlist":"n"}`)}
	b := Request{Kind: KindOptimize, Spec: json.RawMessage("{ \"name\": \"x\",\n  \"netlist\": \"n\" }")}
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Error("whitespace-only spec difference changed the hash")
	}
	c := a
	c.Options.Seed = Seed(99)
	hc, err := c.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hc == ha {
		t.Error("different options hash equally")
	}
}

func TestVerifyKind(t *testing.T) {
	m := testManager(t, Config{Workers: 1}, 0)
	job, err := m.Submit(Request{Kind: KindVerify, Circuit: "analytic",
		Options: RunOptions{VerifySamples: 200, Seed: Seed(5)}})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, job, 10*time.Second); st != StateDone {
		t.Fatalf("verify job state = %v, err %q", st, job.Err())
	}
	res, _ := job.Result()
	if res == nil || res.Verification == nil {
		t.Fatal("verify job has no verification result")
	}
	if res.Verification.Samples != 200 {
		t.Errorf("samples = %d, want 200", res.Verification.Samples)
	}
	if res.Verification.Yield < 0 || res.Verification.Yield > 1 {
		t.Errorf("yield = %v", res.Verification.Yield)
	}
}

// --- lifecycle regression tests (PR 5) ---

// A canceled queued job must free its queue slot immediately: before
// the list-based queue, the canceled entry sat in the channel until a
// worker drained it, so ErrQueueFull fired while capacity was
// logically free.
func TestCancelQueuedJobFreesSlot(t *testing.T) {
	m := testManager(t, Config{RemoteOnly: true, QueueSize: 1}, 0)
	a, err := m.Submit(Request{Circuit: "analytic", Options: quickOpts})
	if err != nil {
		t.Fatal(err)
	}
	full := quickOpts
	full.Seed = Seed(2)
	if _, err := m.Submit(Request{Circuit: "analytic", Options: full}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second submit: err = %v, want ErrQueueFull", err)
	}
	if _, err := m.Cancel(a.ID()); err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(Request{Circuit: "analytic", Options: full})
	if err != nil {
		t.Fatalf("submit after cancel: %v (the canceled job still pins the slot)", err)
	}
	// The queue must hand out the live job, not the canceled one.
	lease, err := m.Claim("w1")
	if err != nil {
		t.Fatal(err)
	}
	if lease == nil || lease.JobID != b.ID() {
		t.Fatalf("claim = %+v, want job %s", lease, b.ID())
	}
}

// A full-queue rejection must leave no trace: the job is not tracked
// and the store gauge is unchanged.
func TestQueueFullRollback(t *testing.T) {
	m := testManager(t, Config{RemoteOnly: true, QueueSize: 1}, 0)
	if _, err := m.Submit(Request{Circuit: "analytic", Options: quickOpts}); err != nil {
		t.Fatal(err)
	}
	before := metricValue(t, m, "specwised_jobs_tracked")
	over := quickOpts
	over.Seed = Seed(2)
	if _, err := m.Submit(Request{Circuit: "analytic", Options: over}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if got := metricValue(t, m, "specwised_jobs_tracked"); got != before {
		t.Errorf("jobs tracked after rejection = %v, want %v", got, before)
	}
	if got := len(m.Jobs()); got != 1 {
		t.Errorf("job list has %d entries after rejection, want 1", got)
	}
}

// Close must not strand queued jobs in StateQueued: workers may exit
// via ctx.Done without draining the queue.
func TestCloseCancelsQueuedJobs(t *testing.T) {
	m := testManager(t, Config{RemoteOnly: true}, 0)
	var js []*Job
	for seed := uint64(1); seed <= 3; seed++ {
		opts := quickOpts
		opts.Seed = Seed(seed)
		j, err := m.Submit(Request{Circuit: "analytic", Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		js = append(js, j)
	}
	m.Close()
	for _, j := range js {
		if st := j.State(); st != StateCanceled {
			t.Errorf("job %s after Close: state %v, want canceled", j.ID(), st)
		}
	}
	if got := metricValue(t, m, "specwised_jobs_canceled_total"); got != 3 {
		t.Errorf("canceled counter = %v, want 3", got)
	}
	if _, err := m.Submit(Request{Circuit: "analytic", Options: quickOpts}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after Close: err = %v, want ErrClosed", err)
	}
}

// Terminal jobs must not accumulate without bound: the retention cap
// evicts the oldest-finished first.
func TestRetentionCapEvictsTerminalJobs(t *testing.T) {
	m := testManager(t, Config{RemoteOnly: true, RetainJobs: 2}, 0)
	var ids []string
	for seed := uint64(1); seed <= 4; seed++ {
		opts := quickOpts
		opts.Seed = Seed(seed)
		j, err := m.Submit(Request{Circuit: "analytic", Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Cancel(j.ID()); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID())
	}
	if got := metricValue(t, m, "specwised_jobs_tracked"); got != 2 {
		t.Errorf("jobs tracked = %v, want 2", got)
	}
	if got := metricValue(t, m, "specwised_jobs_evicted_total"); got != 2 {
		t.Errorf("jobs evicted = %v, want 2", got)
	}
	for _, id := range ids[:2] {
		if _, ok := m.Get(id); ok {
			t.Errorf("oldest job %s still tracked past the cap", id)
		}
	}
	for _, id := range ids[2:] {
		if _, ok := m.Get(id); !ok {
			t.Errorf("recent job %s was evicted", id)
		}
	}
}

// The retention TTL sweep evicts terminal jobs by age, driven here by
// a fake clock.
func TestRetentionTTLSweep(t *testing.T) {
	clk := newFakeClock()
	cfg := Config{RemoteOnly: true, RetainFor: time.Hour, clock: clk.Now}
	m := testManager(t, cfg, 0)
	for seed := uint64(1); seed <= 2; seed++ {
		opts := quickOpts
		opts.Seed = Seed(seed)
		j, err := m.Submit(Request{Circuit: "analytic", Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Cancel(j.ID()); err != nil {
			t.Fatal(err)
		}
	}
	m.sweep(clk.Now())
	if got := metricValue(t, m, "specwised_jobs_tracked"); got != 2 {
		t.Fatalf("fresh terminal jobs evicted early (tracked = %v)", got)
	}
	clk.Advance(2 * time.Hour)
	m.sweep(clk.Now())
	if got := metricValue(t, m, "specwised_jobs_tracked"); got != 0 {
		t.Errorf("jobs tracked after TTL sweep = %v, want 0", got)
	}
	if got := metricValue(t, m, "specwised_jobs_evicted_total"); got != 2 {
		t.Errorf("jobs evicted = %v, want 2", got)
	}
}

// Seed 0 must be a real, requestable stream: distinct from an unset
// seed in the content hash, and honored (not silently replaced with
// the default stream) by execution.
func TestSeedZeroIsRequestable(t *testing.T) {
	unset := Request{Kind: KindVerify, Circuit: "analytic", Options: RunOptions{VerifySamples: 300}}
	zero := unset
	zero.Options.Seed = Seed(0)
	hu, err := unset.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hz, err := zero.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hu == hz {
		t.Fatal("seed 0 hashes like an unset seed: the cache would conflate them")
	}
	// The wire encoding of unset and nonzero seeds is unchanged, so
	// pre-pointer cache keys stay reachable.
	if blob, _ := json.Marshal(RunOptions{}); strings.Contains(string(blob), "seed") {
		t.Errorf("unset seed leaks into the encoding: %s", blob)
	}
	if blob, _ := json.Marshal(RunOptions{Seed: Seed(7)}); !strings.Contains(string(blob), `"seed":7`) {
		t.Errorf("explicit seed encoded unexpectedly: %s", blob)
	}

	m := testManager(t, Config{Workers: 1}, 0)
	jz, err := m.Submit(zero)
	if err != nil {
		t.Fatal(err)
	}
	ju, err := m.Submit(unset)
	if err != nil {
		t.Fatal(err)
	}
	if waitState(t, jz, 10*time.Second) != StateDone || waitState(t, ju, 10*time.Second) != StateDone {
		t.Fatalf("verify jobs did not finish (%v / %v)", jz.Err(), ju.Err())
	}
	rz, _ := jz.Result()
	ru, _ := ju.Result()
	bz, _ := json.Marshal(rz.Verification)
	bu, _ := json.Marshal(ru.Verification)
	if string(bz) == string(bu) {
		t.Error("seed 0 produced the default-stream result: the zero seed was swallowed")
	}
	// And seed 0 means literally seed 0: the job must match a direct
	// library-level verification with that seed.
	p := testProblem(0)
	d := p.InitialDesign()
	thetaRes, err := wcd.WorstCaseTheta(p, d, make([]float64, p.NumStat()))
	if err != nil {
		t.Fatal(err)
	}
	mc, err := core.VerifyMCContext(context.Background(), p, d, thetaRes.PerSpec, 300, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(report.JSONVerification(p, mc))
	if string(bz) != string(want) {
		t.Errorf("seed-0 job result differs from direct seed-0 run:\n got %s\nwant %s", bz, want)
	}
}

// TestSpeculateTriState: the retired options.speculate stays a tri-state
// wire field. Unset is omitted (pre-knob hashes intact), and both
// explicit values are encoded and hash distinctly, so journaled requests
// that carried either keep their content hash. Optimize jobs accept and
// ignore either value; verify jobs reject an explicit value, false
// included, like any other optimizer-only option.
func TestSpeculateTriState(t *testing.T) {
	on, off := true, false
	if blob, _ := json.Marshal(RunOptions{}); strings.Contains(string(blob), "speculate") {
		t.Errorf("unset speculate leaks into the encoding: %s", blob)
	}
	if blob, _ := json.Marshal(RunOptions{Speculate: &on}); !strings.Contains(string(blob), `"speculate":true`) {
		t.Errorf("explicit opt-in not encoded: %s", blob)
	}
	if blob, _ := json.Marshal(RunOptions{Speculate: &off}); !strings.Contains(string(blob), `"speculate":false`) {
		t.Errorf("explicit opt-out must be wire-visible: %s", blob)
	}

	hashes := map[string]string{}
	for name, opt := range map[string]*bool{"unset": nil, "true": &on, "false": &off} {
		req := Request{Circuit: "ota", Options: RunOptions{Seed: Seed(7), Speculate: opt}}
		if err := req.Normalize(); err != nil {
			t.Fatalf("optimize with speculate %s: Normalize: %v", name, err)
		}
		h, err := req.Hash()
		if err != nil {
			t.Fatalf("optimize with speculate %s: Hash: %v", name, err)
		}
		for other, oh := range hashes {
			if oh == h {
				t.Errorf("speculate %s and %s hash identically", name, other)
			}
		}
		hashes[name] = h

		verify := Request{Kind: KindVerify, Circuit: "ota", Options: RunOptions{Speculate: opt}}
		err = verify.Normalize()
		if opt == nil && err != nil {
			t.Errorf("verify without speculate: Normalize: %v", err)
		}
		if opt != nil && (err == nil || !strings.Contains(err.Error(), "speculate")) {
			t.Errorf("verify with speculate %s: got %v, want a rejection naming speculate", name, err)
		}
	}
}

// TestRetiredWorkerOptions: options.verifyWorkers and options.sweepWorkers
// no longer size anything (the process-wide scheduler does), but they
// stay in the encoding so requests carrying them keep their content hash.
// Core and Execute ignore them; verify jobs still accept verifyWorkers
// and still reject sweepWorkers like any other optimizer-only option.
func TestRetiredWorkerOptions(t *testing.T) {
	if blob, _ := json.Marshal(RunOptions{}); strings.Contains(string(blob), "Workers") {
		t.Errorf("unset worker options leak into the encoding: %s", blob)
	}
	set := RunOptions{Seed: Seed(3), VerifyWorkers: 2, SweepWorkers: 3}
	blob, _ := json.Marshal(set)
	if !strings.Contains(string(blob), `"verifyWorkers":2`) || !strings.Contains(string(blob), `"sweepWorkers":3`) {
		t.Errorf("retired worker options dropped from the encoding: %s", blob)
	}
	var back RunOptions
	if err := json.Unmarshal(blob, &back); err != nil || back.VerifyWorkers != 2 || back.SweepWorkers != 3 {
		t.Errorf("retired worker options do not decode: %+v, %v", back, err)
	}
	plain := RunOptions{Seed: Seed(3)}
	if !reflect.DeepEqual(set.Core(), plain.Core()) {
		t.Errorf("Core honors retired worker options:\n%+v\nvs\n%+v", set.Core(), plain.Core())
	}
	withOpt := Request{Circuit: "ota", Options: set}
	withoutOpt := Request{Circuit: "ota", Options: plain}
	h1, _ := withOpt.Hash()
	h2, _ := withoutOpt.Hash()
	if h1 == h2 {
		t.Error("retired worker options fell out of the content hash")
	}

	// Execute ignores verifyWorkers on a verify job: the result envelope
	// matches the same request without it.
	verify := func(opts RunOptions) string {
		req := Request{Kind: KindVerify, Circuit: "analytic", Options: opts}
		if err := req.Normalize(); err != nil {
			t.Fatalf("verify %+v: Normalize: %v", opts, err)
		}
		res, _, err := Execute(context.Background(), testProblem(0), &req, ExecEnv{})
		if err != nil {
			t.Fatal(err)
		}
		out, _ := json.Marshal(res)
		return string(out)
	}
	if a, b := verify(RunOptions{VerifySamples: 50, Seed: Seed(3), VerifyWorkers: 2}),
		verify(RunOptions{VerifySamples: 50, Seed: Seed(3)}); a != b {
		t.Errorf("verifyWorkers changed a verify result:\n%s\nvs\n%s", a, b)
	}
	bad := Request{Kind: KindVerify, Circuit: "ota", Options: RunOptions{SweepWorkers: 3}}
	if err := bad.Normalize(); err == nil || !strings.Contains(err.Error(), "sweepWorkers") {
		t.Errorf("verify with sweepWorkers: got %v, want a rejection naming sweepWorkers", err)
	}
}
