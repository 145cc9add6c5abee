package jobs

// Batch-submission suite: atomicity, in-batch and result-cache
// deduplication, the combined status/effort rollup, retention pinning,
// crash recovery of committed and uncommitted batches, and the
// bit-identity of results with the shared evaluation cache on and off.

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"specwise/internal/evalcache"
	"specwise/internal/problem"
	"specwise/internal/wcd"
)

// batchReqs builds n analytic requests with seeds 1..n.
func batchReqs(n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		opts := quickOpts
		opts.Seed = Seed(uint64(i + 1))
		reqs[i] = Request{Circuit: "analytic", Options: opts}
	}
	return reqs
}

// waitBatch polls until the batch is terminal, returning the final status.
func waitBatch(t *testing.T, m *Manager, id string, timeout time.Duration) BatchStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := m.BatchStatus(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch %s not terminal after %v: %+v", id, timeout, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Byte-identical requests in one batch must fold into a single job: one
// simulation run, one result cache entry, and the same result envelope
// served to every folded member.
func TestBatchMemberDedupe(t *testing.T) {
	m := testManager(t, Config{Workers: 1}, 0)

	reqs := batchReqs(2)
	reqs = append(reqs, reqs[0], reqs[1], reqs[0]) // 5 members, 2 distinct
	b, err := m.SubmitBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	st := waitBatch(t, m, b.ID(), 10*time.Second)
	if st.State != StateDone {
		t.Fatalf("batch state = %v: %+v", st.State, st)
	}
	if st.Unique != 2 || st.Deduped != 3 || st.Done != 2 {
		t.Fatalf("unique/deduped/done = %d/%d/%d, want 2/3/2", st.Unique, st.Deduped, st.Done)
	}
	if len(st.Members) != 5 {
		t.Fatalf("members = %d, want 5", len(st.Members))
	}
	// Folded members share the backing job's ID and status.
	if st.Members[0].ID != st.Members[2].ID || st.Members[2].ID != st.Members[4].ID {
		t.Errorf("duplicate requests did not share a job: %s %s %s",
			st.Members[0].ID, st.Members[2].ID, st.Members[4].ID)
	}
	if st.Members[1].ID != st.Members[3].ID {
		t.Errorf("duplicate requests did not share a job: %s %s", st.Members[1].ID, st.Members[3].ID)
	}
	if st.Members[0].ID == st.Members[1].ID {
		t.Error("distinct requests folded together")
	}
	// One execution per distinct request: the folded members never
	// reached a worker (and stored no extra cache entries).
	if got := metricValue(t, m, "specwised_jobs_done_total"); got != 2 {
		t.Errorf("done counter = %v, want 2 (one execution per distinct request)", got)
	}
	j0, _ := m.Get(st.Members[0].ID)
	j1, _ := m.Get(st.Members[2].ID)
	r0, _ := j0.Result()
	r1, _ := j1.Result()
	if r0 != r1 {
		t.Error("folded members hold different result envelopes")
	}
	// A resubmission of a member request hits the result cache.
	hit, err := m.Submit(reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Status().Cached {
		t.Error("post-batch resubmission missed the result cache")
	}
}

// Batch members hash-identical to an already-cached result settle
// immediately, without a queue slot or an execution.
func TestBatchDedupesAgainstResultCache(t *testing.T) {
	m := testManager(t, Config{Workers: 1}, 0)
	pre := submitQuick(t, m, 1)
	if got := waitState(t, pre, 10*time.Second); got != StateDone {
		t.Fatalf("priming job state = %v", got)
	}
	b, err := m.SubmitBatch(batchReqs(2)) // seed 1 cached, seed 2 fresh
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.BatchStatus(b.ID())
	if err != nil {
		t.Fatal(err)
	}
	if st.Cached != 1 || !st.Members[0].Cached {
		t.Errorf("cached member not settled from the result cache: %+v", st)
	}
	if st.Members[0].State != StateDone {
		t.Errorf("cached member state = %v, want done at submit time", st.Members[0].State)
	}
	final := waitBatch(t, m, b.ID(), 10*time.Second)
	if final.State != StateDone || final.Done != 2 {
		t.Fatalf("final batch status: %+v", final)
	}
	if final.Effort.Simulations <= 0 {
		t.Error("effort rollup lost the fresh member's simulations")
	}
}

// A batch that does not fit in the queue is rejected whole: no member
// is enqueued, tracked, or journaled, and the ID sequences roll back.
func TestBatchQueueFullAtomic(t *testing.T) {
	st := &memStore{}
	m := persistManager(t, Config{RemoteOnly: true, QueueSize: 2}, st, 0)
	records := st.Stats().Records
	if _, err := m.SubmitBatch(batchReqs(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if got := len(m.Jobs()); got != 0 {
		t.Fatalf("rejected batch left %d tracked jobs", got)
	}
	if got := st.Stats().Records; got != records {
		t.Fatalf("rejected batch journaled %d records", got-records)
	}
	// The rollback returned the sequence numbers: the next submissions
	// reuse them.
	j, err := m.Submit(Request{Circuit: "analytic", Options: quickOpts})
	if err != nil {
		t.Fatal(err)
	}
	if j.ID() != "job-000001" {
		t.Errorf("job ID after rollback = %s, want job-000001", j.ID())
	}
	b, err := m.SubmitBatch(batchReqs(1))
	if err != nil {
		t.Fatal(err)
	}
	if b.ID() != "batch-000001" {
		t.Errorf("batch ID after rollback = %s, want batch-000001", b.ID())
	}
	// Capacity counts only fresh jobs: members answered by the result
	// cache need no queue slot.
}

// One malformed member rejects the whole batch before anything runs.
func TestBatchValidation(t *testing.T) {
	m := testManager(t, Config{Workers: 1}, 0)
	if _, err := m.SubmitBatch(nil); !errors.Is(err, ErrEmptyBatch) {
		t.Errorf("empty batch err = %v, want ErrEmptyBatch", err)
	}
	reqs := batchReqs(2)
	reqs = append(reqs, Request{Kind: "frobnicate", Circuit: "analytic"})
	if _, err := m.SubmitBatch(reqs); err == nil {
		t.Error("batch with a malformed member accepted")
	}
	if got := len(m.Jobs()); got != 0 {
		t.Errorf("rejected batch left %d tracked jobs", got)
	}
	if _, err := m.BatchStatus("batch-000042"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown batch err = %v, want ErrNotFound", err)
	}
}

// CancelBatch cancels every queued member; the batch settles canceled.
func TestBatchCancel(t *testing.T) {
	m := testManager(t, Config{RemoteOnly: true}, 0)
	b, err := m.SubmitBatch(batchReqs(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CancelBatch(b.ID()); err != nil {
		t.Fatal(err)
	}
	st := waitBatch(t, m, b.ID(), 5*time.Second)
	if st.State != StateCanceled || st.Canceled != 3 {
		t.Fatalf("batch after cancel: %+v", st)
	}
	// The queue slots are free again.
	if lease, _ := m.Claim("w1"); lease != nil {
		t.Errorf("canceled member still claimable: %s", lease.JobID)
	}
}

// Batch members are pinned while the batch is tracked: the per-job
// retention cap must not evict them out from under the batch status,
// and batch eviction drops the batch and its members together.
func TestBatchRetentionPinsMembers(t *testing.T) {
	m := testManager(t, Config{Workers: 1, RetainJobs: 1}, 0)
	b, err := m.SubmitBatch(batchReqs(3))
	if err != nil {
		t.Fatal(err)
	}
	st := waitBatch(t, m, b.ID(), 10*time.Second)
	if st.State != StateDone {
		t.Fatalf("batch state = %v", st.State)
	}
	// Standalone churn past the cap must not touch the batch members.
	for seed := uint64(100); seed < 103; seed++ {
		waitState(t, submitQuick(t, m, seed), 10*time.Second)
	}
	for _, id := range st.Members {
		if _, ok := m.Get(id.ID); !ok {
			t.Fatalf("batch member %s evicted while its batch is tracked", id.ID)
		}
	}
	// A second terminal batch pushes the first past the cap (RetainJobs
	// 1): batch and members disappear together.
	b2, err := m.SubmitBatch(batchReqs(4)[3:])
	if err != nil {
		t.Fatal(err)
	}
	waitBatch(t, m, b2.ID(), 10*time.Second)
	if _, ok := m.GetBatch(b.ID()); ok {
		t.Error("oldest batch still tracked past the retention cap")
	}
	for _, id := range st.Members {
		if _, ok := m.Get(id.ID); ok {
			t.Errorf("member %s of the evicted batch still tracked", id.ID)
		}
	}
	if _, err := m.BatchStatus(b.ID()); !errors.Is(err, ErrNotFound) {
		t.Errorf("evicted batch status err = %v, want ErrNotFound", err)
	}
}

// A committed batch survives a crash: completed members recover their
// results bit-identically, queued members re-enter the queue in submit
// order, and the batch status reconstitutes around both.
func TestBatchRecovery(t *testing.T) {
	st := &memStore{}
	m1 := persistManager(t, Config{RemoteOnly: true, QueueSize: 16}, st, 0)
	b, err := m1.SubmitBatch(batchReqs(3))
	if err != nil {
		t.Fatal(err)
	}
	st1, err := m1.BatchStatus(b.ID())
	if err != nil {
		t.Fatal(err)
	}
	// Complete the first member through the lease protocol; leave the
	// other two queued at crash time.
	lease, err := m1.Claim("w1")
	if err != nil || lease == nil {
		t.Fatalf("claim: %v %v", lease, err)
	}
	if err := m1.Complete(lease.JobID, lease.LeaseID, &Result{Kind: KindOptimize}); err != nil {
		t.Fatal(err)
	}

	m2 := persistManager(t, Config{RemoteOnly: true, QueueSize: 16}, st.crashCopy(), 0)
	rb, ok := m2.GetBatch(b.ID())
	if !ok {
		t.Fatal("batch lost in recovery")
	}
	rst, err := m2.BatchStatus(rb.ID())
	if err != nil {
		t.Fatal(err)
	}
	if rst.Unique != 3 || rst.Done != 1 || rst.Queued != 2 {
		t.Fatalf("recovered batch: %+v", rst)
	}
	for i := range rst.Members {
		if rst.Members[i].ID != st1.Members[i].ID {
			t.Errorf("member %d ID changed across recovery: %s -> %s",
				i, st1.Members[i].ID, rst.Members[i].ID)
		}
	}
	// Queued members re-enter in submit order.
	for _, want := range []string{st1.Members[1].ID, st1.Members[2].ID} {
		lease, err := m2.Claim("w1")
		if err != nil || lease == nil {
			t.Fatalf("claim after recovery: %v %v", lease, err)
		}
		if lease.JobID != want {
			t.Fatalf("recovered claim = %s, want %s (submit order)", lease.JobID, want)
		}
		if err := m2.Complete(lease.JobID, lease.LeaseID, &Result{Kind: KindOptimize}); err != nil {
			t.Fatal(err)
		}
	}
	final, err := m2.BatchStatus(b.ID())
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Done != 3 {
		t.Fatalf("batch after recovered members completed: %+v", final)
	}
}

// Members journaled without their committing RecBatch record — the
// crash interrupted SubmitBatch — are canceled on recovery: the caller
// never saw the batch acknowledged, so nothing of it may run.
func TestBatchOrphansCanceledOnRecovery(t *testing.T) {
	st := &memStore{}
	reqs := batchReqs(2)
	for i, req := range reqs {
		r := req
		mustAppend(t, st, &Record{Kind: RecSubmit, Job: jobID(i + 1), Seq: i + 1,
			Hash: fmt.Sprintf("h%d", i+1), Req: &r, Batch: "batch-000001"})
	}
	// No RecBatch: the batch never committed.
	m := persistManager(t, Config{RemoteOnly: true}, st, 0)
	if _, ok := m.GetBatch("batch-000001"); ok {
		t.Fatal("uncommitted batch resurrected")
	}
	for i := 1; i <= 2; i++ {
		j, ok := m.Get(jobID(i))
		if !ok {
			t.Fatalf("orphan member %s lost (it must settle, not vanish)", jobID(i))
		}
		if got := j.State(); got != StateCanceled {
			t.Errorf("orphan member %s state = %v, want canceled", jobID(i), got)
		}
	}
	if lease, _ := m.Claim("w1"); lease != nil {
		t.Errorf("orphan member claimable after recovery: %s", lease.JobID)
	}
}

// A batch the journal refuses is refused whole, at either failure
// point. (i) With nothing journaled the refusal leaves no trace, not
// even a burned job or batch ID. (ii) When the member RecSubmits landed
// but the committing RecBatch did not, those members settle canceled,
// and a manager recovered from the same journal reaches the same state
// through the orphan rule.
func TestBatchJournalFailureMidway(t *testing.T) {
	diskFull := errors.New("disk full")
	t.Run("first-append", func(t *testing.T) {
		st := &memStore{}
		m := persistManager(t, Config{RemoteOnly: true}, st, 0)
		st.failFrom(1, diskFull)
		if _, err := m.SubmitBatch(batchReqs(2)); !errors.Is(err, ErrNotDurable) {
			t.Fatalf("err = %v, want ErrNotDurable", err)
		}
		if got := len(m.Jobs()); got != 0 {
			t.Errorf("refused batch left %d tracked jobs", got)
		}
		if got := len(m.Batches()); got != 0 {
			t.Errorf("refused batch tracked: %d batches", got)
		}
		st.failFrom(1, nil) // the disk has room again
		reqs := batchReqs(3)
		j, err := m.Submit(reqs[2])
		if err != nil {
			t.Fatal(err)
		}
		if j.ID() != "job-000001" {
			t.Errorf("next job ID = %s, want job-000001", j.ID())
		}
		b, err := m.SubmitBatch(reqs[:2])
		if err != nil {
			t.Fatal(err)
		}
		if b.ID() != "batch-000001" {
			t.Errorf("next batch ID = %s, want batch-000001", b.ID())
		}
	})
	t.Run("commit-record", func(t *testing.T) {
		st := &memStore{}
		m := persistManager(t, Config{RemoteOnly: true}, st, 0)
		st.failFrom(3, diskFull) // both members' RecSubmits land
		if _, err := m.SubmitBatch(batchReqs(2)); !errors.Is(err, ErrNotDurable) {
			t.Fatalf("err = %v, want ErrNotDurable", err)
		}
		check := func(label string, m *Manager) {
			t.Helper()
			if got := len(m.Batches()); got != 0 {
				t.Errorf("%s: refused batch tracked: %d batches", label, got)
			}
			for i := 1; i <= 2; i++ {
				j, ok := m.Get(jobID(i))
				if !ok {
					t.Fatalf("%s: journaled member %s lost (it must settle, not vanish)", label, jobID(i))
				}
				if got := j.State(); got != StateCanceled {
					t.Errorf("%s: member %s state = %v, want canceled", label, jobID(i), got)
				}
			}
			if lease, _ := m.Claim("w1"); lease != nil {
				t.Errorf("%s: member of refused batch claimable: %s", label, lease.JobID)
			}
		}
		check("live", m)
		check("recovered", persistManager(t, Config{RemoteOnly: true}, st.crashCopy(), 0))
	})
}

// stripEffort canonicalizes a result for shared-vs-isolated comparison:
// everything except the memoization-dependent effort counters must be
// bit-identical.
func stripEffort(t *testing.T, res *Result) string {
	t.Helper()
	cp := *res
	if cp.Optimization != nil {
		o := *cp.Optimization
		o.StripEffortVolatile()
		cp.Optimization = &o
	}
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// The shared evaluation cache must be invisible in the results: every
// member of a sweep returns bit-identical payloads with sharing on and
// off (only the effort counters — hits vs misses — may differ).
func TestSharedEvalCacheBitIdentity(t *testing.T) {
	run := func(shared bool) map[string]string {
		cfg := Config{Workers: 2, SharedEvalCache: shared}
		cfg.Resolve = func(req *Request) (*problem.Problem, error) { return testProblem(0), nil }
		m := New(cfg)
		defer m.Close()
		b, err := m.SubmitBatch(batchReqs(4))
		if err != nil {
			t.Fatal(err)
		}
		st := waitBatch(t, m, b.ID(), 20*time.Second)
		if st.State != StateDone {
			t.Fatalf("batch (shared=%v) state = %v", shared, st.State)
		}
		out := make(map[string]string)
		for _, ms := range st.Members {
			j, ok := m.Get(ms.ID)
			if !ok {
				t.Fatalf("member %s missing", ms.ID)
			}
			out[ms.ID] = stripEffort(t, mustResult(t, j))
		}
		return out
	}
	isolated := run(false)
	withShared := run(true)
	if len(isolated) != len(withShared) {
		t.Fatalf("member sets differ: %d vs %d", len(isolated), len(withShared))
	}
	for id, want := range isolated {
		if got := withShared[id]; got != want {
			t.Errorf("member %s result differs with the shared cache on:\n got %s\nwant %s", id, got, want)
		}
	}
}

// The per-job effort counters must classify cross-job reuse: a member
// re-running a sibling's points reports them as cross hits, and the
// rollup surfaces them.
func TestBatchCrossHitAccounting(t *testing.T) {
	// Two verify members at the same design evaluate the same
	// worst-case operating-corner grid at s = 0, so the second answers
	// its corner analysis from the first one's entries. Their
	// Monte-Carlo samples are never stored: the sample prefix the
	// same-seed members share is simulated by each of them.
	cfg := Config{Workers: 1, SharedEvalCache: true}
	cfg.Resolve = func(req *Request) (*problem.Problem, error) { return testProblem(0), nil }
	m := New(cfg)
	defer m.Close()
	mk := func(samples int) Request {
		return Request{Kind: KindVerify, Circuit: "analytic",
			Options: RunOptions{VerifySamples: samples, Seed: Seed(5)}}
	}
	b, err := m.SubmitBatch([]Request{mk(50), mk(80)})
	if err != nil {
		t.Fatal(err)
	}
	st := waitBatch(t, m, b.ID(), 10*time.Second)
	if st.State != StateDone {
		t.Fatalf("batch state = %v", st.State)
	}
	shared := m.SharedEvalCache().Stats()
	if shared.CrossHits == 0 {
		t.Errorf("no cross-job hits between same-seed verify members: %+v", shared)
	}
	if shared.Problems != 1 {
		t.Errorf("problems = %d, want 1 (same circuit)", shared.Problems)
	}
}

// TestVerifyJobStoresOnlyCornerAnalysis checks that a verify job under
// the shared evaluation cache leaves only its worst-case corner analysis
// behind: its Monte-Carlo samples pass through the cache, counted as
// misses but never stored.
func TestVerifyJobStoresOnlyCornerAnalysis(t *testing.T) {
	p := testProblem(0)
	corners := evalcache.New(0)
	if _, err := wcd.WorstCaseTheta(corners.Wrap(p), p.InitialDesign(), make([]float64, p.NumStat())); err != nil {
		t.Fatal(err)
	}
	want := corners.Stats().Misses

	m := testManager(t, Config{Workers: 1, SharedEvalCache: true}, 0)
	job, err := m.Submit(Request{Kind: KindVerify, Circuit: "analytic",
		Options: RunOptions{VerifySamples: 50, Seed: Seed(5)}})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, job, 10*time.Second); st != StateDone {
		t.Fatalf("verify job state = %v (%s)", st, job.Err())
	}
	res, _ := job.Result()
	samples := int64(res.Verification.Evals)
	sh := m.SharedEvalCache().Stats()
	if int64(sh.Entries) != want {
		t.Errorf("entries = %d, want the %d corner-analysis points", sh.Entries, want)
	}
	if samples == 0 || sh.Misses != want+samples {
		t.Errorf("misses = %d, want %d corner points + %d sample evaluations", sh.Misses, want, samples)
	}
}
