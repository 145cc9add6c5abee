package jobs

// The crash-recovery suite. memStore is a JSON-round-tripping in-memory
// Store: every record crosses the same encoding boundary as the real
// single-file WAL (internal/store, which has its own suite), and
// crashCopy models a SIGKILL — a second store holding exactly the
// records that were acknowledged before the crash, nothing else.

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"specwise/internal/problem"
)

type memStore struct {
	mu        sync.Mutex
	frames    []json.RawMessage
	snapshots int64
	bytes     int64
	appendErr error // injected Append failure
	okLeft    int   // appends that still succeed before appendErr applies
}

// failFrom makes the nth append from now, and every later one, fail
// with err (n = 1: the next append fails; a nil err clears the failure).
func (s *memStore) failFrom(n int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.okLeft, s.appendErr = n-1, err
}

func (s *memStore) Append(rec *Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.appendErr != nil {
		if s.okLeft == 0 {
			return s.appendErr
		}
		s.okLeft--
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	s.frames = append(s.frames, b)
	s.bytes += int64(len(b))
	return nil
}

func (s *memStore) Replay(fn func(*Record) error) error {
	s.mu.Lock()
	frames := append([]json.RawMessage(nil), s.frames...)
	s.mu.Unlock()
	for _, b := range frames {
		rec := new(Record)
		if err := json.Unmarshal(b, rec); err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

func (s *memStore) Compact(recs []*Record) error {
	frames := make([]json.RawMessage, 0, len(recs))
	var bytes int64
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		frames = append(frames, b)
		bytes += int64(len(b))
	}
	s.mu.Lock()
	s.frames = frames
	s.bytes = bytes
	s.snapshots++
	s.mu.Unlock()
	return nil
}

func (s *memStore) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{Records: int64(len(s.frames)), Bytes: s.bytes, Snapshots: s.snapshots}
}

func (s *memStore) Close() error { return nil }

// crashCopy snapshots the acknowledged records, as a SIGKILL would
// leave them on disk.
func (s *memStore) crashCopy() *memStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &memStore{
		frames:    append([]json.RawMessage(nil), s.frames...),
		bytes:     s.bytes,
		snapshots: s.snapshots,
	}
}

// persistManager opens a manager journaling into st.
func persistManager(t *testing.T, cfg Config, st Store, delay time.Duration) *Manager {
	t.Helper()
	cfg.Store = st
	if cfg.Resolve == nil {
		cfg.Resolve = func(req *Request) (*problem.Problem, error) {
			return testProblem(delay), nil
		}
	}
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// resultJSON canonicalizes a result for bit-identity comparison.
func resultJSON(t *testing.T, res *Result) string {
	t.Helper()
	cp := *res
	if cp.Optimization != nil {
		o := *cp.Optimization
		o.StripVolatile()
		cp.Optimization = &o
	}
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestRecoveryRestoresTerminalJobsAndWarmsCache(t *testing.T) {
	st := &memStore{}
	m1 := persistManager(t, Config{Workers: 1}, st, 0)
	job, err := m1.Submit(Request{Circuit: "analytic", Options: quickOpts})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitState(t, job, 10*time.Second); got != StateDone {
		t.Fatalf("job state = %v, want done", got)
	}
	res1, _ := job.Result()
	want := resultJSON(t, res1)
	// A second, identical submission settles from the cache pre-crash.
	hit, err := m1.Submit(Request{Circuit: "analytic", Options: quickOpts})
	if err != nil {
		t.Fatal(err)
	}
	if hit.State() != StateDone || !hit.Status().Cached {
		t.Fatalf("resubmission not served from cache: %+v", hit.Status())
	}

	m2 := persistManager(t, Config{Workers: 1}, st.crashCopy(), 0)
	if got := metricValue(t, m2, "specwised_store_recovered_jobs"); got != 2 {
		t.Fatalf("recovered jobs = %v, want 2", got)
	}
	for _, id := range []string{job.ID(), hit.ID()} {
		rj, ok := m2.Get(id)
		if !ok {
			t.Fatalf("job %s lost in recovery", id)
		}
		if rj.State() != StateDone {
			t.Fatalf("job %s state = %v after recovery, want done", id, rj.State())
		}
		rres, ok := rj.Result()
		if !ok || rres == nil {
			t.Fatalf("job %s lost its result in recovery", id)
		}
		if got := resultJSON(t, rres); got != want {
			t.Errorf("job %s result changed across recovery:\n got %s\nwant %s", id, got, want)
		}
	}
	if st2, _ := m2.Get(hit.ID()); !st2.Status().Cached {
		t.Error("cached flag lost in recovery")
	}

	// A post-recovery identical submission must hit the re-warmed cache.
	warm, err := m2.Submit(Request{Circuit: "analytic", Options: quickOpts})
	if err != nil {
		t.Fatal(err)
	}
	if warm.State() != StateDone || !warm.Status().Cached {
		t.Fatalf("post-recovery resubmission missed the warmed cache: %+v", warm.Status())
	}
	if got := resultJSON(t, mustResult(t, warm)); got != want {
		t.Errorf("warm-cache result differs:\n got %s\nwant %s", got, want)
	}
	if got := metricValue(t, m2, "specwised_cache_warm_hits_total"); got != 1 {
		t.Errorf("warm hits = %v, want 1", got)
	}
	// The ID sequence resumes past the recovered jobs: no reuse.
	if warm.ID() != "job-000003" {
		t.Errorf("post-recovery job ID = %s, want job-000003", warm.ID())
	}
}

func mustResult(t *testing.T, j *Job) *Result {
	t.Helper()
	res, ok := j.Result()
	if !ok || res == nil {
		t.Fatalf("job %s has no result (state %v)", j.ID(), j.State())
	}
	return res
}

func TestRecoveryRestoresQueueInSubmitOrder(t *testing.T) {
	clk := newFakeClock()
	st := &memStore{}
	m1 := persistManager(t, Config{RemoteOnly: true, clock: clk.Now}, st, 0)
	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		opts := quickOpts
		opts.Seed = Seed(seed)
		j, err := m1.Submit(Request{Circuit: "analytic", Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID())
	}

	m2 := persistManager(t, Config{RemoteOnly: true, clock: clk.Now}, st.crashCopy(), 0)
	for i, id := range ids {
		lease, err := m2.Claim("w1")
		if err != nil || lease == nil {
			t.Fatalf("claim %d after recovery: lease=%v err=%v", i, lease, err)
		}
		if lease.JobID != id {
			t.Fatalf("claim %d = %s, want %s (submit order)", i, lease.JobID, id)
		}
	}
	if lease, _ := m2.Claim("w1"); lease != nil {
		t.Fatalf("queue should be empty, claimed %s", lease.JobID)
	}
}

func TestRecoveryRequeuesInterruptedLocalRun(t *testing.T) {
	// Fabricate the journal a SIGKILL mid-local-run leaves behind: a
	// submission and a start, no settlement.
	st := &memStore{}
	req := Request{Kind: KindOptimize, Circuit: "analytic", Options: quickOpts}
	mustAppend(t, st, &Record{Kind: RecSubmit, Job: "job-000001", Seq: 1, Hash: "h1", Req: &req})
	mustAppend(t, st, &Record{Kind: RecStart, Job: "job-000001", Attempts: 1})

	m := persistManager(t, Config{RemoteOnly: true}, st, 0)
	j, ok := m.Get("job-000001")
	if !ok {
		t.Fatal("interrupted job lost in recovery")
	}
	if got := j.State(); got != StateQueued {
		t.Fatalf("interrupted local run recovered as %v, want queued", got)
	}
	lease, err := m.Claim("w1")
	if err != nil || lease == nil || lease.JobID != "job-000001" {
		t.Fatalf("claim after recovery: lease=%v err=%v", lease, err)
	}
	// The retry budget was not charged for the daemon's own crash; the
	// reclaim is attempt two.
	if got := j.Status().Attempts; got != 2 {
		t.Errorf("attempts = %d, want 2 (1 interrupted + 1 reclaim)", got)
	}
	if got := metricValue(t, m, "specwised_jobs_requeued_total"); got != 1 {
		t.Errorf("requeued = %v, want 1", got)
	}
}

func mustAppend(t *testing.T, st Store, rec *Record) {
	t.Helper()
	if err := st.Append(rec); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryReattachesLiveLease(t *testing.T) {
	clk := newFakeClock()
	st := &memStore{}
	m1 := persistManager(t, Config{RemoteOnly: true, clock: clk.Now, LeaseTTL: 30 * time.Second}, st, 0)
	job := submitQuick(t, m1, 1)
	lease, err := m1.Claim("w1")
	if err != nil || lease == nil {
		t.Fatalf("claim: %v %v", lease, err)
	}

	// Daemon dies and restarts 10s later; the worker outlived it.
	clk.Advance(10 * time.Second)
	m2 := persistManager(t, Config{RemoteOnly: true, clock: clk.Now, LeaseTTL: 30 * time.Second}, st.crashCopy(), 0)
	rj, ok := m2.Get(job.ID())
	if !ok {
		t.Fatal("leased job lost in recovery")
	}
	if got := rj.State(); got != StateRunning {
		t.Fatalf("leased job recovered as %v, want running (lease within TTL)", got)
	}
	// The old lease ID is honored: heartbeat extends, result settles.
	if _, err := m2.Heartbeat(lease.JobID, lease.LeaseID); err != nil {
		t.Fatalf("heartbeat on recovered lease: %v", err)
	}
	res := &Result{Kind: KindOptimize}
	if err := m2.Complete(lease.JobID, lease.LeaseID, res); err != nil {
		t.Fatalf("complete on recovered lease: %v", err)
	}
	if got := rj.State(); got != StateDone {
		t.Fatalf("state after reattached completion = %v, want done", got)
	}
	// Reattachment, not re-execution: the restarted daemon granted no
	// new lease and the job still counts one attempt.
	if got := metricValue(t, m2, "specwised_claims_total"); got != 0 {
		t.Errorf("claims after recovery = %v, want 0", got)
	}
	if got := rj.Status().Attempts; got != 1 {
		t.Errorf("attempts = %d, want 1 (no re-execution)", got)
	}
}

func TestRecoveryExpiresDeadLease(t *testing.T) {
	clk := newFakeClock()
	st := &memStore{}
	m1 := persistManager(t, Config{RemoteOnly: true, clock: clk.Now, LeaseTTL: 30 * time.Second, MaxRetries: 1}, st, 0)
	job := submitQuick(t, m1, 1)
	lease, err := m1.Claim("w1")
	if err != nil || lease == nil {
		t.Fatalf("claim: %v %v", lease, err)
	}

	// The daemon comes back after the lease TTL: the worker is presumed
	// dead and the job requeues, exactly as the sweeper would have done.
	clk.Advance(31 * time.Second)
	m2 := persistManager(t, Config{RemoteOnly: true, clock: clk.Now, LeaseTTL: 30 * time.Second, MaxRetries: 1}, st.crashCopy(), 0)
	rj, ok := m2.Get(job.ID())
	if !ok {
		t.Fatal("job lost in recovery")
	}
	if got := rj.State(); got != StateQueued {
		t.Fatalf("expired-lease job recovered as %v, want queued", got)
	}
	if got := metricValue(t, m2, "specwised_lease_expiries_total"); got != 1 {
		t.Errorf("lease expiries = %v, want 1", got)
	}
	// The stale worker's posts are refused.
	if err := m2.Complete(lease.JobID, lease.LeaseID, &Result{Kind: KindOptimize}); !errors.Is(err, ErrLeaseLost) {
		t.Errorf("stale complete err = %v, want ErrLeaseLost", err)
	}
	// The retry budget carried over: one more expiry fails the job.
	l2, err := m2.Claim("w2")
	if err != nil || l2 == nil {
		t.Fatalf("reclaim: %v %v", l2, err)
	}
	clk.Advance(31 * time.Second)
	m2.sweep(clk.Now())
	if got := rj.State(); got != StateFailed {
		t.Errorf("state after second expiry = %v, want failed (budget exhausted)", got)
	}
}

func TestRecoveryDoesNotResurrectEvictedCacheEntries(t *testing.T) {
	st := &memStore{}
	m1 := persistManager(t, Config{Workers: 1, CacheSize: 1}, st, 0)
	reqA := Request{Circuit: "analytic", Options: quickOpts}
	a, err := m1.Submit(reqA)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, a, 10*time.Second)
	optsB := quickOpts
	optsB.Seed = Seed(99)
	b, err := m1.Submit(Request{Circuit: "analytic", Options: optsB})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, b, 10*time.Second)
	if got := metricValue(t, m1, "specwised_cache_evictions_total"); got != 1 {
		t.Fatalf("evictions pre-crash = %v, want 1 (cap 1)", got)
	}

	// Cap 2 on the restarted manager so re-running A below does not
	// evict B's surviving entry before the warm-hit assertion.
	m2 := persistManager(t, Config{Workers: 1, CacheSize: 2}, st.crashCopy(), 0)
	// A's entry was evicted pre-crash; the journal must not bring it
	// back even though A's terminal job (and result) were recovered.
	ra, err := m2.Submit(reqA)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Status().Cached {
		t.Fatal("evicted cache entry resurrected by recovery")
	}
	waitState(t, ra, 10*time.Second)
	// B's entry survived and serves warm hits.
	rb, err := m2.Submit(Request{Circuit: "analytic", Options: optsB})
	if err != nil {
		t.Fatal(err)
	}
	if !rb.Status().Cached {
		t.Error("surviving cache entry not warmed by recovery")
	}
}

func TestShutdownDrainRequeuesRunningJob(t *testing.T) {
	st := &memStore{}
	m1 := persistManager(t, Config{Workers: 1}, st, 2*time.Millisecond)
	job, err := m1.Submit(Request{Circuit: "analytic", Options: quickOpts})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for job.State() != StateRunning && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if job.State() != StateRunning {
		t.Fatalf("job never started: %v", job.State())
	}
	m1.Shutdown()
	if got := job.State(); got != StateQueued {
		t.Fatalf("state after graceful drain = %v, want queued (not canceled)", got)
	}

	// The next boot resumes the drained job and runs it to completion.
	m2 := persistManager(t, Config{Workers: 1}, st, 0)
	rj, ok := m2.Get(job.ID())
	if !ok {
		t.Fatal("drained job lost across restart")
	}
	if got := waitState(t, rj, 10*time.Second); got != StateDone {
		t.Fatalf("resumed job state = %v, want done", got)
	}
}

func TestSnapshotCompactionPreservesState(t *testing.T) {
	st := &memStore{}
	m1 := persistManager(t, Config{Workers: 1, RetainJobs: 4}, st, 0)
	var wantJSON []string
	for seed := uint64(1); seed <= 3; seed++ {
		opts := quickOpts
		opts.Seed = Seed(seed)
		j, err := m1.Submit(Request{Circuit: "analytic", Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		if got := waitState(t, j, 10*time.Second); got != StateDone {
			t.Fatalf("seed %d: state %v", seed, got)
		}
		wantJSON = append(wantJSON, resultJSON(t, mustResult(t, j)))
	}
	recordsBefore := st.Stats().Records
	m1.snapshot()
	stats := st.Stats()
	if stats.Snapshots == 0 {
		t.Fatal("snapshot did not compact")
	}
	if stats.Records >= recordsBefore {
		t.Errorf("snapshot did not shrink the journal: %d -> %d records", recordsBefore, stats.Records)
	}

	m2 := persistManager(t, Config{Workers: 1, RetainJobs: 4}, st.crashCopy(), 0)
	for i := 0; i < 3; i++ {
		id := jobID(i + 1)
		j, ok := m2.Get(id)
		if !ok {
			t.Fatalf("job %s lost across snapshot", id)
		}
		if got := resultJSON(t, mustResult(t, j)); got != wantJSON[i] {
			t.Errorf("job %s result changed across snapshot replay", id)
		}
	}
}

func jobID(seq int) string { return fmt.Sprintf("job-%06d", seq) }

func TestSubmitRefusedWhenJournalFails(t *testing.T) {
	st := &memStore{}
	m := persistManager(t, Config{RemoteOnly: true}, st, 0)
	st.mu.Lock()
	st.appendErr = errors.New("disk full")
	st.mu.Unlock()
	if _, err := m.Submit(Request{Circuit: "analytic", Options: quickOpts}); err == nil {
		t.Fatal("submission acknowledged without durability")
	}
	if got := len(m.Jobs()); got != 0 {
		t.Fatalf("refused submission left %d tracked jobs", got)
	}
	// The store recovers; the next submission gets the unused ID.
	st.mu.Lock()
	st.appendErr = nil
	st.mu.Unlock()
	j, err := m.Submit(Request{Circuit: "analytic", Options: quickOpts})
	if err != nil {
		t.Fatal(err)
	}
	if j.ID() != "job-000001" {
		t.Errorf("ID after rollback = %s, want job-000001", j.ID())
	}
}

func TestJobEvictionJournaled(t *testing.T) {
	st := &memStore{}
	m1 := persistManager(t, Config{Workers: 1, RetainJobs: 1, CacheSize: -1}, st, 0)
	for seed := uint64(1); seed <= 2; seed++ {
		opts := quickOpts
		opts.Seed = Seed(seed)
		j, err := m1.Submit(Request{Circuit: "analytic", Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, j, 10*time.Second)
	}
	m2 := persistManager(t, Config{Workers: 1, RetainJobs: 1, CacheSize: -1}, st.crashCopy(), 0)
	if _, ok := m2.Get("job-000001"); ok {
		t.Error("retention-evicted job resurrected by recovery")
	}
	if _, ok := m2.Get("job-000002"); !ok {
		t.Error("retained job lost in recovery")
	}
}
