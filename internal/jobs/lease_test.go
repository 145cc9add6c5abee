package jobs

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"specwise/internal/testprob"
)

// fakeClock is a mutex-guarded manual time source; the manager's
// background sweeper may read it concurrently with the test advancing
// it.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// leaseManager builds a remote-only manager on a fake clock.
func leaseManager(t *testing.T, clk *fakeClock, cfg Config) *Manager {
	t.Helper()
	cfg.RemoteOnly = true
	cfg.clock = clk.Now
	return testManager(t, cfg, 0)
}

func submitQuick(t *testing.T, m *Manager, seed uint64) *Job {
	t.Helper()
	opts := quickOpts
	opts.Seed = Seed(seed)
	j, err := m.Submit(Request{Circuit: "analytic", Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestClaimHeartbeatComplete(t *testing.T) {
	clk := newFakeClock()
	m := leaseManager(t, clk, Config{LeaseTTL: 30 * time.Second})
	job := submitQuick(t, m, 1)

	lease, err := m.Claim("w1")
	if err != nil {
		t.Fatal(err)
	}
	if lease == nil || lease.JobID != job.ID() {
		t.Fatalf("lease = %+v, want job %s", lease, job.ID())
	}
	if lease.Request.Circuit != "analytic" || lease.TTLSeconds != 30 {
		t.Errorf("lease carries request %q ttl %v", lease.Request.Circuit, lease.TTLSeconds)
	}
	if st := job.Status(); st.State != StateRunning || st.Worker != "w1" || st.Attempts != 1 {
		t.Errorf("claimed job status = %+v", st)
	}
	// An empty queue answers (nil, nil), not an error.
	if extra, err := m.Claim("w2"); err != nil || extra != nil {
		t.Fatalf("claim on empty queue = %+v, %v", extra, err)
	}

	clk.Advance(20 * time.Second)
	deadline, err := m.Heartbeat(job.ID(), lease.LeaseID)
	if err != nil {
		t.Fatal(err)
	}
	if want := clk.Now().Add(30 * time.Second); !deadline.Equal(want) {
		t.Errorf("heartbeat deadline = %v, want %v", deadline, want)
	}
	// The heartbeat pushed the deadline past the original TTL.
	clk.Advance(20 * time.Second)
	m.sweep(clk.Now())
	if st := job.State(); st != StateRunning {
		t.Fatalf("heartbeated lease expired anyway (state %v)", st)
	}

	res := &Result{Kind: KindVerify}
	if err := m.Complete(job.ID(), lease.LeaseID, res); err != nil {
		t.Fatal(err)
	}
	if st := job.State(); st != StateDone {
		t.Fatalf("state after Complete = %v", st)
	}
	// Wrong or stale lease IDs are refused on every operation.
	if err := m.Complete(job.ID(), lease.LeaseID, res); !errors.Is(err, ErrLeaseLost) {
		t.Errorf("double Complete: err = %v, want ErrLeaseLost", err)
	}
	if _, err := m.Heartbeat(job.ID(), lease.LeaseID); !errors.Is(err, ErrLeaseLost) {
		t.Errorf("heartbeat after Complete: err = %v, want ErrLeaseLost", err)
	}
	if _, err := m.Heartbeat("job-999999", "lease-000001"); !errors.Is(err, ErrNotFound) {
		t.Errorf("heartbeat on unknown job: err = %v, want ErrNotFound", err)
	}
	if got := metricValue(t, m, "specwised_claims_total"); got != 1 {
		t.Errorf("claims = %v, want 1", got)
	}
	claims := metricValue(t, m, `specwised_remote_worker_claims_total{worker="w1"}`)
	done := metricValue(t, m, `specwised_remote_worker_jobs_done_total{worker="w1"}`)
	if claims != 1 || done != 1 {
		t.Errorf("per-worker claims/done = %v/%v, want 1/1", claims, done)
	}
}

// A silent lease expires on the TTL: the job goes back to the queue,
// a second worker completes it exactly once, and the dead worker's
// late post is refused.
func TestLeaseExpiryRequeuesWithFakeClock(t *testing.T) {
	clk := newFakeClock()
	m := leaseManager(t, clk, Config{LeaseTTL: 30 * time.Second, MaxRetries: 2})
	job := submitQuick(t, m, 1)

	dead, err := m.Claim("dead")
	if err != nil {
		t.Fatal(err)
	}
	// Just before the deadline nothing happens.
	clk.Advance(29 * time.Second)
	m.sweep(clk.Now())
	if st := job.State(); st != StateRunning {
		t.Fatalf("lease expired early (state %v)", st)
	}
	// Past the deadline the job is requeued.
	clk.Advance(2 * time.Second)
	m.sweep(clk.Now())
	if st := job.State(); st != StateQueued {
		t.Fatalf("state after expiry = %v, want queued", st)
	}
	if got := metricValue(t, m, "specwised_lease_expiries_total"); got != 1 {
		t.Errorf("lease expiries = %v, want 1", got)
	}
	if got := metricValue(t, m, "specwised_jobs_requeued_total"); got != 1 {
		t.Errorf("requeued = %v, want 1", got)
	}

	// A live worker picks it up and completes it.
	live, err := m.Claim("live")
	if err != nil {
		t.Fatal(err)
	}
	if live == nil || live.JobID != job.ID() {
		t.Fatalf("requeued job not claimable: %+v", live)
	}
	if st := job.Status(); st.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", st.Attempts)
	}
	if err := m.Complete(job.ID(), live.LeaseID, &Result{Kind: KindVerify}); err != nil {
		t.Fatal(err)
	}
	// The dead worker wakes up and tries to report: refused, the job
	// completed exactly once.
	if err := m.Complete(job.ID(), dead.LeaseID, &Result{Kind: KindVerify}); !errors.Is(err, ErrLeaseLost) {
		t.Errorf("stale Complete: err = %v, want ErrLeaseLost", err)
	}
	if _, err := m.Heartbeat(job.ID(), dead.LeaseID); !errors.Is(err, ErrLeaseLost) {
		t.Errorf("stale heartbeat: err = %v, want ErrLeaseLost", err)
	}
	if got := metricValue(t, m, "specwised_jobs_done_total"); got != 1 {
		t.Errorf("done = %v, want exactly 1", got)
	}
}

// After MaxRetries requeues the next expiry fails the job instead of
// cycling it forever.
func TestLeaseExpiryExhaustsRetries(t *testing.T) {
	clk := newFakeClock()
	m := leaseManager(t, clk, Config{LeaseTTL: 10 * time.Second, MaxRetries: 1})
	job := submitQuick(t, m, 1)

	for round := 0; round < 2; round++ {
		if lease, err := m.Claim("flaky"); err != nil || lease == nil {
			t.Fatalf("round %d: claim = %+v, %v", round, lease, err)
		}
		clk.Advance(11 * time.Second)
		m.sweep(clk.Now())
	}
	if st := job.State(); st != StateFailed {
		t.Fatalf("state after exhausting retries = %v, want failed", st)
	}
	if msg := job.Err(); !strings.Contains(msg, "lease expired") {
		t.Errorf("failure message = %q", msg)
	}
	if got := metricValue(t, m, "specwised_jobs_requeued_total"); got != 1 {
		t.Errorf("requeued = %v, want 1", got)
	}
	if got := metricValue(t, m, "specwised_lease_expiries_total"); got != 2 {
		t.Errorf("lease expiries = %v, want 2", got)
	}
}

// Cancelling a leased job revokes the lease: the worker's next
// heartbeat or post is refused.
func TestCancelLeasedJob(t *testing.T) {
	clk := newFakeClock()
	m := leaseManager(t, clk, Config{LeaseTTL: 30 * time.Second})
	job := submitQuick(t, m, 1)
	lease, err := m.Claim("w1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(job.ID()); err != nil {
		t.Fatal(err)
	}
	if st := job.State(); st != StateCanceled {
		t.Fatalf("state after cancel = %v", st)
	}
	if _, err := m.Heartbeat(job.ID(), lease.LeaseID); !errors.Is(err, ErrLeaseLost) {
		t.Errorf("heartbeat after cancel: err = %v, want ErrLeaseLost", err)
	}
	if err := m.Complete(job.ID(), lease.LeaseID, &Result{Kind: KindVerify}); !errors.Is(err, ErrLeaseLost) {
		t.Errorf("complete after cancel: err = %v, want ErrLeaseLost", err)
	}
}

// Close revokes outstanding leases and cancels their jobs.
func TestCloseCancelsLeasedJobs(t *testing.T) {
	clk := newFakeClock()
	m := leaseManager(t, clk, Config{LeaseTTL: 30 * time.Second})
	job := submitQuick(t, m, 1)
	lease, err := m.Claim("w1")
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if st := job.State(); st != StateCanceled {
		t.Fatalf("leased job after Close: state %v, want canceled", st)
	}
	if _, err := m.Claim("w1"); !errors.Is(err, ErrClosed) {
		t.Errorf("claim after Close: err = %v, want ErrClosed", err)
	}
	if err := m.Complete(job.ID(), lease.LeaseID, &Result{Kind: KindVerify}); !errors.Is(err, ErrLeaseLost) {
		t.Errorf("complete after Close: err = %v, want ErrLeaseLost", err)
	}
}

// Worker names are bounded: they are journaled in every lease and stay
// metrics labels for the life of the process.
func TestClaimRefusesBadWorkerNames(t *testing.T) {
	clk := newFakeClock()
	m := leaseManager(t, clk, Config{LeaseTTL: 30 * time.Second})
	for _, name := range []string{"a\tb", "a\x00b", "\xff", strings.Repeat("w", 129)} {
		if _, err := m.Claim(name); err == nil {
			t.Errorf("claim as %q accepted", name)
		}
	}
	for _, name := range []string{strings.Repeat("w", 128), `a"b\c`} {
		submitQuick(t, m, uint64(len(name)))
		if lease, err := m.Claim(name); err != nil || lease == nil {
			t.Errorf("claim as %q = %+v, %v", name, lease, err)
		}
	}
	if got := metricValue(t, m, `specwised_remote_worker_claims_total{worker="a\"b\\c"}`); got != 1 {
		t.Errorf("escaped worker label: claims = %v, want 1", got)
	}
	if err := testprob.CheckExposition(metricsPage(m)); err != nil {
		t.Error(err)
	}
}
