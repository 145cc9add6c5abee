package jobs

// The lease layer: remote pull-workers claim queued jobs over HTTP
// (internal/server's /v1/worker endpoints), keep them alive with
// heartbeats, and post back a result or failure. A lease that goes
// silent past its TTL is expired by the manager's sweeper: the job is
// requeued with a bounded retry count, so a killed worker costs one
// lease TTL, not the job. Stale claimants — a worker whose lease was
// expired, canceled or superseded — are refused with ErrLeaseLost on
// every operation, which is what makes completion exactly-once.

import (
	"fmt"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"
)

// maxWorkerName bounds a remote worker's name in bytes.
const maxWorkerName = 128

// Lease is one granted claim: everything a remote worker needs to run
// the job (the original request; the worker resolves the problem with
// the same ResolveProblem the manager uses) and to stay its lease.
type Lease struct {
	JobID   string `json:"job"`
	LeaseID string `json:"lease"`
	Kind    string `json:"kind"`
	// Deadline is when the lease expires without a heartbeat, on the
	// manager's clock; TTLSeconds is the renewal budget, from which
	// workers derive their heartbeat cadence.
	Deadline   time.Time `json:"deadline"`
	TTLSeconds float64   `json:"ttlSeconds"`
	Request    Request   `json:"request"`
	// ProblemHash identifies the job's problem (circuit or spec, nothing
	// else): workers running a shared evaluation cache shard it by this
	// key, so sweep members claimed by the same worker reuse each
	// other's simulations. Older workers ignore the field.
	ProblemHash string `json:"problemHash,omitempty"`
	// Lane is the priority lane the job was queued in. Older workers
	// ignore the field.
	Lane string `json:"lane,omitempty"`
}

// Claim hands the next queued job (weighted round-robin across the
// priority lanes) to a remote worker under a fresh lease. It returns
// (nil, nil) when no job is queued — the worker polls again later.
func (m *Manager) Claim(worker string) (*Lease, error) {
	return m.ClaimLane(worker, "")
}

// ClaimLane is Claim with a lane filter: a non-empty lane restricts the
// pick to that lane's queue, so a fleet can dedicate workers to keeping
// verify traffic flowing under heavy optimize load. The claimed job
// transitions to StateRunning exactly as a locally picked job would.
func (m *Manager) ClaimLane(worker, lane string) (*Lease, error) {
	if err := m.ctx.Err(); err != nil {
		return nil, ErrClosed
	}
	if worker == "" {
		return nil, fmt.Errorf("jobs: worker name required")
	}
	// The name is journaled in every lease record and stays a metrics
	// label for the life of the process.
	if len(worker) > maxWorkerName || !utf8.ValidString(worker) || strings.IndexFunc(worker, unicode.IsControl) >= 0 {
		return nil, fmt.Errorf("jobs: worker name must be at most %d bytes of UTF-8 without control characters", maxWorkerName)
	}
	if lane != "" && !ValidLane(lane) {
		return nil, fmt.Errorf("jobs: unknown lane %q (want %q or %q)", lane, LaneVerify, LaneOptimize)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		job := m.takeLocked(lane)
		if job == nil {
			return nil, nil
		}
		job.mu.Lock()
		if job.state != StateQueued { // raced a cancellation
			job.mu.Unlock()
			continue
		}
		m.leaseSeq++
		now := m.now()
		job.state = StateRunning
		job.worker = worker
		job.leaseID = fmt.Sprintf("lease-%06d", m.leaseSeq)
		job.leaseSeq = m.leaseSeq
		job.leaseDeadline = now.Add(m.cfg.LeaseTTL)
		job.attempts++
		job.started = now
		// Journal the grant so a daemon restart within the TTL leaves the
		// lease reattachable: the recovered job keeps this leaseID and
		// deadline, and the worker's heartbeats and result post are honored
		// instead of 404ing.
		m.journal(&Record{Kind: RecLease, Job: job.id, Worker: worker, Lease: job.leaseID, //nolint:errcheck // degraded store: logged once
			LeaseSeq: job.leaseSeq, Deadline: job.leaseDeadline, Attempts: job.attempts, Time: now})
		lease := &Lease{
			JobID:       job.id,
			LeaseID:     job.leaseID,
			Kind:        job.req.Kind,
			Deadline:    job.leaseDeadline,
			TTLSeconds:  m.cfg.LeaseTTL.Seconds(),
			Request:     job.req,
			ProblemHash: job.problemHash,
			Lane:        job.lane,
		}
		job.notifyLocked()
		job.mu.Unlock()
		m.metrics.claims.Add(1)
		m.metrics.workers.add(worker, workerClaims, 1)
		return lease, nil
	}
}

// Heartbeat extends a lease by one TTL and returns the new deadline.
// ErrLeaseLost tells the worker its lease is gone (expired, canceled or
// requeued) and it should abandon the job.
func (m *Manager) Heartbeat(jobID, leaseID string) (time.Time, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[jobID]
	if !ok {
		return time.Time{}, ErrNotFound
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning || j.leaseID != leaseID {
		return time.Time{}, ErrLeaseLost
	}
	j.leaseDeadline = m.now().Add(m.cfg.LeaseTTL)
	m.journal(&Record{Kind: RecHeartbeat, Job: jobID, Lease: leaseID, Deadline: j.leaseDeadline}) //nolint:errcheck // degraded store: logged once
	return j.leaseDeadline, nil
}

// Complete finishes a leased job with its result. The lease must still
// be current: a worker whose lease expired (and whose job may already
// have been re-run elsewhere) is refused, so every job completes
// exactly once.
func (m *Manager) Complete(jobID, leaseID string, res *Result) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[jobID]
	if !ok {
		return ErrNotFound
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning || j.leaseID != leaseID {
		return ErrLeaseLost
	}
	busy := m.now().Sub(j.started)
	j.result = res
	m.finishLocked(j, StateDone, "")
	m.metrics.noteRemote(j.worker, workerDone, busy)
	return nil
}

// Fail records a worker-reported execution failure. Failures are
// deterministic (the worker retries transient transport errors itself),
// so the job is not requeued.
func (m *Manager) Fail(jobID, leaseID, msg string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[jobID]
	if !ok {
		return ErrNotFound
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning || j.leaseID != leaseID {
		return ErrLeaseLost
	}
	busy := m.now().Sub(j.started)
	m.finishLocked(j, StateFailed, fmt.Sprintf("worker %q: %s", j.worker, msg))
	m.metrics.noteRemote(j.worker, workerFailed, busy)
	return nil
}
