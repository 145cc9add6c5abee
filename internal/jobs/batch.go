package jobs

// Batch submissions: a list of job requests accepted atomically, hash-
// deduplicated against each other and against the result cache before
// any of them reaches the queue, tracked as one unit with a combined
// status (per-member states plus an aggregate Table-7 effort rollup).
// This is the shape real usage takes — seed sweeps for yield
// confidence, spec-bound sweeps, corner sweeps — and the unit the
// shared evaluation cache (internal/evalcache.Shared) is designed
// around: members of one batch run over the same problem, so most of
// their simulator calls are answered by a sibling's earlier work.
//
// Durability follows the journal-before-acknowledge discipline of
// Submit, with one extra step because the store has no transactions:
// member RecSubmit records (tagged with the batch ID) are appended
// first, then one RecBatch record carrying the member list — the
// commit point. Recovery cancels batch-tagged jobs with no committing
// RecBatch (the crash interrupted the submission before it was
// acknowledged, so the caller never saw it succeed).
//
// Member jobs are ordinary jobs in every other respect: they requeue
// on lease expiry and daemon restart like any job, are addressable
// under /v1/jobs/{id}, and feed the result cache. Retention is the one
// difference — a batch's members are pinned while the batch is
// tracked, and evicted with it, so a batch status never names a job
// the store has forgotten.

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// ErrEmptyBatch rejects batch submissions with no requests.
var ErrEmptyBatch = errors.New("jobs: batch has no requests")

// Batch is one tracked batch submission. Immutable fields are set at
// submit (or recovery); the terminal counter and finish time are
// guarded by Manager.mu.
type Batch struct {
	id      string
	seq     int
	created time.Time

	// memberIDs is the per-member job ID in submit order; duplicate
	// requests repeat the deduplicated job's ID.
	memberIDs []string
	// unique is the distinct jobs backing the members, in first-
	// appearance order.
	unique []*Job

	// terminal counts unique members in a terminal state; the batch is
	// terminal when terminal == len(unique). Guarded by Manager.mu (all
	// settlements happen under it).
	terminal int
	finished time.Time
}

// ID returns the batch identifier.
func (b *Batch) ID() string { return b.id }

// BatchEffort is the aggregate Table-7 effort rollup over a batch's
// unique, successfully completed members: how many evaluations reached
// a simulator and how many the memoization layers absorbed. CrossHits
// is the headline number for a sweep — simulations a member skipped
// because a sibling had already run them.
type BatchEffort struct {
	Simulations    int64 `json:"simulations"`
	ConstraintSims int64 `json:"constraintSims"`
	EvalCacheHits  int64 `json:"evalCacheHits"`
	// EvalCacheCrossHits is the subset of hits answered from an entry
	// another job stored in the shared cache (zero without
	// -shared-eval-cache).
	EvalCacheCrossHits int64 `json:"evalCacheCrossHits"`
	EvalCacheMisses    int64 `json:"evalCacheMisses"`
	EvalCacheDeduped   int64 `json:"evalCacheDeduped"`
	VerifyEvals        int64 `json:"verifyEvals,omitempty"`
}

// BatchStatus is the JSON-friendly snapshot served by
// GET /v1/batches/{id}.
type BatchStatus struct {
	ID string `json:"id"`
	// State summarizes the members: "done" when every member succeeded,
	// "failed"/"canceled" when terminal with failures or cancellations
	// (failure dominating), "running" while any member executes, else
	// "queued".
	State     State     `json:"state"`
	CreatedAt time.Time `json:"createdAt"`
	// Members holds one status per submitted request, in submit order.
	// Deduplicated members repeat the backing job's status, so
	// byte-identical requests share an ID and a result envelope.
	Members []Status `json:"members"`
	// Unique counts the distinct jobs after in-batch deduplication;
	// Deduped counts the members folded into an earlier sibling; Cached
	// counts unique jobs answered from the result cache without running.
	Unique  int `json:"unique"`
	Deduped int `json:"deduped,omitempty"`
	Cached  int `json:"cached,omitempty"`
	// Done/Failed/Canceled/Running/Queued count unique jobs by state.
	Done     int `json:"done"`
	Failed   int `json:"failed,omitempty"`
	Canceled int `json:"canceled,omitempty"`
	Running  int `json:"running,omitempty"`
	Queued   int `json:"queued,omitempty"`
	// Effort aggregates the completed members' effort counters.
	Effort BatchEffort `json:"effort"`
}

// SubmitBatch validates, resolves, deduplicates and enqueues a list of
// requests as one atomic batch: either every member is accepted and
// durable, or none is. It shares Submit's admission path (admitLocked):
// requests hash-identical to an earlier member share that member's
// job, unique requests hash-identical to a cached result settle
// immediately from the cache, and the queue-capacity check covers the
// whole batch, so a batch is never half-enqueued.
func (m *Manager) SubmitBatch(reqs []Request) (*Batch, error) {
	if err := m.ctx.Err(); err != nil {
		return nil, ErrClosed
	}
	if len(reqs) == 0 {
		return nil, ErrEmptyBatch
	}
	// One malformed request rejects the whole batch before anything is
	// journaled.
	prep, i, err := m.prepare(reqs)
	if err != nil {
		return nil, fmt.Errorf("jobs: batch member %d: %w", i, err)
	}
	batch := new(Batch)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.admitLocked(prep, batch); err != nil {
		return nil, err
	}
	m.metrics.batches.Add(1)
	m.metrics.batchMembers.Add(int64(len(reqs)))
	m.metrics.batchDeduped.Add(int64(len(reqs) - len(batch.unique)))
	return batch, nil
}

// GetBatch returns a batch by ID. Batches evicted by the retention
// policy are no longer found.
func (m *Manager) GetBatch(id string) (*Batch, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.batches[id]
	return b, ok
}

// BatchStatus snapshots one batch: per-member states in submit order
// plus the aggregate effort rollup over completed members.
func (m *Manager) BatchStatus(id string) (BatchStatus, error) {
	m.mu.Lock()
	b, ok := m.batches[id]
	if !ok {
		m.mu.Unlock()
		return BatchStatus{}, ErrNotFound
	}
	memberIDs := b.memberIDs
	uniq := append([]*Job(nil), b.unique...)
	m.mu.Unlock()

	st := BatchStatus{
		ID:        b.id,
		CreatedAt: b.created,
		Unique:    len(uniq),
		Deduped:   len(memberIDs) - len(uniq),
	}
	statuses := make(map[string]Status, len(uniq))
	for _, j := range uniq {
		js := j.Status()
		statuses[j.id] = js
		switch js.State {
		case StateDone:
			st.Done++
			if js.Cached {
				st.Cached++
			}
		case StateFailed:
			st.Failed++
		case StateCanceled:
			st.Canceled++
		case StateRunning:
			st.Running++
		default:
			st.Queued++
		}
		if res, done := j.Result(); done && res != nil {
			switch {
			case res.Optimization != nil:
				o := res.Optimization
				st.Effort.Simulations += o.Simulations
				st.Effort.ConstraintSims += o.ConstraintSims
				st.Effort.EvalCacheHits += o.Perf.EvalCacheHits
				st.Effort.EvalCacheCrossHits += o.Perf.EvalCacheCrossHits
				st.Effort.EvalCacheMisses += o.Perf.EvalCacheMisses
				st.Effort.EvalCacheDeduped += o.Perf.EvalCacheDeduped
			case res.Verification != nil:
				st.Effort.VerifyEvals += int64(res.Verification.Evals)
			}
		}
	}
	st.Members = make([]Status, len(memberIDs))
	for i, jid := range memberIDs {
		st.Members[i] = statuses[jid]
	}
	switch {
	case st.Running > 0:
		st.State = StateRunning
	case st.Queued > 0:
		st.State = StateQueued
	case st.Failed > 0:
		st.State = StateFailed
	case st.Canceled > 0:
		st.State = StateCanceled
	default:
		st.State = StateDone
	}
	return st, nil
}

// Batches snapshots every tracked batch, newest first.
func (m *Manager) Batches() []BatchStatus {
	m.mu.Lock()
	ids := make([]string, 0, len(m.batches))
	for id := range m.batches {
		ids = append(ids, id)
	}
	m.mu.Unlock()
	// Batch IDs are zero-padded sequence numbers: lexical sort is
	// chronological.
	sort.Sort(sort.Reverse(sort.StringSlice(ids)))
	out := make([]BatchStatus, 0, len(ids))
	for _, id := range ids {
		if st, err := m.BatchStatus(id); err == nil {
			out = append(out, st)
		}
	}
	return out
}

// CancelBatch cancels every non-terminal member of a batch. Members
// already done keep their results; the batch settles once the running
// members wind down.
func (m *Manager) CancelBatch(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.batches[id]
	if !ok {
		return ErrNotFound
	}
	for _, j := range b.unique {
		j.mu.Lock()
		m.cancelLocked(j)
		j.mu.Unlock()
	}
	return nil
}

// noteBatchSettleLocked records one member's terminal transition and
// enrolls the batch in batch retention once all members settled. Both
// m.mu and the member's j.mu are held (called from finishLocked).
func (m *Manager) noteBatchSettleLocked(j *Job) {
	b := m.batches[j.batch]
	if b == nil {
		return
	}
	b.terminal++
	if b.terminal == len(b.unique) {
		b.finished = m.now()
		m.batchOrder.PushBack(retained{batch: b, finished: b.finished})
	}
}
