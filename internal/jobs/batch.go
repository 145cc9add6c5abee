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

	"specwise/internal/problem"
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
// durable, or none is. Requests hash-identical to an earlier member
// share that member's job; unique requests hash-identical to a cached
// result settle immediately from the cache, exactly like Submit. The
// queue-capacity check covers the whole batch, so a batch is never
// half-enqueued.
func (m *Manager) SubmitBatch(reqs []Request) (*Batch, error) {
	if err := m.ctx.Err(); err != nil {
		return nil, ErrClosed
	}
	if len(reqs) == 0 {
		return nil, ErrEmptyBatch
	}
	// Validate and resolve every member eagerly: one malformed request
	// rejects the whole batch before anything is journaled.
	type memberReq struct {
		req      Request
		hash     string
		probHash string
	}
	members := make([]memberReq, len(reqs))
	problems := make(map[string]*problem.Problem) // problemHash → resolved, once
	for i := range reqs {
		mr := memberReq{req: reqs[i]}
		m.stampDefaults(&mr.req)
		if err := mr.req.Normalize(); err != nil {
			return nil, fmt.Errorf("jobs: batch member %d: %w", i, err)
		}
		var err error
		if mr.hash, err = mr.req.Hash(); err != nil {
			return nil, fmt.Errorf("jobs: batch member %d: %w", i, err)
		}
		if mr.probHash, err = mr.req.ProblemHash(); err != nil {
			return nil, fmt.Errorf("jobs: batch member %d: %w", i, err)
		}
		if _, ok := problems[mr.probHash]; !ok {
			p, err := m.cfg.Resolve(&mr.req)
			if err != nil {
				return nil, fmt.Errorf("jobs: batch member %d: %w", i, err)
			}
			problems[mr.probHash] = p
		}
		members[i] = mr
	}

	m.mu.Lock()
	// Dedupe members against each other and split the unique ones into
	// cached (settle from the result cache) and fresh (need a queue slot).
	byHash := make(map[string]*Job, len(members))
	var uniq []*Job
	var fresh []*Job
	memberIDs := make([]string, len(members))
	now := m.now()
	seq0, batchSeq0 := m.seq, m.batchSeq
	m.batchSeq++
	batch := &Batch{id: fmt.Sprintf("batch-%06d", m.batchSeq), seq: m.batchSeq, created: now}
	dedup := 0
	for i, mr := range members {
		if j, ok := byHash[mr.hash]; ok {
			memberIDs[i] = j.id
			dedup++
			continue
		}
		m.seq++
		job := &Job{
			id:          fmt.Sprintf("job-%06d", m.seq),
			seq:         m.seq,
			hash:        mr.hash,
			problemHash: mr.probHash,
			batch:       batch.id,
			lane:        mr.req.lane(),
			req:         mr.req,
			problem:     problems[mr.probHash],
			enqueued:    now,
		}
		byHash[mr.hash] = job
		memberIDs[i] = job.id
		uniq = append(uniq, job)
		if _, cached := m.cache[mr.hash]; !cached {
			fresh = append(fresh, job)
		}
	}
	// Admission is per lane, over the whole batch, so a batch is never
	// half-enqueued: every lane a fresh member lands in must have room
	// for all of that lane's members at once.
	freshPerLane := make(map[string]int)
	for _, job := range fresh {
		freshPerLane[job.lane]++
	}
	for lane, n := range freshPerLane {
		lq := m.lanes[lane]
		if lq.pending.Len()+n > lq.limit {
			// Atomic rejection: nothing was journaled or tracked yet, so
			// the rollback is just the counters.
			qerr := &QueueFullError{Lane: lane, Depth: lq.pending.Len(), RetryAfter: lq.retryAfter(now)}
			m.seq, m.batchSeq = seq0, batchSeq0
			m.mu.Unlock()
			return nil, qerr
		}
	}
	// Journal every member, then the committing RecBatch. A member
	// append failing mid-way leaves already-journaled members without a
	// commit record: settle them canceled (replay reaches the same state
	// through the orphan rule) and refuse the batch.
	journaled := uniq[:0:0]
	var journalErr error
	for _, job := range uniq {
		if err := m.journal(&Record{Kind: RecSubmit, Job: job.id, Seq: job.seq, Hash: job.hash,
			Req: &job.req, Batch: batch.id, Lane: job.lane, Time: now}); err != nil {
			journalErr = err
			break
		}
		journaled = append(journaled, job)
	}
	if journalErr == nil {
		journalErr = m.journal(&Record{Kind: RecBatch, Batch: batch.id, Seq: batch.seq, Members: memberIDs, Time: now})
	}
	if journalErr != nil {
		for _, job := range journaled {
			job.batch = "" // not a member of any committed batch
			m.jobs[job.id] = job
			job.mu.Lock()
			m.finishLocked(job, StateCanceled, "canceled: batch submission failed")
			job.mu.Unlock()
		}
		m.mu.Unlock()
		return nil, fmt.Errorf("jobs: journaling batch: %w", journalErr)
	}

	// Committed: track the batch, settle cached members, enqueue the rest.
	batch.memberIDs = memberIDs
	batch.unique = uniq
	m.batches[batch.id] = batch
	cachedHits := 0
	warmHits := 0
	for _, job := range uniq {
		m.jobs[job.id] = job
		if el, ok := m.cache[job.hash]; ok {
			ent := el.Value.(*cacheEntry)
			if ent.warm {
				warmHits++
			}
			m.lru.MoveToFront(el)
			job.cached = true
			job.result = ent.res
			job.mu.Lock()
			m.finishLocked(job, StateDone, "")
			job.mu.Unlock()
			cachedHits++
		} else {
			job.state = StateQueued
			m.enqueueLocked(job, false)
		}
	}
	m.mu.Unlock()

	m.metrics.submitted.Add(int64(len(uniq)))
	m.metrics.batches.Add(1)
	m.metrics.batchMembers.Add(int64(len(members)))
	m.metrics.batchDeduped.Add(int64(dedup))
	m.metrics.cacheHits.Add(int64(cachedHits))
	m.metrics.cacheWarmHits.Add(int64(warmHits))
	if len(fresh) > 0 {
		m.wakeOne()
	}
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
		m.batchOrder.PushBack(retainedBatch{batch: b, finished: b.finished})
	}
}

// retainedBatch is one terminal batch in the batch retention queue.
type retainedBatch struct {
	batch    *Batch
	finished time.Time
}

// evictBatchesLocked drops the oldest terminal batches — and their
// member jobs — past the retention cap and TTL, mirroring evictLocked
// for standalone jobs. Caller holds m.mu.
func (m *Manager) evictBatchesLocked(now time.Time) {
	for m.batchOrder.Len() > 0 {
		front := m.batchOrder.Front()
		r := front.Value.(retainedBatch)
		overCap := m.cfg.RetainJobs >= 0 && m.batchOrder.Len() > m.cfg.RetainJobs
		tooOld := m.cfg.RetainFor > 0 && now.Sub(r.finished) > m.cfg.RetainFor
		if !overCap && !tooOld {
			break
		}
		m.batchOrder.Remove(front)
		delete(m.batches, r.batch.id)
		for _, j := range r.batch.unique {
			delete(m.jobs, j.id)
			m.journal(&Record{Kind: RecJobEvict, Job: j.id}) //nolint:errcheck // degraded store: logged once
			m.metrics.jobsEvicted.Add(1)
		}
		m.journal(&Record{Kind: RecBatchEvict, Batch: r.batch.id}) //nolint:errcheck // degraded store: logged once
		m.metrics.batchesEvicted.Add(1)
	}
}
