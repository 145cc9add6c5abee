package jobs

// Journal-and-recover: the manager half of the persistence design in
// store.go. Every control-plane mutation is journaled through
// Manager.journal before it is acknowledged; recover replays the
// journal on boot into an exact copy of the pre-crash control plane;
// snapshotRecordsLocked encodes the live state as the minimal record
// sequence for compaction.
//
// Replay invariants the journal sites below maintain:
//
//   - All appends happen under Manager.mu, so the journal is a serial
//     history and a snapshot taken under the same lock never races a
//     concurrent append.
//   - The result cache is driven only by RecCacheEntry/RecCacheEvict
//     records. Replaying a RecDone never warms the cache — otherwise a
//     snapshot replay would resurrect entries the LRU cap had evicted.
//   - Counters journaled on requeue records are absolute values, so
//     replay assigns rather than increments and a snapshot's records
//     are idempotent.

import (
	"fmt"
	"log"
	"sort"
	"time"
)

// journal appends one record to the store. Callers on the submission
// path propagate the error (the mutation is refused if it cannot be
// made durable); interior transitions treat a failed append as a
// degraded-but-running store and log once. Caller holds m.mu.
func (m *Manager) journal(rec *Record) error {
	if !m.persistent {
		return nil
	}
	if err := m.store.Append(rec); err != nil {
		m.storeErrOnce.Do(func() {
			log.Printf("jobs: persistent store degraded (journaling continues best-effort): %v", err)
		})
		return err
	}
	m.appendsSince.Add(1)
	return nil
}

// settleRecord builds the terminal record for finishLocked. Both m.mu
// and j.mu are held; j's terminal fields are already set.
func settleRecord(j *Job, state State, worker, errMsg string) *Record {
	rec := &Record{
		Job:      j.id,
		Worker:   worker,
		Attempts: j.attempts,
		Started:  j.started,
		Time:     j.finished,
	}
	switch state {
	case StateDone:
		rec.Kind = RecDone
		rec.Cached = j.cached
		if !j.cached {
			// Cached settlements reference the cache entry under the job's
			// hash instead of duplicating the result in the journal.
			rec.Result = j.result
		}
	case StateFailed:
		rec.Kind = RecFail
		rec.Err = errMsg
	case StateCanceled:
		rec.Kind = RecCancel
		rec.Err = errMsg
	}
	return rec
}

// applyRecord folds one journal record into the manager during
// recovery. It runs strictly before the worker pool and the sweeper
// start, single-threaded, so no locks are taken. It rebuilds only the
// job map, the cache and the sequence counters; queue membership
// and retention order are derived afterwards by recover.
// Records referencing unknown jobs (evicted before the record was
// written against a pre-eviction snapshot — impossible in a healthy
// journal, but cheap to tolerate) are skipped.
func (m *Manager) applyRecord(rec *Record) error {
	j := m.jobs[rec.Job]
	switch rec.Kind {
	case RecSubmit:
		if rec.Job == "" || rec.Req == nil {
			return fmt.Errorf("jobs: malformed submit record (job %q)", rec.Job)
		}
		j := &Job{
			id:       rec.Job,
			seq:      rec.Seq,
			hash:     rec.Hash,
			req:      *rec.Req,
			batch:    rec.Batch,
			lane:     rec.Lane,
			state:    StateQueued,
			enqueued: rec.Time,
		}
		if j.lane == "" {
			// Pre-lane journal: classify exactly as submit would have.
			j.lane = j.req.lane()
		}
		// The problem hash is derived, never journaled; recompute it so
		// recovered jobs keep sharing the evaluation cache. A request that
		// survived submission always hashes, so the error path is dead in
		// a healthy journal.
		j.problemHash, _ = j.req.ProblemHash() //nolint:errcheck // empty hash only disables sharing
		m.jobs[rec.Job] = j
		if rec.Seq > m.seq {
			m.seq = rec.Seq
		}
	case RecStart:
		if j == nil {
			return nil
		}
		j.state = StateRunning
		j.worker = ""
		j.leaseID = ""
		j.attempts = rec.Attempts
		j.started = rec.Time
	case RecLease:
		if rec.LeaseSeq > m.leaseSeq {
			m.leaseSeq = rec.LeaseSeq
		}
		if j == nil {
			return nil
		}
		j.state = StateRunning
		j.worker = rec.Worker
		j.leaseID = rec.Lease
		j.leaseSeq = rec.LeaseSeq
		j.leaseDeadline = rec.Deadline
		j.attempts = rec.Attempts
		j.started = rec.Time
	case RecHeartbeat:
		if j != nil && j.leaseID == rec.Lease {
			j.leaseDeadline = rec.Deadline
		}
	case RecRequeue:
		if j == nil {
			return nil
		}
		j.state = StateQueued
		j.worker = ""
		j.leaseID = ""
		j.started = time.Time{}
		j.requeues = rec.Requeues
		if rec.Attempts > 0 {
			j.attempts = rec.Attempts
		}
	case RecDone, RecFail, RecCancel:
		if j == nil {
			return nil
		}
		switch rec.Kind {
		case RecDone:
			j.state = StateDone
			j.cached = rec.Cached
			switch {
			case rec.Result != nil:
				j.result = rec.Result
			case rec.Cached:
				// Cached settlement: the result is whatever the cache holds
				// under the job's hash at this point of the log.
				if el, ok := m.cache[j.hash]; ok {
					j.result = el.Value.(*cacheEntry).res
				}
			}
		case RecFail:
			j.state = StateFailed
		case RecCancel:
			j.state = StateCanceled
		}
		j.err = rec.Err
		j.finished = rec.Time
		j.leaseID = ""
		if rec.Worker != "" {
			j.worker = rec.Worker
		}
		if rec.Attempts > 0 {
			j.attempts = rec.Attempts
		}
		if !rec.Started.IsZero() {
			j.started = rec.Started
		}
		if j.started.IsZero() {
			j.started = j.finished
		}
	case RecJobEvict:
		delete(m.jobs, rec.Job)
	case RecBatch:
		if rec.Batch == "" {
			return fmt.Errorf("jobs: malformed batch record")
		}
		m.batches[rec.Batch] = &Batch{
			id:        rec.Batch,
			seq:       rec.Seq,
			created:   rec.Time,
			memberIDs: rec.Members,
		}
		if rec.Seq > m.batchSeq {
			m.batchSeq = rec.Seq
		}
	case RecBatchEvict:
		delete(m.batches, rec.Batch)
	case RecCacheEvict:
		if el, ok := m.cache[rec.Hash]; ok {
			m.lru.Remove(el)
			delete(m.cache, rec.Hash)
		}
	case RecCacheEntry:
		res := rec.Result
		if res == nil && j != nil {
			res = j.result
		}
		if el, ok := m.cache[rec.Hash]; ok {
			ent := el.Value.(*cacheEntry)
			if res != nil {
				ent.res = res
				ent.jobID = rec.Job
			}
			m.lru.MoveToFront(el)
		} else if res != nil {
			m.cache[rec.Hash] = m.lru.PushFront(&cacheEntry{hash: rec.Hash, res: res, jobID: rec.Job})
		}
	default:
		// Unknown kinds from a newer version: skip, do not fail the boot.
	}
	return nil
}

// recover replays the store into the manager and repairs what the
// crash interrupted: queued jobs re-enter the pending queue in original
// submit order; interrupted local runs are requeued with their retry
// budget intact; remote leases still within their TTL stay attached so
// the worker's next heartbeat or result post is honored; expired leases
// go through the same requeue-or-fail path the sweeper would have
// applied. Runs before the worker pool starts.
func (m *Manager) recover() error {
	begin := time.Now()
	if err := m.store.Replay(m.applyRecord); err != nil {
		return fmt.Errorf("jobs: replaying store: %w", err)
	}
	now := m.now()

	m.mu.Lock()

	// Re-link batches to their member jobs (the journal stores member
	// IDs; a batch evicted with RecBatchEvict is already gone). Jobs
	// carrying a batch tag whose RecBatch never made the journal are
	// orphans of a submission the crash interrupted before it was
	// acknowledged: cancel them, exactly as an unacknowledged Submit
	// whose RecSubmit never landed would simply not exist.
	for _, b := range m.batches {
		seen := make(map[string]bool, len(b.memberIDs))
		b.unique = b.unique[:0]
		b.terminal = 0
		for _, id := range b.memberIDs {
			if seen[id] {
				continue
			}
			seen[id] = true
			j, ok := m.jobs[id]
			if !ok {
				continue // evicted from a stale journal; tolerate
			}
			b.unique = append(b.unique, j)
			if j.state.Terminal() {
				b.terminal++
				if j.finished.After(b.finished) {
					b.finished = j.finished
				}
			}
		}
	}
	// Jobs carrying a batch tag whose committing RecBatch never made the
	// journal are orphans of a submission the crash interrupted before
	// it was acknowledged. Clear their tag (they re-enter ordinary job
	// retention) now; the non-terminal ones are canceled after the
	// retention rebuild below, so they enroll exactly once.
	var orphans []*Job
	for _, j := range m.jobs {
		if j.batch == "" {
			continue
		}
		if _, ok := m.batches[j.batch]; ok {
			continue
		}
		j.batch = ""
		orphans = append(orphans, j)
	}

	// Retention order: terminal jobs, oldest finish first (ties by
	// submit order). The journal interleaves settlements with everything
	// else and snapshots are submit-ordered, so this must be rebuilt.
	// Batch members are excluded — they are retained through their batch.
	var term []*Job
	for _, j := range m.jobs {
		if j.state.Terminal() && j.batch == "" {
			term = append(term, j)
		}
	}
	sort.Slice(term, func(i, k int) bool {
		if !term[i].finished.Equal(term[k].finished) {
			return term[i].finished.Before(term[k].finished)
		}
		return term[i].seq < term[k].seq
	})
	for _, j := range term {
		m.order.PushBack(retained{job: j, finished: j.finished})
	}

	// Cancel the non-terminal orphans: the caller never saw the batch
	// acknowledged, so its members must not silently run.
	for _, j := range orphans {
		if j.state.Terminal() {
			continue // already enrolled by the rebuild above
		}
		j.mu.Lock()
		m.finishLocked(j, StateCanceled, "canceled: batch submission interrupted")
		j.mu.Unlock()
	}

	// Batch retention order: terminal batches, oldest settle first.
	var termBatches []*Batch
	for _, b := range m.batches {
		if len(b.unique) > 0 && b.terminal == len(b.unique) {
			termBatches = append(termBatches, b)
		}
	}
	sort.Slice(termBatches, func(i, k int) bool {
		if !termBatches[i].finished.Equal(termBatches[k].finished) {
			return termBatches[i].finished.Before(termBatches[k].finished)
		}
		return termBatches[i].seq < termBatches[k].seq
	})
	for _, b := range termBatches {
		m.batchOrder.PushBack(retained{batch: b, finished: b.finished})
	}

	// Re-resolve problems for every job that may still run locally. A
	// job whose problem no longer resolves (a circuit dropped between
	// versions) fails now rather than crashing a worker later.
	for _, j := range m.jobs {
		if j.state.Terminal() {
			continue
		}
		p, err := m.cfg.Resolve(&j.req)
		if err != nil {
			j.mu.Lock()
			m.finishLocked(j, StateFailed, fmt.Sprintf("recovery: %v", err))
			j.mu.Unlock()
			continue
		}
		j.problem = p
	}

	// Crash fixups, in submit order so requeue-vs-fail outcomes are
	// deterministic.
	var live []*Job
	for _, j := range m.jobs {
		if !j.state.Terminal() {
			live = append(live, j)
		}
	}
	sort.Slice(live, func(i, k int) bool { return live[i].seq < live[k].seq })
	var pend []*Job
	for _, j := range live {
		j.mu.Lock()
		switch {
		case j.state == StateQueued:
			pend = append(pend, j)
		case j.state == StateRunning && j.leaseID == "":
			// A local run the crash interrupted: back to the queue, retry
			// budget untouched (the daemon died, not the job).
			j.state = StateQueued
			j.started = time.Time{}
			m.metrics.requeued.Add(1)
			m.journal(&Record{Kind: RecRequeue, Job: j.id, Requeues: j.requeues, Attempts: j.attempts, Time: now})
			pend = append(pend, j)
		case j.state == StateRunning && now.After(j.leaseDeadline):
			// The lease died while we were down: same requeue-or-fail the
			// sweeper would have applied.
			worker := j.worker
			m.metrics.leaseExpiries.Add(1)
			m.metrics.workers.add(worker, workerExpiries, 1)
			if j.requeues < m.cfg.MaxRetries {
				j.requeues++
				j.leaseID = ""
				j.worker = ""
				j.state = StateQueued
				j.started = time.Time{}
				m.metrics.requeued.Add(1)
				m.journal(&Record{Kind: RecRequeue, Job: j.id, Requeues: j.requeues, Attempts: j.attempts, Time: now})
				pend = append(pend, j)
			} else {
				msg := fmt.Sprintf("lease expired (worker %q unresponsive) after %d attempts", worker, j.attempts)
				m.finishLocked(j, StateFailed, msg)
			}
			// A lease still within its TTL stays attached: the job keeps its
			// leaseID and deadline, so Heartbeat and Complete recognize the
			// surviving worker and the sweeper expires it if it never calls.
		}
		j.mu.Unlock()
	}
	sort.Slice(pend, func(i, k int) bool { return pend[i].seq < pend[k].seq })
	for _, j := range pend {
		// Sequence-ordered PushBack per lane reproduces each lane's
		// original submit order.
		m.enqueueLocked(j, false)
	}

	// The cache replay honored every eviction record; a shrunk CacheSize
	// still needs a trim. Surviving entries are marked warm so hits on
	// them are attributable to recovery.
	if m.cfg.CacheSize >= 0 {
		for m.lru.Len() > m.cfg.CacheSize {
			back := m.lru.Back()
			ent := back.Value.(*cacheEntry)
			m.lru.Remove(back)
			delete(m.cache, ent.hash)
			m.journal(&Record{Kind: RecCacheEvict, Hash: ent.hash})
			m.metrics.cacheEvictions.Add(1)
		}
	} else {
		for m.lru.Len() > 0 {
			back := m.lru.Back()
			delete(m.cache, back.Value.(*cacheEntry).hash)
			m.lru.Remove(back)
		}
	}
	for el := m.lru.Front(); el != nil; el = el.Next() {
		el.Value.(*cacheEntry).warm = true
	}
	m.metrics.recovered = int64(len(m.jobs))

	// Compact immediately: boot-time is the cheapest moment (no traffic)
	// and it bounds the next recovery's replay to the snapshot plus one
	// snapshot interval of records.
	recs := m.snapshotRecordsLocked()
	err := m.store.Compact(recs)
	if err == nil {
		m.appendsSince.Store(0)
	}
	m.mu.Unlock()
	if err != nil {
		return fmt.Errorf("jobs: compacting after recovery: %w", err)
	}
	m.metrics.recoveryTime = time.Since(begin)
	return nil
}

// snapshotRecordsLocked encodes the current control plane as the
// minimal record sequence that rebuilds it: one RecSubmit per tracked
// job (submit order) followed by its current-state record, then the
// cache entries oldest-first so replay reproduces the LRU order. Cache
// entries whose job is still tracked reference it; entries that
// outlived their job's retention carry the result inline. Caller holds
// m.mu.
func (m *Manager) snapshotRecordsLocked() []*Record {
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq })

	recs := make([]*Record, 0, 2*len(jobs)+m.lru.Len())
	for _, j := range jobs {
		j.mu.Lock()
		req := j.req
		recs = append(recs, &Record{Kind: RecSubmit, Job: j.id, Seq: j.seq, Hash: j.hash, Req: &req, Batch: j.batch, Lane: j.lane, Time: j.enqueued})
		switch j.state {
		case StateQueued:
			if j.requeues > 0 || j.attempts > 0 {
				recs = append(recs, &Record{Kind: RecRequeue, Job: j.id, Requeues: j.requeues, Attempts: j.attempts, Time: j.enqueued})
			}
		case StateRunning:
			if j.leaseID != "" {
				recs = append(recs, &Record{Kind: RecLease, Job: j.id, Worker: j.worker, Lease: j.leaseID,
					LeaseSeq: j.leaseSeq, Deadline: j.leaseDeadline, Attempts: j.attempts, Time: j.started})
			} else {
				recs = append(recs, &Record{Kind: RecStart, Job: j.id, Attempts: j.attempts, Time: j.started})
			}
		case StateDone:
			rec := settleRecord(j, StateDone, j.worker, "")
			// In a snapshot the settlement must stand alone: cached jobs
			// inline their result rather than referencing cache log order.
			rec.Result = j.result
			recs = append(recs, rec)
		case StateFailed:
			recs = append(recs, settleRecord(j, StateFailed, j.worker, j.err))
		case StateCanceled:
			recs = append(recs, settleRecord(j, StateCanceled, j.worker, j.err))
		}
		j.mu.Unlock()
	}
	for el := m.lru.Back(); el != nil; el = el.Prev() {
		ent := el.Value.(*cacheEntry)
		rec := &Record{Kind: RecCacheEntry, Hash: ent.hash}
		if j, ok := m.jobs[ent.jobID]; ok && j.result == ent.res {
			rec.Job = ent.jobID
		} else {
			rec.Result = ent.res
		}
		recs = append(recs, rec)
	}
	// Batches last: their member jobs were just encoded above, so replay
	// re-links every commit record to live jobs.
	batches := make([]*Batch, 0, len(m.batches))
	for _, b := range m.batches {
		batches = append(batches, b)
	}
	sort.Slice(batches, func(i, k int) bool { return batches[i].seq < batches[k].seq })
	for _, b := range batches {
		recs = append(recs, &Record{Kind: RecBatch, Batch: b.id, Seq: b.seq, Members: b.memberIDs, Time: b.created})
	}
	return recs
}

// maybeSnapshot compacts the store once enough records accumulated
// since the last snapshot; called from the sweeper.
func (m *Manager) maybeSnapshot() {
	if !m.persistent || m.cfg.SnapshotEvery <= 0 {
		return
	}
	if m.appendsSince.Load() < int64(m.cfg.SnapshotEvery) {
		return
	}
	m.snapshot()
}

// snapshot compacts the store to the current control plane.
func (m *Manager) snapshot() {
	if !m.persistent {
		return
	}
	m.mu.Lock()
	recs := m.snapshotRecordsLocked()
	err := m.store.Compact(recs)
	if err == nil {
		m.appendsSince.Store(0)
	}
	m.mu.Unlock()
	if err != nil {
		m.storeErrOnce.Do(func() {
			log.Printf("jobs: persistent store degraded (compaction failed): %v", err)
		})
	}
}

// Shutdown stops the manager for a graceful restart. With a persistent
// store it refuses new submissions, drains the local pool — each
// interrupted local run is journaled back into the queue with its retry
// budget intact — leaves queued jobs and live remote leases journaled
// so the next boot resumes them and surviving workers reattach, then
// writes a final snapshot and closes the store. Without a persistent
// store nothing would survive the process, so Shutdown is Close.
func (m *Manager) Shutdown() {
	if !m.persistent {
		m.Close()
		return
	}
	if m.down.Swap(true) {
		return
	}
	m.draining.Store(true)
	m.stop()
	m.wg.Wait()
	m.snapshot()
	if err := m.store.Close(); err != nil {
		log.Printf("jobs: closing store: %v", err)
	}
}
