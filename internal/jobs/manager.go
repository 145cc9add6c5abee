package jobs

import (
	"bytes"
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"specwise/internal/circuits"
	"specwise/internal/evalcache"
	"specwise/internal/problem"
	"specwise/internal/yieldspec"
)

// Submission errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull is returned when the bounded job queue is at capacity.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrClosed is returned for submissions after Close.
	ErrClosed = errors.New("jobs: manager closed")
	// ErrNotFound is returned for operations on unknown job IDs.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrLeaseLost is returned when a worker operates on a lease that has
	// expired, was requeued, or was superseded by another claimant.
	ErrLeaseLost = errors.New("jobs: lease expired or superseded")
)

// QueueFullError is the admission-control rejection: the request's lane
// is at its bounded depth. It carries what the HTTP layer needs to
// answer 429 honestly — which lane, how deep, and a Retry-After
// computed from the lane's recent drain rate instead of a hardcoded
// guess. errors.Is(err, ErrQueueFull) keeps matching it.
type QueueFullError struct {
	Lane       string
	Depth      int
	RetryAfter time.Duration
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("jobs: %s lane queue full (%d queued; retry in %s)", e.Lane, e.Depth, e.RetryAfter)
}

// Is keeps the sentinel contract: callers match the lane-aware
// rejection with errors.Is(err, ErrQueueFull).
func (e *QueueFullError) Is(target error) bool { return target == ErrQueueFull }

// Config sizes the manager.
type Config struct {
	// Workers is the number of concurrent in-process optimizer workers
	// (default: half the CPUs, at least 1; see RemoteOnly).
	Workers int
	// RemoteOnly disables the in-process worker pool entirely: every job
	// must be claimed by a remote pull-worker over the lease protocol.
	RemoteOnly bool
	// QueueSize bounds the number of jobs waiting to run in each lane
	// (default 64). LaneQueueSize overrides it per lane.
	QueueSize int
	// LaneWeights sets each lane's share of the weighted-round-robin
	// drain order (default verify:3, optimize:1 — three quick verifies
	// for every heavy optimize when both lanes hold work). Weights below
	// 1 are lifted to 1, so no lane can be configured into starvation.
	LaneWeights map[string]int
	// LaneQueueSize overrides QueueSize for individual lanes; zero or
	// missing entries fall back to QueueSize.
	LaneQueueSize map[string]int
	// CacheSize caps the number of completed results kept for
	// hash-identical resubmissions; the least recently used entry is
	// evicted past the cap (default 128, negative disables caching).
	CacheSize int
	// RetainJobs caps the number of terminal (done/failed/canceled) jobs
	// kept in the store for status queries; the oldest-finished is
	// evicted past the cap (default 512, negative keeps every job).
	// Active jobs are never evicted; the result cache is independent of
	// job retention.
	RetainJobs int
	// RetainFor evicts terminal jobs older than this on the background
	// sweep, regardless of the cap (0 disables the TTL sweep).
	RetainFor time.Duration
	// LeaseTTL is how long a remote claim stays valid without a
	// heartbeat before the job is requeued (default 30s).
	LeaseTTL time.Duration
	// MaxRetries bounds how many times an expired lease may requeue a
	// job before it is marked failed (default 2, negative disables
	// requeueing — the first expiry fails the job).
	MaxRetries int
	// SharedEvalCache turns on the manager-scoped shared evaluation
	// cache: jobs on the same problem (same circuit or byte-identical
	// spec) reuse each other's simulations, which is where a sweep's
	// wall-clock win comes from. Results stay bit-identical with sharing
	// on or off — the cache keys on exact (d, s, θ) bit patterns. The
	// manager-side shard serves the in-process pool; remote pull-workers
	// keep their own per-process shard (see internal/worker).
	SharedEvalCache bool
	// EvalCacheSize caps the shared cache's entry count; the least
	// recently used completed entry is evicted past the cap
	// (0 selects evalcache.DefaultMaxEntries).
	EvalCacheSize int
	// DefaultAlgorithm, when non-empty, is stamped onto optimize-kind
	// requests that omit options.algorithm before they are normalized
	// and hashed. Stamping changes the request hash — a daemon
	// configured with a non-default backend serves a distinct cache
	// namespace by design. Empty (the default) leaves requests
	// untouched, keeping hashes byte-compatible with earlier releases.
	DefaultAlgorithm string
	// Resolve overrides problem resolution; tests inject cheap synthetic
	// problems here. nil uses the built-in circuits and yieldspec.
	Resolve func(req *Request) (*problem.Problem, error)
	// Store persists every control-plane mutation and enables crash
	// recovery on boot (use Open, not New, to surface recovery errors).
	// nil or NullStore keeps the in-memory-only behavior. internal/store
	// provides the durable single-file WAL+snapshot implementation.
	Store Store
	// SnapshotEvery compacts the store into a snapshot after this many
	// journaled records (default 1024; negative disables compaction).
	SnapshotEvery int

	// clock overrides the time source for lease deadlines and retention
	// sweeps (tests drive expiry with a fake clock). nil means time.Now.
	clock func() time.Time
}

func (c *Config) defaults() {
	if c.RemoteOnly {
		c.Workers = 0
	} else if c.Workers <= 0 {
		c.Workers = runtime.NumCPU() / 2
		if c.Workers < 1 {
			c.Workers = 1
		}
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.LaneWeights == nil {
		c.LaneWeights = map[string]int{LaneVerify: 3, LaneOptimize: 1}
	}
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.RetainJobs == 0 {
		c.RetainJobs = 512
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 30 * time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.Resolve == nil {
		c.Resolve = ResolveProblem
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 1024
	} else if c.SnapshotEvery < 0 {
		c.SnapshotEvery = 0
	}
	if c.clock == nil {
		c.clock = time.Now
	}
}

// ResolveProblem is the default problem resolver: a registered circuit
// name (see circuits.Register) or an inline yieldspec document. Inline
// specs must carry their netlist inline too — a service request has no
// base directory to resolve file references against, so the spec is
// parsed with none and a netlistFile is refused.
func ResolveProblem(req *Request) (*problem.Problem, error) {
	if req.Circuit != "" {
		return circuits.Build(req.Circuit)
	}
	return yieldspec.Parse(bytes.NewReader(req.Spec), "")
}

// Manager owns the job store, the bounded queue, the worker pools (the
// in-process goroutines and the remote lease table) and the result
// cache.
//
// Lock ordering: Manager.mu before Job.mu, never the reverse.
type Manager struct {
	cfg     Config
	ctx     context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
	wake    chan struct{} // cap 1: pending work for the local pool
	metrics Metrics

	// Persistence (see store.go and persist.go). persistent is false for
	// the NullStore so hot paths skip record construction entirely.
	store        Store
	persistent   bool
	evalShared   *evalcache.Shared // non-nil iff cfg.SharedEvalCache
	appendsSince atomic.Int64      // records since the last snapshot
	draining     atomic.Bool       // Shutdown in progress: requeue, don't cancel
	down         atomic.Bool       // Close/Shutdown already ran
	storeErrOnce sync.Once         // log store degradation once, not per record

	mu   sync.Mutex
	jobs map[string]*Job
	// lanes holds the per-priority pending queues (FIFO of *Job, only
	// StateQueued jobs); cycle is the weight-expanded lane pick order and
	// rrPos the rotating cursor into it (see takeLocked).
	lanes   map[string]*laneQueue
	cycle   []string
	rrPos   int
	order   *list.List               // of retained: terminal jobs in finish order
	cache   map[string]*list.Element // hash → element in lru
	lru     *list.List               // of *cacheEntry, most recent first
	batches map[string]*Batch
	// batchOrder retains terminal batches in settle order; member jobs
	// are pinned in m.jobs while their batch is tracked and evicted with
	// it (see batch.go).
	batchOrder *list.List // of retainedBatch
	seq        int
	batchSeq   int
	leaseSeq   int
}

// cacheEntry is one completed result in the LRU result cache. jobID
// names the job whose completion stored the entry (snapshots reference
// it instead of duplicating the result); warm marks entries restored by
// recovery, so hits on them are attributable to the journal.
type cacheEntry struct {
	hash  string
	res   *Result
	jobID string
	warm  bool
}

// retained is one terminal job in the retention queue; the finish time
// is copied so eviction never needs the job's own lock.
type retained struct {
	job      *Job
	finished time.Time
}

// drainWindow sizes the per-lane ring of recent drain timestamps the
// Retry-After estimate is derived from.
const drainWindow = 16

// laneQueue is one priority lane: a bounded FIFO of queued jobs plus
// the drain history that prices admission rejections. All fields are
// guarded by Manager.mu.
type laneQueue struct {
	name    string
	pending *list.List // of *Job
	limit   int        // admission bound (QueueSize / LaneQueueSize)
	weight  int        // share of the round-robin cycle

	// drains is a ring of the most recent dequeue times; drainN counts
	// total drains ever, so drains[drainN%drainWindow] is the slot the
	// next drain overwrites (i.e. the oldest sample once the ring is
	// full).
	drains [drainWindow]time.Time
	drainN int
}

// noteDrain records a dequeue for the Retry-After estimate.
func (lq *laneQueue) noteDrain(now time.Time) {
	lq.drains[lq.drainN%drainWindow] = now
	lq.drainN++
}

// retryAfter estimates how long a rejected client should back off: the
// lane's mean inter-drain interval over the recorded window (the
// expected time until the full queue frees one slot), clamped to
// [1s, 5m]. With fewer than two samples there is no rate to speak of,
// so a flat 2s stands in.
func (lq *laneQueue) retryAfter(now time.Time) time.Duration {
	n := lq.drainN
	if n > drainWindow {
		n = drainWindow
	}
	if n < 2 {
		return 2 * time.Second
	}
	newest := lq.drains[(lq.drainN-1)%drainWindow]
	oldest := lq.drains[lq.drainN%drainWindow]
	if lq.drainN <= drainWindow {
		oldest = lq.drains[0]
	}
	d := newest.Sub(oldest) / time.Duration(n-1)
	if d < time.Second {
		d = time.Second
	}
	if d > 5*time.Minute {
		d = 5 * time.Minute
	}
	return d
}

// New starts a manager with cfg.Workers workers. Call Close to stop.
// It panics if recovery from cfg.Store fails; configurations with a
// persistent store should prefer Open and handle the error.
func New(cfg Config) *Manager {
	m, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Open starts a manager, first recovering the control plane from
// cfg.Store when one is configured: terminal jobs and their results are
// restored (re-warming the result cache), queued jobs re-enter the
// pending queue in submit order, and remote leases still within their
// TTL stay reattachable. Call Close (or Shutdown, for a graceful
// restart that preserves the queue) to stop.
func Open(cfg Config) (*Manager, error) {
	cfg.defaults()
	ctx, stop := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		ctx:        ctx,
		stop:       stop,
		wake:       make(chan struct{}, 1),
		jobs:       make(map[string]*Job),
		lanes:      make(map[string]*laneQueue),
		order:      list.New(),
		cache:      make(map[string]*list.Element),
		lru:        list.New(),
		batches:    make(map[string]*Batch),
		batchOrder: list.New(),
	}
	// Build the lane queues and the weight-expanded pick cycle. The cycle
	// interleaves lanes round by round (verify:3 optimize:1 expands to
	// [verify optimize verify verify]) so the heavy lane's turns spread
	// out instead of bunching at the cycle edge.
	weights := make(map[string]int, len(Lanes()))
	for _, name := range Lanes() {
		w := cfg.LaneWeights[name]
		if w < 1 {
			w = 1
		}
		weights[name] = w
		limit := cfg.QueueSize
		if v := cfg.LaneQueueSize[name]; v > 0 {
			limit = v
		}
		m.lanes[name] = &laneQueue{name: name, pending: list.New(), limit: limit, weight: w}
	}
	for remaining := true; remaining; {
		remaining = false
		for _, name := range Lanes() {
			if weights[name] > 0 {
				weights[name]--
				m.cycle = append(m.cycle, name)
				remaining = remaining || weights[name] > 0
			}
		}
	}
	m.store = cfg.Store
	if m.store == nil {
		m.store = NullStore{}
	}
	switch m.store.(type) {
	case NullStore, *NullStore:
	default:
		m.persistent = true
	}
	if cfg.SharedEvalCache {
		m.evalShared = evalcache.NewShared(cfg.EvalCacheSize)
	}
	m.registerMetrics()
	if m.persistent {
		if err := m.recover(); err != nil {
			stop()
			return nil, err
		}
	}
	for w := 0; w < cfg.Workers; w++ {
		m.wg.Add(1)
		go m.worker()
	}
	m.wg.Add(1)
	go m.sweeper()
	m.mu.Lock()
	backlog := m.pendingLenLocked() > 0
	m.mu.Unlock()
	if backlog {
		m.wakeOne()
	}
	return m, nil
}

// now reads the manager clock (time.Now unless a test injected a fake).
func (m *Manager) now() time.Time { return m.cfg.clock() }

// SharedEvalCache returns the manager-scoped shared evaluation cache,
// or nil when Config.SharedEvalCache is off.
func (m *Manager) SharedEvalCache() *evalcache.Shared { return m.evalShared }

// Metrics exposes the service counters.
func (m *Manager) Metrics() *Metrics { return &m.metrics }

// Submit validates, resolves and enqueues a request. A request whose
// content hash matches an already-completed job is answered from the
// result cache: the returned job is immediately done and never occupies
// a worker. ErrQueueFull is returned when the queue is at capacity;
// nothing of the rejected submission is retained.
func (m *Manager) Submit(req Request) (*Job, error) {
	if err := m.ctx.Err(); err != nil {
		return nil, ErrClosed
	}
	m.stampDefaults(&req)
	if err := req.Normalize(); err != nil {
		return nil, err
	}
	hash, err := req.Hash()
	if err != nil {
		return nil, err
	}
	// The problem hash keys the shared evaluation cache. It is computed
	// even when the manager-side shard is off: remote pull-workers carry
	// it in their leases and maintain their own shard.
	probHash, err := req.ProblemHash()
	if err != nil {
		return nil, err
	}
	// Resolve eagerly so a bad circuit name or malformed spec fails the
	// submission itself, not the job later.
	p, err := m.cfg.Resolve(&req)
	if err != nil {
		return nil, err
	}

	lane := req.lane()

	m.mu.Lock()
	cacheEl, cacheHit := m.cache[hash]
	if !cacheHit {
		// Admission control, per lane, BEFORE the sequence number is
		// allocated: a rejected submission must leave no trace — not even
		// a burned job ID (the "nothing of the rejected submission is
		// retained" contract). Cache hits bypass admission entirely; they
		// never occupy a queue slot.
		lq := m.lanes[lane]
		if lq.pending.Len() >= lq.limit {
			qerr := &QueueFullError{Lane: lane, Depth: lq.pending.Len(), RetryAfter: lq.retryAfter(m.now())}
			m.mu.Unlock()
			return nil, qerr
		}
	}
	m.seq++
	job := &Job{
		id:          fmt.Sprintf("job-%06d", m.seq),
		seq:         m.seq,
		hash:        hash,
		problemHash: probHash,
		lane:        lane,
		req:         req,
		problem:     p,
		enqueued:    m.now(),
	}
	// Journal before acknowledging: a submission that cannot be made
	// durable is refused, never silently volatile. For cache hits this
	// lands ahead of the settlement, so replay sees the same submit→done
	// sequence the caller was told.
	if err := m.journal(&Record{Kind: RecSubmit, Job: job.id, Seq: job.seq, Hash: hash, Lane: lane, Req: &job.req, Time: job.enqueued}); err != nil {
		m.seq--
		m.mu.Unlock()
		return nil, fmt.Errorf("jobs: journaling submission: %w", err)
	}
	if cacheHit {
		ent := cacheEl.Value.(*cacheEntry)
		warm := ent.warm
		m.lru.MoveToFront(cacheEl)
		job.cached = true
		job.result = ent.res
		m.jobs[job.id] = job
		job.mu.Lock()
		m.finishLocked(job, StateDone, "")
		job.mu.Unlock()
		m.mu.Unlock()
		m.metrics.submitted.Add(1)
		m.metrics.cacheHits.Add(1)
		if warm {
			m.metrics.cacheWarmHits.Add(1)
		}
		return job, nil
	}
	job.state = StateQueued
	m.enqueueLocked(job, false)
	m.jobs[job.id] = job
	m.mu.Unlock()

	m.metrics.submitted.Add(1)
	m.wakeOne()
	return job, nil
}

// stampDefaults applies manager-level request defaults ahead of
// normalization: an optimize-kind request that omits the algorithm
// picks up the configured default backend. Requests that name an
// algorithm — and verify-kind requests, which have none — pass through
// untouched.
func (m *Manager) stampDefaults(req *Request) {
	if m.cfg.DefaultAlgorithm == "" || req.Options.Algorithm != "" {
		return
	}
	if req.Kind == "" || req.Kind == KindOptimize {
		req.Options.Algorithm = m.cfg.DefaultAlgorithm
	}
}

// wakeOne nudges one sleeping local worker; a dropped signal is fine
// because workers re-check the queue before sleeping.
func (m *Manager) wakeOne() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// takeLocked pops the next queued job, or nil. Caller holds m.mu.
//
// With lane == "" the pick walks the weight-expanded cycle from the
// rotating cursor and is work-conserving: every lane appears in the
// cycle (weights are lifted to at least 1), so whenever any lane holds
// work a full scan finds it — no lane starves, and an idle lane's turns
// are skipped rather than wasted. A named lane restricts the pop to
// that queue (remote workers may claim lane-filtered).
func (m *Manager) takeLocked(lane string) *Job {
	if lane != "" {
		return m.popLocked(m.lanes[lane])
	}
	for i := 0; i < len(m.cycle); i++ {
		pos := (m.rrPos + i) % len(m.cycle)
		if job := m.popLocked(m.lanes[m.cycle[pos]]); job != nil {
			m.rrPos = (pos + 1) % len(m.cycle)
			return job
		}
	}
	return nil
}

// popLocked removes a lane's oldest queued job, settling its lane wait
// and the drain history. Caller holds m.mu.
func (m *Manager) popLocked(lq *laneQueue) *Job {
	if lq == nil {
		return nil
	}
	front := lq.pending.Front()
	if front == nil {
		return nil
	}
	job := front.Value.(*Job)
	lq.pending.Remove(front)
	job.queueEl = nil
	now := m.now()
	lq.noteDrain(now)
	if !job.queuedAt.IsZero() {
		m.metrics.lanes.add(lq.name, laneWaitNanos, int64(now.Sub(job.queuedAt)))
		job.queuedAt = time.Time{}
	}
	return job
}

// enqueueLocked puts a queued job into its lane (front for requeues —
// the job has waited longest — back for fresh submissions). Caller
// holds m.mu.
func (m *Manager) enqueueLocked(j *Job, front bool) {
	lq := m.lanes[j.lane]
	if front {
		j.queueEl = lq.pending.PushFront(j)
	} else {
		j.queueEl = lq.pending.PushBack(j)
	}
	j.queuedAt = m.now()
}

// pendingLenLocked sums the lane queue depths. Caller holds m.mu.
func (m *Manager) pendingLenLocked() int {
	n := 0
	for _, lq := range m.lanes {
		n += lq.pending.Len()
	}
	return n
}

// Get returns a job by ID. Terminal jobs evicted by the retention
// policy are no longer found.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs snapshots the status of every tracked job, newest first.
func (m *Manager) Jobs() []Status {
	m.mu.Lock()
	list := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		list = append(list, j)
	}
	m.mu.Unlock()
	out := make([]Status, len(list))
	for i, j := range list {
		out[i] = j.Status()
	}
	// Job IDs are zero-padded sequence numbers, so a lexical sort is a
	// chronological sort.
	sort.Slice(out, func(i, k int) bool { return out[i].ID > out[k].ID })
	return out
}

// Cancel stops a job: a queued job is marked canceled and its queue
// slot freed immediately; a locally running job has its context
// cancelled and winds down within one optimizer stage (between
// Monte-Carlo samples at the finest); a remotely leased job has its
// lease revoked, so the worker's next heartbeat or result post is
// refused. Cancelling a terminal job is a no-op.
//
// The returned Status is the job's state as settled by this call,
// snapshotted while the locks are still held: callers must use it
// instead of a follow-up Get, which can miss — the retention sweep may
// evict a just-cancelled terminal job at any moment.
func (m *Manager) Cancel(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	m.cancelLocked(j)
	return j.statusLocked(), nil
}

// cancelLocked applies the cancellation state machine to one job. Both
// m.mu and j.mu are held; CancelBatch shares it with Cancel.
func (m *Manager) cancelLocked(j *Job) {
	switch j.state {
	case StateQueued:
		m.finishLocked(j, StateCanceled, "canceled")
	case StateRunning:
		if j.cancel != nil {
			// The local worker records the terminal state. userCanceled
			// distinguishes this from a Shutdown drain, which also cancels
			// the run context but must requeue instead of settling.
			j.userCanceled = true
			j.cancel()
		} else if j.leaseID != "" {
			m.finishLocked(j, StateCanceled, "canceled")
		}
	}
}

// Close cancels every queued, running and leased job and waits for the
// workers and the sweeper to exit. Queued jobs are marked canceled so
// no submission is ever stranded in StateQueued. Further submissions
// return ErrClosed. For a graceful restart that keeps the queue and the
// leases journaled for recovery instead, use Shutdown.
func (m *Manager) Close() {
	if m.down.Swap(true) {
		return
	}
	m.stop()
	m.wg.Wait()
	// The local pool has drained (running jobs recorded their canceled
	// state before the workers exited); everything still non-terminal is
	// a queued job nobody will run or a remote lease nobody may extend.
	m.mu.Lock()
	for _, j := range m.jobs {
		j.mu.Lock()
		if !j.state.Terminal() {
			m.finishLocked(j, StateCanceled, "canceled: manager closed")
		}
		j.mu.Unlock()
	}
	m.mu.Unlock()
	m.store.Close() //nolint:errcheck // nothing actionable at teardown
}

// worker pulls jobs off the queue until the manager closes.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		job := m.dequeue()
		if job == nil {
			return
		}
		m.run(job)
	}
}

// dequeue blocks until a job is available for the local pool or the
// manager closes (nil). When it takes a job and more remain, it chains
// a wake so sibling workers drain the backlog too.
func (m *Manager) dequeue() *Job {
	for {
		// Stop taking work once the manager is stopping: a graceful drain
		// requeues the interrupted job, and picking it straight back up
		// would requeue it again forever.
		select {
		case <-m.ctx.Done():
			return nil
		default:
		}
		m.mu.Lock()
		job := m.takeLocked("")
		more := m.pendingLenLocked() > 0
		m.mu.Unlock()
		if job != nil {
			if more {
				m.wakeOne()
			}
			return job
		}
		select {
		case <-m.ctx.Done():
			return nil
		case <-m.wake:
		}
	}
}

// sweeper periodically expires silent leases and applies the retention
// TTL. Tests drive the same logic synchronously through sweep().
func (m *Manager) sweeper() {
	defer m.wg.Done()
	interval := m.cfg.LeaseTTL / 4
	if interval < 25*time.Millisecond {
		interval = 25 * time.Millisecond
	}
	if interval > 5*time.Second {
		interval = 5 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.ctx.Done():
			return
		case <-t.C:
			m.sweep(m.now())
			m.maybeSnapshot()
		}
	}
}

// sweep expires leases whose deadline passed (requeueing the job while
// retries remain, failing it after) and evicts terminal jobs past the
// retention TTL.
func (m *Manager) sweep(now time.Time) {
	requeued := false
	m.mu.Lock()
	// Collect first, then settle in sequence order: m.jobs is a map, and
	// requeueing in its random iteration order would scramble the
	// submit-order guarantee the recovery path documents whenever two
	// leases expire in one pass. m.mu is held across both passes, so no
	// job's state can move in between.
	var expired []*Job
	for _, j := range m.jobs {
		j.mu.Lock()
		if j.state == StateRunning && j.leaseID != "" && now.After(j.leaseDeadline) {
			expired = append(expired, j)
		}
		j.mu.Unlock()
	}
	sort.Slice(expired, func(i, k int) bool { return expired[i].seq < expired[k].seq })
	// Walk descending so the PushFront requeues leave the lowest
	// sequence number at the head of its lane — oldest job runs first.
	for i := len(expired) - 1; i >= 0; i-- {
		j := expired[i]
		j.mu.Lock()
		worker := j.worker
		m.metrics.leaseExpiries.Add(1)
		m.metrics.workers.add(worker, workerExpiries, 1)
		if j.requeues < m.cfg.MaxRetries {
			j.requeues++
			j.leaseID = ""
			j.worker = ""
			j.state = StateQueued
			// Requeue at the front: the job has waited longest.
			m.enqueueLocked(j, true)
			m.metrics.requeued.Add(1)
			m.journal(&Record{Kind: RecRequeue, Job: j.id, Requeues: j.requeues, Attempts: j.attempts, Time: now}) //nolint:errcheck // degraded store: logged once
			j.notifyLocked()
			requeued = true
		} else {
			msg := fmt.Sprintf("lease expired (worker %q unresponsive) after %d attempts", worker, j.attempts)
			m.finishLocked(j, StateFailed, msg)
		}
		j.mu.Unlock()
	}
	m.evictLocked(now)
	m.mu.Unlock()
	if requeued {
		m.wakeOne()
	}
}

// finishLocked moves a job to a terminal state: it frees the queue
// slot, settles the counters, stores a done result in the cache, and
// enrolls the job in the retention queue. Both m.mu and j.mu must be
// held.
func (m *Manager) finishLocked(j *Job, state State, errMsg string) {
	j.state = state
	j.err = errMsg
	j.cancel = nil
	j.leaseID = ""
	// Only a run reads the problem, and a terminal job never runs again
	// (recovery re-resolves every job it requeues): release the harness,
	// its pooled testbenches and sweep workspaces now rather than when
	// retention evicts the job.
	j.problem = nil
	j.finished = m.now()
	if j.started.IsZero() {
		j.started = j.finished
	}
	if j.queueEl != nil {
		if lq := m.lanes[j.lane]; lq != nil {
			lq.pending.Remove(j.queueEl)
		}
		j.queueEl = nil
		j.queuedAt = time.Time{}
	}
	// Journal the settlement before the cache record it may cause, so
	// replay settles the job first and the cache entry can reference it.
	m.journal(settleRecord(j, state, j.worker, errMsg)) //nolint:errcheck // degraded store: logged once
	switch state {
	case StateDone:
		m.metrics.noteDone(j.lane, j.result)
		if j.result != nil {
			m.cacheStoreLocked(j.hash, j.result, j.id)
		}
	case StateCanceled:
		m.metrics.canceled.Add(1)
	case StateFailed:
		m.metrics.failed.Add(1)
	}
	if j.batch != "" {
		// Batch members are retained (and evicted) through their batch,
		// which settles once its last member does.
		m.noteBatchSettleLocked(j)
	} else {
		m.order.PushBack(retained{job: j, finished: j.finished})
	}
	j.notifyLocked()
	m.evictLocked(j.finished)
}

// evictLocked drops the oldest terminal jobs past the retention cap and
// (when configured) past the retention TTL. Caller holds m.mu.
func (m *Manager) evictLocked(now time.Time) {
	for m.order.Len() > 0 {
		front := m.order.Front()
		r := front.Value.(retained)
		overCap := m.cfg.RetainJobs >= 0 && m.order.Len() > m.cfg.RetainJobs
		tooOld := m.cfg.RetainFor > 0 && now.Sub(r.finished) > m.cfg.RetainFor
		if !overCap && !tooOld {
			break
		}
		m.order.Remove(front)
		delete(m.jobs, r.job.id)
		m.journal(&Record{Kind: RecJobEvict, Job: r.job.id}) //nolint:errcheck // degraded store: logged once
		m.metrics.jobsEvicted.Add(1)
	}
	m.evictBatchesLocked(now)
}

// run executes one job end to end on the local pool.
func (m *Manager) run(job *Job) {
	ctx, cancel := context.WithCancel(m.ctx)
	defer cancel()

	// The start transition takes m.mu (not just job.mu) so the journal
	// append cannot race a concurrent snapshot of the control plane.
	m.mu.Lock()
	job.mu.Lock()
	if job.state != StateQueued { // canceled between dequeue and here
		job.mu.Unlock()
		m.mu.Unlock()
		return
	}
	job.state = StateRunning
	job.cancel = cancel
	job.attempts++
	job.started = m.now()
	m.journal(&Record{Kind: RecStart, Job: job.id, Attempts: job.attempts, Time: job.started}) //nolint:errcheck // degraded store: logged once
	job.notifyLocked()
	p := job.problem // finishLocked clears it under job.mu
	job.mu.Unlock()
	m.mu.Unlock()

	result, err := m.execute(ctx, job, p)

	m.mu.Lock()
	job.mu.Lock()
	wall := m.now().Sub(job.started)
	switch {
	case err == nil:
		job.result = result
		m.finishLocked(job, StateDone, "")
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		if m.draining.Load() && !job.userCanceled {
			// Graceful drain: the daemon is restarting, not the user
			// cancelling. Put the interrupted job back at the head of the
			// queue, retry budget untouched, so recovery resumes it.
			job.state = StateQueued
			job.cancel = nil
			job.started = time.Time{}
			m.enqueueLocked(job, true)
			m.journal(&Record{Kind: RecRequeue, Job: job.id, Requeues: job.requeues, Attempts: job.attempts, Time: m.now()}) //nolint:errcheck // degraded store: logged once
			job.notifyLocked()
		} else {
			m.finishLocked(job, StateCanceled, "canceled")
		}
	default:
		m.finishLocked(job, StateFailed, err.Error())
	}
	job.mu.Unlock()
	m.mu.Unlock()

	m.metrics.busyNanos.Add(int64(wall))
	m.metrics.wallNanos.Add(int64(wall))
}

// cacheStoreLocked inserts a completed result into the LRU result
// cache, evicting the least recently used entry past the configured
// cap. Insertions and evictions are journaled — the journal, not the
// settlement records, is what drives the cache on replay, so a restart
// never resurrects an evicted result. Caller holds m.mu.
func (m *Manager) cacheStoreLocked(hash string, result *Result, jobID string) {
	if m.cfg.CacheSize < 0 {
		return
	}
	if el, ok := m.cache[hash]; ok {
		ent := el.Value.(*cacheEntry)
		if ent.res != result {
			ent.warm = false // freshly recomputed, no longer a recovered entry
		}
		ent.res = result
		ent.jobID = jobID
		m.lru.MoveToFront(el)
		m.journal(&Record{Kind: RecCacheEntry, Hash: hash, Job: jobID}) //nolint:errcheck // degraded store: logged once
	} else {
		m.cache[hash] = m.lru.PushFront(&cacheEntry{hash: hash, res: result, jobID: jobID})
		m.journal(&Record{Kind: RecCacheEntry, Hash: hash, Job: jobID}) //nolint:errcheck // degraded store: logged once
		for m.lru.Len() > m.cfg.CacheSize {
			back := m.lru.Back()
			ent := back.Value.(*cacheEntry)
			m.lru.Remove(back)
			delete(m.cache, ent.hash)
			m.journal(&Record{Kind: RecCacheEvict, Hash: ent.hash}) //nolint:errcheck // degraded store: logged once
			m.metrics.cacheEvictions.Add(1)
		}
	}
}

// execute runs the job on its resolved problem p through the shared
// execution path and folds the run's reuse counters into the service
// metrics.
func (m *Manager) execute(ctx context.Context, job *Job, p *problem.Problem) (res *Result, err error) {
	defer RecoverRun(&err)
	env := ExecEnv{Progress: job.addProgress}
	if m.evalShared != nil {
		env.EvalCache = m.evalShared.View(job.problemHash)
	}
	res, coreRes, err := Execute(ctx, p, &job.req, env)
	if err != nil {
		return nil, err
	}
	if coreRes != nil {
		m.metrics.noteRun(coreRes)
	}
	return res, nil
}
