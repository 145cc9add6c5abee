// Package jobs turns the specwise optimizer into an asynchronous job
// service: submitted yield-analysis and yield-optimization requests are
// enqueued into a bounded queue, executed by a worker pool (each worker
// running the core optimizer with context cancellation and live progress
// reporting), and kept in an in-memory store with a deterministic
// content-hash result cache — identical (problem, seed, options)
// submissions are answered instantly. The paper farmed its verification
// Monte-Carlo out to a cluster of five machines; this package gives
// that shape two interchangeable worker pools: in-process goroutines,
// and remote pull-workers that claim jobs under expiring leases over
// the HTTP layer on top (internal/server, cmd/specwise-worker). The
// store applies a retention policy (cap + TTL) to terminal jobs so the
// job map stays bounded under sustained traffic.
package jobs

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"specwise/internal/core"
	"specwise/internal/problem"
	"specwise/internal/report"
	"specwise/internal/wcd"
)

// Job kinds.
const (
	// KindOptimize runs the full Fig.-6 yield optimization.
	KindOptimize = "optimize"
	// KindVerify runs the Sec.-2 Monte-Carlo yield verification at the
	// problem's initial design.
	KindVerify = "verify"
)

// Priority lanes. The queue is split so cheap Monte-Carlo verifies keep
// flowing underneath long optimize runs; the weighted round-robin drain
// (see Manager.takeLocked) guarantees neither lane starves.
const (
	// LaneVerify is the cheap lane: quick Monte-Carlo yield checks.
	LaneVerify = "verify"
	// LaneOptimize is the heavy lane: full yield-optimization runs.
	LaneOptimize = "optimize"
)

// Lanes lists the known lanes in drain-priority order (the weighted
// round-robin cycle starts with the cheap lane).
func Lanes() []string { return []string{LaneVerify, LaneOptimize} }

// ValidLane reports whether name names a known priority lane.
func ValidLane(name string) bool { return name == LaneVerify || name == LaneOptimize }

// CheckEvalCacheSize reports why a shared evaluation-cache capacity
// cannot be used: it is negative, or nonzero while the shared cache is
// off, where nothing would read it. Zero selects the default capacity.
func CheckEvalCacheSize(size int, shared bool) error {
	switch {
	case size < 0:
		return fmt.Errorf("-eval-cache-size %d is negative (0 selects the default)", size)
	case size > 0 && !shared:
		return fmt.Errorf("-eval-cache-size %d requires -shared-eval-cache", size)
	}
	return nil
}

// RunOptions is the JSON-facing subset of core.Options a request may set.
// Zero values fall back to the optimizer's paper defaults.
type RunOptions struct {
	// Algorithm selects the search backend for optimize jobs; empty means
	// the default (feasguided). The omitempty marshalling keeps the
	// content hash of algorithm-less requests byte-identical to the
	// pre-field encoding, so existing cache entries and journaled
	// requests stay reachable.
	Algorithm     string `json:"algorithm,omitempty"`
	ModelSamples  int    `json:"modelSamples,omitempty"`
	VerifySamples int    `json:"verifySamples,omitempty"`
	MaxIterations int    `json:"maxIterations,omitempty"`
	// Seed is a pointer so "unset" (nil, the paper's default stream) is
	// distinguishable from an explicit seed 0. The omitempty marshalling
	// keeps the content hash of seedless and nonzero-seed requests
	// byte-identical to the pre-pointer encoding, so existing cache
	// entries stay reachable.
	Seed *uint64 `json:"seed,omitempty"`
	// WCSeed pins the worst-case search's restart stream independently
	// of the run seed, making the WC analysis a pure function of
	// (design, spec). Seed sweeps set it so members differ only in their
	// sampling streams — and, under the shared evaluation cache, reuse
	// each other's worst-case simulations. nil keeps the historical
	// derivation from the run seed (and the historical content hash).
	WCSeed             *uint64 `json:"wcSeed,omitempty"`
	NoConstraints      bool    `json:"noConstraints,omitempty"`
	LinearizeAtNominal bool    `json:"linearizeAtNominal,omitempty"`
	NoMirrorSpecs      bool    `json:"noMirrorSpecs,omitempty"`
	SkipVerify         bool    `json:"skipVerify,omitempty"`
	LHS                bool    `json:"lhs,omitempty"`
	QuadraticSpecs     bool    `json:"quadraticSpecs,omitempty"`
	RefineThetaPasses  int     `json:"refineThetaPasses,omitempty"`
	// VerifyWorkers and SweepWorkers are retired: they sized the
	// Monte-Carlo verification pool, which the process-wide compute
	// scheduler now sizes alone, and the AC-sweep fan-out, which is gone
	// (results never depended on them). They still decode, and stay in the encoding so
	// requests carrying them keep their content hash; Core and Execute
	// ignore them. Verify jobs accept verifyWorkers, as they always did,
	// and reject sweepWorkers like any other optimizer-only option.
	VerifyWorkers int `json:"verifyWorkers,omitempty"`
	SweepWorkers  int `json:"sweepWorkers,omitempty"`
	// Speculate and SpecWorkers are retired: they configured a
	// predict-ahead evaluation pipeline that no longer exists. They still
	// decode, because journaled requests and existing clients carry them,
	// and they stay in the encoding so those requests keep their content
	// hash. Optimize jobs ignore them; verify jobs reject them like any
	// other optimizer-only option.
	Speculate   *bool `json:"speculate,omitempty"`
	SpecWorkers int   `json:"specWorkers,omitempty"`
	// Lane overrides the priority-lane classification that normally
	// follows the request kind (verify jobs ride the cheap lane, optimize
	// jobs the heavy one) — e.g. a known-cheap single-iteration optimize
	// may ask for the verify lane. Lanes are pure scheduling: results are
	// bit-identical whichever lane runs a job, and the omitempty
	// marshalling keeps lane-less request hashes byte-identical to the
	// pre-field encoding so existing cache entries stay reachable.
	Lane string `json:"lane,omitempty"`
}

// Seed returns a pointer to v, for building RunOptions literals.
func Seed(v uint64) *uint64 { return &v }

// seed resolves the request seed: nil means the optimizer's default
// stream, any explicit value — including zero — is honored as-is.
func (o RunOptions) seed() uint64 {
	if o.Seed != nil {
		return *o.Seed
	}
	return core.DefaultSeed
}

// Core converts the wire options into optimizer options.
func (o RunOptions) Core() core.Options {
	var wc wcd.Options
	if o.WCSeed != nil {
		wc.Seed = *o.WCSeed
		if wc.Seed == 0 {
			wc.Seed = 0x5eed // explicit 0 pins the WC module's default stream
		}
	}
	return core.Options{
		Algorithm:          o.Algorithm,
		WC:                 wc,
		ModelSamples:       o.ModelSamples,
		VerifySamples:      o.VerifySamples,
		MaxIterations:      o.MaxIterations,
		Seed:               o.seed(),
		HasSeed:            true,
		NoConstraints:      o.NoConstraints,
		LinearizeAtNominal: o.LinearizeAtNominal,
		NoMirrorSpecs:      o.NoMirrorSpecs,
		SkipVerify:         o.SkipVerify,
		LHS:                o.LHS,
		QuadraticSpecs:     o.QuadraticSpecs,
		RefineThetaPasses:  o.RefineThetaPasses,
	}
}

// Request is one job submission: a kind, a problem (a built-in circuit
// name or an inline yieldspec JSON document), and run options.
type Request struct {
	Kind    string          `json:"kind,omitempty"`
	Circuit string          `json:"circuit,omitempty"`
	Spec    json.RawMessage `json:"spec,omitempty"`
	Options RunOptions      `json:"options"`
}

// Request option caps enforced by Normalize.
const (
	maxSamples = 1_000_000 // modelSamples, verifySamples
	maxPasses  = 1_000     // maxIterations, refineThetaPasses
)

// Normalize fills defaults and checks structural validity, including
// that every set option is one the requested kind (and algorithm) can
// honor — a verify job that names an optimizer knob is rejected up
// front rather than silently ignoring it.
func (r *Request) Normalize() error {
	switch r.Kind {
	case "":
		r.Kind = KindOptimize
	case KindOptimize, KindVerify:
	default:
		return fmt.Errorf("jobs: unknown kind %q (want %q or %q)", r.Kind, KindOptimize, KindVerify)
	}
	r.Circuit = strings.ToLower(strings.TrimSpace(r.Circuit))
	hasCircuit := r.Circuit != ""
	hasSpec := len(r.Spec) > 0 && string(r.Spec) != "null"
	if hasCircuit == hasSpec {
		return fmt.Errorf("jobs: exactly one of circuit or spec is required")
	}
	// The upper caps keep one request from asking for an allocation or a
	// run no daemon could serve (a sample count near 1<<50 panics in
	// makeslice). They sit far above anything the paper's experiments
	// use (50,000 samples, 8 passes).
	for _, c := range []struct {
		name string
		v    int
		max  int
	}{
		{"modelSamples", r.Options.ModelSamples, maxSamples},
		{"verifySamples", r.Options.VerifySamples, maxSamples},
		{"maxIterations", r.Options.MaxIterations, maxPasses},
		{"refineThetaPasses", r.Options.RefineThetaPasses, maxPasses},
	} {
		if c.v < 0 {
			return fmt.Errorf("jobs: options.%s must not be negative (got %d)", c.name, c.v)
		}
		if c.v > c.max {
			return fmt.Errorf("jobs: options.%s must be at most %d (got %d)", c.name, c.max, c.v)
		}
	}
	r.Options.Algorithm = strings.ToLower(strings.TrimSpace(r.Options.Algorithm))
	r.Options.Lane = strings.ToLower(strings.TrimSpace(r.Options.Lane))
	if r.Options.Lane != "" && !ValidLane(r.Options.Lane) {
		return fmt.Errorf("jobs: unknown lane %q (want %q or %q)", r.Options.Lane, LaneVerify, LaneOptimize)
	}
	switch r.Kind {
	case KindOptimize:
		if !core.KnownBackend(r.Options.Algorithm) {
			return fmt.Errorf("jobs: unknown search algorithm %q (registered: %s)",
				r.Options.Algorithm, strings.Join(core.Backends(), ", "))
		}
	case KindVerify:
		// A verify job runs the Monte-Carlo yield check at the initial
		// design: only verifySamples and seed take effect (and the retired
		// verifyWorkers is still accepted). Every optimizer-only option
		// is a request-level contradiction.
		if ignored := r.Options.verifyIgnored(); len(ignored) > 0 {
			return fmt.Errorf("jobs: kind %q cannot honor option(s) %s (verify runs only the Monte-Carlo check; use kind %q)",
				KindVerify, strings.Join(ignored, ", "), KindOptimize)
		}
	}
	return nil
}

// lane classifies a normalized request into its priority lane: an
// explicit options.lane wins, otherwise the kind decides — verify jobs
// ride the cheap lane, optimize jobs the heavy one.
func (r *Request) lane() string {
	if r.Options.Lane != "" {
		return r.Options.Lane
	}
	if r.Kind == KindVerify {
		return LaneVerify
	}
	return LaneOptimize
}

// verifyIgnored lists the set options a verify-kind job would silently
// ignore, by their wire names. options.lane is absent on purpose: the
// lane is honored by every kind.
func (o RunOptions) verifyIgnored() []string {
	var bad []string
	add := func(set bool, name string) {
		if set {
			bad = append(bad, name)
		}
	}
	add(o.Algorithm != "", "algorithm")
	add(o.ModelSamples != 0, "modelSamples")
	add(o.MaxIterations != 0, "maxIterations")
	add(o.WCSeed != nil, "wcSeed")
	add(o.NoConstraints, "noConstraints")
	add(o.LinearizeAtNominal, "linearizeAtNominal")
	add(o.NoMirrorSpecs, "noMirrorSpecs")
	add(o.SkipVerify, "skipVerify")
	add(o.LHS, "lhs")
	add(o.QuadraticSpecs, "quadraticSpecs")
	add(o.RefineThetaPasses != 0, "refineThetaPasses")
	add(o.SweepWorkers != 0, "sweepWorkers")
	add(o.Speculate != nil, "speculate")
	add(o.SpecWorkers != 0, "specWorkers")
	return bad
}

// Hash returns the deterministic content hash that keys the result
// cache: two requests hash equally iff they describe the same problem,
// kind, seed and options. The inline spec is compacted first so
// whitespace-only differences do not defeat the cache.
func (r *Request) Hash() (string, error) {
	norm := *r
	if len(norm.Spec) > 0 {
		var buf bytes.Buffer
		if err := json.Compact(&buf, norm.Spec); err != nil {
			return "", fmt.Errorf("jobs: spec is not valid JSON: %w", err)
		}
		norm.Spec = json.RawMessage(buf.Bytes())
	}
	blob, err := json.Marshal(&norm)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// ProblemHash returns the deterministic hash of the *problem alone* —
// circuit name or compacted inline spec, nothing else. It is coarser
// than Hash(): sweep members that differ only in kind, seed or options
// share a problem hash, which is exactly the granularity the shared
// evaluation cache keys on (the evaluation is a pure function of
// (problem, d, s, θ), independent of how the optimizer is driven).
func (r *Request) ProblemHash() (string, error) {
	var blob []byte
	if r.Circuit != "" {
		blob = []byte("circuit:" + r.Circuit)
	} else {
		var buf bytes.Buffer
		if err := json.Compact(&buf, r.Spec); err != nil {
			return "", fmt.Errorf("jobs: spec is not valid JSON: %w", err)
		}
		blob = append([]byte("spec:"), buf.Bytes()...)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// State is a job's lifecycle position.
type State string

// Job lifecycle states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state can no longer change.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// ProgressEntry is one recorded optimizer milestone.
type ProgressEntry struct {
	Time       time.Time `json:"time"`
	Stage      string    `json:"stage"`
	Iteration  int       `json:"iteration"`
	Attempt    int       `json:"attempt"`
	ModelYield float64   `json:"modelYield"`
	MCYield    *float64  `json:"mcYield,omitempty"`
}

// Result is a finished job's payload; exactly one branch is set,
// matching the request kind.
type Result struct {
	Kind         string               `json:"kind"`
	Optimization *report.Result       `json:"optimization,omitempty"`
	Verification *report.Verification `json:"verification,omitempty"`
}

// Status is the JSON-friendly snapshot served by GET /v1/jobs/{id}.
type Status struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State State  `json:"state"`
	// Lane is the priority lane the job queues in (see LaneVerify,
	// LaneOptimize).
	Lane   string `json:"lane,omitempty"`
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
	// Batch names the owning batch submission, if any.
	Batch string `json:"batch,omitempty"`
	// Worker names the remote pull-worker holding (or last holding) the
	// job's lease; empty for jobs run by the in-process pool.
	Worker string `json:"worker,omitempty"`
	// Attempts counts execution starts: 1 for a job that ran once, more
	// when expired leases requeued it.
	Attempts    int             `json:"attempts,omitempty"`
	EnqueuedAt  time.Time       `json:"enqueuedAt"`
	StartedAt   *time.Time      `json:"startedAt,omitempty"`
	FinishedAt  *time.Time      `json:"finishedAt,omitempty"`
	WallSeconds float64         `json:"wallSeconds,omitempty"`
	Progress    []ProgressEntry `json:"progress,omitempty"`
}

// Job is one tracked submission. All mutable fields are guarded by mu;
// accessors take snapshots so HTTP handlers never race the worker.
type Job struct {
	id   string
	seq  int // manager sequence number; journaled, restored on recovery
	hash string
	// problemHash keys the shared evaluation cache; derived from the
	// request (never journaled — recovery recomputes it).
	problemHash string
	// batch is the owning batch ID, empty for standalone submissions.
	// Batch members are retained through their batch, not the per-job
	// retention queue. Immutable after submit (cleared only for orphans
	// of an uncommitted batch during recovery, before concurrency).
	batch string
	// lane names the priority lane the job queues in; classified at
	// submit (journaled, restored on recovery), immutable after.
	lane string
	req  Request

	// problem is resolved at submit time (or on recovery) and released
	// once the job settles terminal; guarded by mu once the job is
	// visible to the workers.
	problem *problem.Problem

	mu     sync.Mutex
	state  State
	err    string
	cached bool
	cancel func() // non-nil while running on the local pool
	// userCanceled marks a Cancel-initiated context cancellation, as
	// opposed to a Shutdown drain (which requeues instead of settling).
	userCanceled bool
	progress     []ProgressEntry
	result       *Result
	// watch is closed (and replaced lazily) whenever the job's observable
	// state changes — progress, lifecycle transitions, lease grants. SSE
	// streams park on it instead of polling. nil until someone watches.
	watch chan struct{}

	// Queue membership: non-nil while the job waits in its lane queue,
	// removed eagerly on cancellation so the slot frees immediately.
	// Guarded by Manager.mu (all queue surgery holds it), like queuedAt,
	// the enqueue time the lane wait metric measures from.
	queueEl  *list.Element
	queuedAt time.Time

	// Lease bookkeeping for remote pull-workers (empty for local runs).
	worker        string
	leaseID       string
	leaseSeq      int // manager lease counter at grant time (journaled)
	leaseDeadline time.Time
	attempts      int // execution starts (local runs + remote claims)
	requeues      int // lease expiries that sent the job back to the queue

	enqueued time.Time
	started  time.Time
	finished time.Time
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Hash returns the request's content hash (the cache key).
func (j *Job) Hash() string { return j.hash }

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the payload and whether the job is done.
func (j *Job) Result() (*Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state == StateDone
}

// Err returns the failure message, if any.
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Status snapshots the job for serialization.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// statusLocked builds the snapshot; j.mu is held. Cancel returns it
// from inside the locked region so the HTTP layer never needs a second
// Get that could race the retention sweep.
func (j *Job) statusLocked() Status {
	st := Status{
		ID:         j.id,
		Kind:       j.req.Kind,
		State:      j.state,
		Lane:       j.lane,
		Cached:     j.cached,
		Error:      j.err,
		Batch:      j.batch,
		Worker:     j.worker,
		Attempts:   j.attempts,
		EnqueuedAt: j.enqueued,
		Progress:   append([]ProgressEntry(nil), j.progress...),
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
		st.WallSeconds = j.finished.Sub(j.started).Seconds()
	} else if !j.started.IsZero() {
		st.WallSeconds = time.Since(j.started).Seconds()
	}
	return st
}

// addProgress appends one milestone; called from the optimizer goroutine.
func (j *Job) addProgress(e core.ProgressEvent) {
	entry := ProgressEntry{
		Time:       time.Now(),
		Stage:      e.Stage,
		Iteration:  e.Iteration,
		Attempt:    e.Attempt,
		ModelYield: e.ModelYield,
	}
	if e.MCYield >= 0 {
		v := e.MCYield
		entry.MCYield = &v
	}
	j.mu.Lock()
	j.progress = append(j.progress, entry)
	j.notifyLocked()
	j.mu.Unlock()
}

// Changed returns a channel that closes on the job's next observable
// change (progress entry, state transition, lease grant). Watchers must
// obtain the channel BEFORE snapshotting Status: any change after the
// snapshot closes the returned channel, so no update can fall between
// look and sleep.
func (j *Job) Changed() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.watch == nil {
		j.watch = make(chan struct{})
	}
	return j.watch
}

// notifyLocked wakes every watcher; j.mu is held.
func (j *Job) notifyLocked() {
	if j.watch != nil {
		close(j.watch)
		j.watch = nil
	}
}
