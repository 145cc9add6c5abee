// Package worker implements the remote pull-worker loop of the
// specwise job service: poll a specwised instance for work over the
// /v1/worker lease protocol, run claimed jobs with the same
// core/wcd execution path the in-process pool uses (so results are
// bit-identical whichever pool runs a job), heartbeat the lease while
// executing, and report the result or failure back — with exponential
// backoff on transient HTTP errors. cmd/specwise-worker is the thin
// flag wrapper around Run; tests drive Run against httptest servers.
package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"specwise/internal/evalcache"
	"specwise/internal/jobs"
	"specwise/internal/problem"
)

// Config parameterizes one worker process.
type Config struct {
	// Server is the base URL of the specwised instance, e.g.
	// "http://localhost:8080".
	Server string
	// Token is the worker bearer token (matching specwised
	// -worker-token); empty when the server runs open.
	Token string
	// Name identifies this worker in leases and per-shard metrics.
	Name string
	// Lane restricts claims to one priority lane ("verify" or
	// "optimize"); empty claims from any lane under the server's
	// weighted round-robin. Lets operators dedicate cheap machines to
	// the interactive verify lane.
	Lane string
	// Poll is the idle wait between claim attempts when the queue is
	// empty (default 500ms).
	Poll time.Duration
	// Backoff is the initial backoff after a transient HTTP error; it
	// doubles per consecutive failure up to MaxBackoff (defaults 200ms
	// and 10s).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// MaxJobs exits the loop after that many executed jobs (0 = run
	// until the context is canceled). Used by smoke tests and batch
	// machines.
	MaxJobs int
	// SharedEvalCache enables this worker's process-local shared
	// evaluation cache: jobs claimed by this process on the same problem
	// (the lease's problemHash) reuse each other's simulations, the
	// worker-side counterpart of the manager's -shared-eval-cache shard.
	// Behaviour-preserving — bit-exact keying keeps results identical.
	SharedEvalCache bool
	// EvalCacheSize caps the shared cache (0 selects
	// evalcache.DefaultMaxEntries); ignored without SharedEvalCache.
	EvalCacheSize int
	// Client overrides the HTTP client (default: 30s timeout).
	Client *http.Client
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
	// Resolve overrides problem resolution; tests inject synthetic
	// problems. nil uses jobs.ResolveProblem — the same resolver the
	// manager uses, which is what keeps the pools interchangeable.
	Resolve func(*jobs.Request) (*problem.Problem, error)
}

func (c *Config) defaults() error {
	if c.Server == "" {
		return errors.New("worker: server URL required")
	}
	if c.Name == "" {
		return errors.New("worker: worker name required")
	}
	if c.Poll <= 0 {
		c.Poll = 500 * time.Millisecond
	}
	if c.Backoff <= 0 {
		c.Backoff = 200 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 10 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Resolve == nil {
		c.Resolve = jobs.ResolveProblem
	}
	return nil
}

// errFatal marks errors that polling cannot fix (bad token, bad
// request shape): the loop exits instead of hammering the server.
type errFatal struct{ err error }

func (e errFatal) Error() string { return e.err.Error() }
func (e errFatal) Unwrap() error { return e.err }

// Run polls the server for jobs until ctx is canceled (returning
// ctx.Err()), cfg.MaxJobs jobs have executed (returning nil), or a
// fatal protocol error occurs (returning it).
func Run(ctx context.Context, cfg Config) error {
	if err := cfg.defaults(); err != nil {
		return err
	}
	// Keep-alive connections to the server are useless once the worker
	// stops; dropping them here lets their transport goroutines exit.
	defer cfg.Client.CloseIdleConnections()
	var shared *evalcache.Shared
	if cfg.SharedEvalCache {
		shared = evalcache.NewShared(cfg.EvalCacheSize)
	}
	executed := 0
	backoff := cfg.Backoff
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lease, err := claim(ctx, &cfg)
		if err != nil {
			var fatal errFatal
			if errors.As(err, &fatal) {
				return fmt.Errorf("worker %s: %w", cfg.Name, err)
			}
			cfg.Logf("claim failed: %v (retrying in %v)", err, backoff)
			if !sleep(ctx, backoff) {
				return ctx.Err()
			}
			backoff = min(backoff*2, cfg.MaxBackoff)
			continue
		}
		backoff = cfg.Backoff // transport healthy again
		if lease == nil {
			if !sleep(ctx, cfg.Poll) {
				return ctx.Err()
			}
			continue
		}
		cfg.Logf("claimed %s (%s, lease %s)", lease.JobID, lease.Kind, lease.LeaseID)
		runLease(ctx, &cfg, lease, shared)
		executed++
		if cfg.MaxJobs > 0 && executed >= cfg.MaxJobs {
			return nil
		}
	}
}

// runLease executes one claimed job under its lease: a heartbeat
// goroutine keeps the lease alive (and cancels the run when the lease
// is lost), then the result or failure is posted back with retries.
func runLease(ctx context.Context, cfg *Config, lease *jobs.Lease, shared *evalcache.Shared) {
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var hb sync.WaitGroup
	hb.Add(1)
	go func() {
		defer hb.Done()
		heartbeatLoop(jctx, cfg, lease, cancel)
	}()

	var res *jobs.Result
	p, err := cfg.Resolve(&lease.Request)
	if err == nil {
		var env jobs.ExecEnv
		if shared != nil && lease.ProblemHash != "" {
			// This worker's local shard of the sweep: jobs claimed here on
			// the same problem reuse each other's simulations.
			env.EvalCache = shared.View(lease.ProblemHash)
		}
		res, _, err = jobs.Execute(jctx, p, &lease.Request, env)
	}
	interrupted := jctx.Err() != nil // read before cancel() taints it
	cancel()                         // stop the heartbeats before reporting
	hb.Wait()

	if err != nil && interrupted {
		// Either the lease was revoked mid-run (expired or the job was
		// canceled — the manager has moved on) or this worker is
		// shutting down (the lease will expire and requeue the job).
		// Nothing useful to report either way.
		cfg.Logf("%s: run interrupted (%v), dropping", lease.JobID, jctx.Err())
		return
	}
	if err != nil {
		cfg.Logf("%s: execution failed: %v", lease.JobID, err)
		report(ctx, cfg, lease, "fail", leasePost{Lease: lease.LeaseID, Error: err.Error()})
		return
	}
	report(ctx, cfg, lease, "result", leasePost{Lease: lease.LeaseID, Result: res})
}

// heartbeatLoop extends the lease every TTL/3 until the job context
// ends; a definitive lease-lost answer cancels the run.
func heartbeatLoop(jctx context.Context, cfg *Config, lease *jobs.Lease, cancel context.CancelFunc) {
	interval := time.Duration(lease.TTLSeconds * float64(time.Second) / 3)
	if interval < 20*time.Millisecond {
		interval = 20 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-jctx.Done():
			return
		case <-t.C:
			status, err := post(jctx, cfg, "/v1/worker/jobs/"+lease.JobID+"/heartbeat",
				leasePost{Lease: lease.LeaseID}, nil)
			switch {
			case err != nil:
				// Transient transport trouble: keep executing; the
				// lease TTL is the protocol's real safety net.
				cfg.Logf("%s: heartbeat failed: %v", lease.JobID, err)
			case status == http.StatusConflict || status == http.StatusNotFound:
				cfg.Logf("%s: lease lost, abandoning job", lease.JobID)
				cancel()
				return
			}
		}
	}
}

// report posts the terminal verdict, retrying transient failures with
// exponential backoff for up to one lease TTL. The window is what makes
// lease reattach work end to end: a daemon restarting under a
// persistent store is unreachable for a moment, and a worker that keeps
// retrying within the TTL lands its result on the recovered lease
// instead of forcing a requeue and a re-execution. A 409 means the
// lease is definitively gone and the verdict is dropped.
func report(ctx context.Context, cfg *Config, lease *jobs.Lease, verb string, body leasePost) {
	window := time.Duration(lease.TTLSeconds * float64(time.Second))
	if window < 2*time.Second {
		window = 2 * time.Second
	}
	deadline := time.Now().Add(window)
	backoff := cfg.Backoff
	for attempt := 1; ; attempt++ {
		status, err := post(ctx, cfg, "/v1/worker/jobs/"+lease.JobID+"/"+verb, body, nil)
		switch {
		case err == nil && status < 300:
			return
		case err == nil && !transientStatus(status):
			cfg.Logf("%s: %s rejected with %d, dropping", lease.JobID, verb, status)
			return
		}
		if time.Now().After(deadline) {
			break
		}
		cfg.Logf("%s: posting %s failed (attempt %d, status %d, err %v); retrying in %v",
			lease.JobID, verb, attempt, status, err, backoff)
		if !sleep(ctx, backoff) {
			return
		}
		backoff = min(backoff*2, cfg.MaxBackoff)
	}
	cfg.Logf("%s: giving up posting %s; the lease will expire and requeue", lease.JobID, verb)
}

// leasePost is the uniform worker POST body (heartbeat/result/fail).
type leasePost struct {
	Worker string       `json:"worker,omitempty"`
	Lane   string       `json:"lane,omitempty"`
	Lease  string       `json:"lease,omitempty"`
	Result *jobs.Result `json:"result,omitempty"`
	Error  string       `json:"error,omitempty"`
}

// claim asks for work: (nil, nil) means an empty queue.
func claim(ctx context.Context, cfg *Config) (*jobs.Lease, error) {
	var lease jobs.Lease
	status, err := post(ctx, cfg, "/v1/worker/claim", leasePost{Worker: cfg.Name, Lane: cfg.Lane}, &lease)
	switch {
	case err != nil:
		return nil, err
	case status == http.StatusNoContent:
		return nil, nil
	case status == http.StatusUnauthorized || status == http.StatusForbidden:
		return nil, errFatal{fmt.Errorf("claim refused with %d: check -token", status)}
	case status != http.StatusOK:
		return nil, fmt.Errorf("claim: unexpected status %d", status)
	}
	return &lease, nil
}

// post sends one authenticated JSON POST and decodes a 2xx body into
// out (when non-nil). Transport errors come back as err; HTTP-level
// refusals as the status code.
func post(ctx context.Context, cfg *Config, path string, body any, out any) (int, error) {
	blob, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.Server+path, bytes.NewReader(blob))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if cfg.Token != "" {
		req.Header.Set("Authorization", "Bearer "+cfg.Token)
	}
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s response: %w", path, err)
		}
		return resp.StatusCode, nil
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
	return resp.StatusCode, nil
}

// transientStatus reports whether a status is worth retrying.
func transientStatus(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests || status == http.StatusRequestTimeout
}

// sleep waits d or until ctx ends, reporting whether the full wait
// elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
