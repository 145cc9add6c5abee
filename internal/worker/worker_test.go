package worker

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"specwise/internal/jobs"
	"specwise/internal/problem"
)

// testProblem is the cheap analytic two-spec fixture; evalDelay slows
// each evaluation so lease-loss tests have a run to interrupt.
func testProblem(evalDelay time.Duration) *problem.Problem {
	return &problem.Problem{
		Name: "analytic",
		Specs: []problem.Spec{
			{Name: "f", Kind: problem.GE, Bound: 0},
			{Name: "g", Kind: problem.GE, Bound: 0},
		},
		Design: []problem.Param{
			{Name: "d0", Init: 0, Lo: -1, Hi: 10},
			{Name: "d1", Init: 0, Lo: -1, Hi: 10},
		},
		StatNames: []string{"s0", "s1"},
		Theta:     []problem.OpRange{{Name: "t", Nominal: 0, Lo: -1, Hi: 1}},
		Eval: func(d, s, th []float64) ([]float64, error) {
			if evalDelay > 0 {
				time.Sleep(evalDelay)
			}
			f := d[0] - 2 + 0.5*s[0] - 0.1*th[0]
			g := 6 - d[0] - d[1] + 0.5*s[1] - 0.1*th[0]
			return []float64{f, g}, nil
		},
	}
}

// scriptedServer is a hand-rolled /v1/worker endpoint set with
// programmable failures, for exercising the worker's retry behavior
// without a real manager.
type scriptedServer struct {
	mu             sync.Mutex
	claimFailures  int // serve this many 503s before granting the lease
	resultFailures int // serve this many 500s before accepting
	leaseTTL       float64
	heartbeatCode  int              // 0 = 200
	kind           string           // lease kind; "" = verify
	options        *jobs.RunOptions // lease options; nil = a small verify
	claims         int
	heartbeats     int
	results        int
	fails          int
	failError      string // error of the last failure post
	granted        bool
}

func (s *scriptedServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/worker/claim", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.claims++
		if s.claimFailures > 0 {
			s.claimFailures--
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		if s.granted {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		s.granted = true
		kind := s.kind
		if kind == "" {
			kind = jobs.KindVerify
		}
		opts := jobs.RunOptions{VerifySamples: 50, Seed: jobs.Seed(1)}
		if s.options != nil {
			opts = *s.options
		}
		lease := jobs.Lease{
			JobID:      "job-000001",
			LeaseID:    "lease-000001",
			Kind:       kind,
			Deadline:   time.Now().Add(time.Duration(s.leaseTTL * float64(time.Second))),
			TTLSeconds: s.leaseTTL,
			Request: jobs.Request{
				Kind:    kind,
				Circuit: "analytic",
				Options: opts,
			},
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(lease) //nolint:errcheck
	})
	mux.HandleFunc("POST /v1/worker/jobs/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.heartbeats++
		if s.heartbeatCode != 0 {
			w.WriteHeader(s.heartbeatCode)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"deadline": time.Now().Add(time.Second)}) //nolint:errcheck
	})
	mux.HandleFunc("POST /v1/worker/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.resultFailures > 0 {
			s.resultFailures--
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		s.results++
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /v1/worker/jobs/{id}/fail", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.fails++
		var body leasePost
		json.NewDecoder(r.Body).Decode(&body) //nolint:errcheck
		s.failError = body.Error
		w.WriteHeader(http.StatusOK)
	})
	return mux
}

// The worker must ride out transient HTTP errors — 503s on claim, 500s
// on the result post — with retries and backoff, and still deliver the
// result exactly once.
func TestWorkerRetriesTransientErrors(t *testing.T) {
	script := &scriptedServer{claimFailures: 2, resultFailures: 2, leaseTTL: 5}
	ts := httptest.NewServer(script.handler())
	defer ts.Close()

	err := Run(context.Background(), Config{
		Server:  ts.URL,
		Name:    "w1",
		MaxJobs: 1,
		Poll:    5 * time.Millisecond,
		Backoff: 2 * time.Millisecond,
		Resolve: func(*jobs.Request) (*problem.Problem, error) { return testProblem(0), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	script.mu.Lock()
	defer script.mu.Unlock()
	if script.claims < 3 {
		t.Errorf("claims = %d, want >= 3 (two 503s then success)", script.claims)
	}
	if script.results != 1 {
		t.Errorf("accepted results = %d, want exactly 1", script.results)
	}
	if script.fails != 0 {
		t.Errorf("failure posts = %d, want 0", script.fails)
	}
}

// A run that panics must fail its job with the panic reported, not
// take the worker process down.
func TestWorkerReportsPanicAsFailure(t *testing.T) {
	script := &scriptedServer{leaseTTL: 5}
	ts := httptest.NewServer(script.handler())
	defer ts.Close()

	err := Run(context.Background(), Config{
		Server:  ts.URL,
		Name:    "w1",
		MaxJobs: 1,
		Poll:    5 * time.Millisecond,
		Resolve: func(*jobs.Request) (*problem.Problem, error) { panic("resolver exploded") },
	})
	if err != nil {
		t.Fatal(err)
	}
	script.mu.Lock()
	defer script.mu.Unlock()
	if script.fails != 1 || script.results != 0 {
		t.Fatalf("failure posts = %d, results = %d; want 1 and 0", script.fails, script.results)
	}
	if !strings.Contains(script.failError, "panicked") || !strings.Contains(script.failError, "resolver exploded") {
		t.Fatalf("failure error %q does not report the panic", script.failError)
	}
}

// A heartbeat answered 409 means the lease is gone: the worker must
// abandon the run promptly, post nothing, and leak no goroutines. The
// optimize case is the one that shows an abandoned run's nested pools
// (Monte-Carlo verification, worst-case gradients) drain.
func TestWorkerAbandonsLostLease(t *testing.T) {
	for _, tc := range []struct {
		name      string
		kind      string
		options   *jobs.RunOptions
		evalDelay time.Duration
	}{
		// Slow evaluations: each run far outlives the 60ms lease unless
		// the worker cancels it.
		{name: "verify", evalDelay: 2 * time.Millisecond},
		{name: "optimize", kind: jobs.KindOptimize, options: &jobs.RunOptions{
			ModelSamples:  2000,
			VerifySamples: 100,
			MaxIterations: 3,
			Seed:          jobs.Seed(7),
		}, evalDelay: 500 * time.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			script := &scriptedServer{
				leaseTTL:      0.06,
				heartbeatCode: http.StatusConflict,
				kind:          tc.kind,
				options:       tc.options,
			}
			ts := httptest.NewServer(script.handler())
			defer ts.Close()

			before := runtime.NumGoroutine()
			start := time.Now()
			err := Run(context.Background(), Config{
				Server:  ts.URL,
				Name:    "w1",
				MaxJobs: 1,
				Poll:    5 * time.Millisecond,
				Backoff: 2 * time.Millisecond,
				Resolve: func(*jobs.Request) (*problem.Problem, error) { return testProblem(tc.evalDelay), nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			script.mu.Lock()
			if script.heartbeats == 0 {
				t.Error("worker never heartbeated")
			}
			if script.results != 0 || script.fails != 0 {
				t.Errorf("abandoned run still reported (results %d, fails %d)", script.results, script.fails)
			}
			script.mu.Unlock()
			if took := time.Since(start); took > 5*time.Second {
				t.Errorf("abandoning the lease took %v", took)
			}

			// Every pool of the abandoned run must be drained once Run
			// returns; poll briefly since runtime bookkeeping can lag the
			// pools' WaitGroups.
			deadline := time.Now().Add(2 * time.Second)
			for {
				if n := runtime.NumGoroutine(); n <= before+2 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// A rejected token is a configuration error, not a transient one: the
// loop must exit instead of hammering the server.
func TestWorkerFatalOnBadToken(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusUnauthorized)
	}))
	defer ts.Close()

	err := Run(context.Background(), Config{Server: ts.URL, Name: "w1", Token: "wrong"})
	if err == nil || !strings.Contains(err.Error(), "token") {
		t.Fatalf("err = %v, want fatal token error", err)
	}
}

// An execution error is reported through the fail endpoint.
func TestWorkerReportsExecutionFailure(t *testing.T) {
	script := &scriptedServer{leaseTTL: 5}
	ts := httptest.NewServer(script.handler())
	defer ts.Close()

	p := testProblem(0)
	p.Eval = func(d, s, th []float64) ([]float64, error) {
		return nil, context.DeadlineExceeded // any deterministic error
	}
	err := Run(context.Background(), Config{
		Server:  ts.URL,
		Name:    "w1",
		MaxJobs: 1,
		Poll:    5 * time.Millisecond,
		Backoff: 2 * time.Millisecond,
		Resolve: func(*jobs.Request) (*problem.Problem, error) { return p, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	script.mu.Lock()
	defer script.mu.Unlock()
	if script.fails != 1 || script.results != 0 {
		t.Errorf("fails = %d results = %d, want 1 and 0", script.fails, script.results)
	}
}
