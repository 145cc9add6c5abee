package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"specwise/internal/jobs"
	"specwise/internal/server"
	"specwise/internal/worker"
)

const testToken = "hunter2"

// newRemoteServer builds a remote-only manager (zero local workers)
// behind a token-gated httptest server.
func newRemoteServer(t *testing.T, cfg jobs.Config) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	cfg.RemoteOnly = true
	m := jobs.New(cfg)
	ts := httptest.NewServer(server.New(m, server.WithWorkerToken(testToken)))
	t.Cleanup(func() {
		ts.Close()
		m.Close()
	})
	return ts, m
}

// startWorkers launches n in-process "remote" pull-workers against the
// server and returns a stop function that waits them out.
func startWorkers(t *testing.T, ts *httptest.Server, n int) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		name := "w" + string(rune('1'+i))
		go func() {
			defer wg.Done()
			err := worker.Run(ctx, worker.Config{
				Server:  ts.URL,
				Token:   testToken,
				Name:    name,
				Poll:    10 * time.Millisecond,
				Backoff: 10 * time.Millisecond,
			})
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("worker %s exited: %v", name, err)
			}
		}()
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

// workerPost sends one authenticated worker-protocol POST and returns
// the status code plus decoded body (when 200 with out != nil).
func workerPost(t *testing.T, ts *httptest.Server, path, token, body string, out any) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", path, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
	}
	return resp.StatusCode
}

// The acceptance test for the pull protocol: a manager with ZERO local
// workers completes an OTA optimize job through two remote pull-workers
// over httptest, and the result envelope is bit-identical to the same
// request run on the in-process pool — remote and local pools are
// interchangeable.
func TestRemotePoolMatchesLocalPool(t *testing.T) {
	ts, _ := newRemoteServer(t, jobs.Config{LeaseTTL: 2 * time.Second})
	stop := startWorkers(t, ts, 2)
	defer stop()

	code, ack := postJob(t, ts, otaBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %v", code, ack)
	}
	id := ack["id"].(string)
	st := pollDone(t, ts, id, 120*time.Second)
	if st.State != jobs.StateDone {
		t.Fatalf("remote job ended %s (error %q)", st.State, st.Error)
	}
	if st.Worker != "w1" && st.Worker != "w2" {
		t.Errorf("job not attributed to a remote worker: %+v", st)
	}
	var remote jobs.Result
	if code := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result", &remote); code != http.StatusOK {
		t.Fatalf("result: code %d", code)
	}

	// The same request on a plain in-process pool.
	local := jobs.New(jobs.Config{Workers: 2})
	defer local.Close()
	var req jobs.Request
	if err := json.Unmarshal([]byte(otaBody), &req); err != nil {
		t.Fatal(err)
	}
	job, err := local.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(120 * time.Second)
	for job.State() != jobs.StateDone {
		if time.Now().After(deadline) {
			t.Fatalf("local job stuck in %s", job.State())
		}
		time.Sleep(10 * time.Millisecond)
	}
	localRes, _ := job.Result()

	// Byte-equal after zeroing the wall-clock-dependent perf fields.
	remote.Optimization.StripVolatile()
	localRes.Optimization.StripVolatile()
	a, _ := json.Marshal(remote)
	b, _ := json.Marshal(localRes)
	if string(a) != string(b) {
		t.Errorf("remote and local results differ:\nremote: %s\nlocal:  %s", a, b)
	}

	// The per-worker metric shards surfaced in /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "specwised_remote_worker_claims_total") {
		t.Errorf("metrics missing per-worker claim shard:\n%s", body)
	}
	if !strings.Contains(string(body), "specwised_jobs_tracked") {
		t.Errorf("metrics missing jobs_tracked gauge:\n%s", body)
	}
}

// A worker that claims a job and dies: the lease expires on the TTL,
// the job is requeued, a live worker completes it exactly once, and the
// dead worker's late post is refused with 409.
func TestKilledWorkerLeaseExpiresAndRequeues(t *testing.T) {
	ts, _ := newRemoteServer(t, jobs.Config{LeaseTTL: 200 * time.Millisecond, MaxRetries: 3})

	code, ack := postJob(t, ts, `{"kind": "verify", "circuit": "ota",
	  "options": {"verifySamples": 40, "seed": 3}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	id := ack["id"].(string)

	// The doomed worker claims the job over raw HTTP and never returns.
	var dead jobs.Lease
	if code := workerPost(t, ts, "/v1/worker/claim", testToken, `{"worker":"doomed"}`, &dead); code != http.StatusOK {
		t.Fatalf("claim: code %d", code)
	}
	if dead.JobID != id {
		t.Fatalf("claimed %s, want %s", dead.JobID, id)
	}

	// A live worker shows up; it cannot get the job until the lease
	// expires, then completes it.
	stop := startWorkers(t, ts, 1)
	defer stop()

	st := pollDone(t, ts, id, 60*time.Second)
	if st.State != jobs.StateDone {
		t.Fatalf("job ended %s (error %q)", st.State, st.Error)
	}
	if st.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (doomed claim + live run)", st.Attempts)
	}
	if st.Worker != "w1" {
		t.Errorf("completing worker = %q, want w1", st.Worker)
	}

	// The doomed worker comes back from the dead: its post must be
	// refused — the job completed exactly once.
	code = workerPost(t, ts, "/v1/worker/jobs/"+id+"/result", testToken,
		`{"lease":"`+dead.LeaseID+`","result":{"kind":"verify"}}`, nil)
	if code != http.StatusConflict {
		t.Errorf("stale result post: code %d, want 409", code)
	}
	if got := metricValue(t, ts, "specwised_jobs_done_total"); got != 1 {
		t.Errorf("done counter = %v, want exactly 1", got)
	}
	if got := metricValue(t, ts, "specwised_lease_expiries_total"); got < 1 {
		t.Errorf("lease expiries = %v, want >= 1", got)
	}
	if got := metricValue(t, ts, "specwised_jobs_requeued_total"); got < 1 {
		t.Errorf("requeued = %v, want >= 1", got)
	}
}

// metricValue reads one unlabelled sample off the server's /metrics page.
func metricValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("metrics page has no %s", name)
	return 0
}

// The /v1/worker endpoints are gated by the bearer token; the client
// API stays open.
func TestWorkerEndpointsRequireToken(t *testing.T) {
	ts, _ := newRemoteServer(t, jobs.Config{})

	for _, token := range []string{"", "wrong-token"} {
		if code := workerPost(t, ts, "/v1/worker/claim", token, `{"worker":"w"}`, nil); code != http.StatusUnauthorized {
			t.Errorf("claim with token %q: code %d, want 401", token, code)
		}
		if code := workerPost(t, ts, "/v1/worker/jobs/job-000001/heartbeat", token, `{"lease":"x"}`, nil); code != http.StatusUnauthorized {
			t.Errorf("heartbeat with token %q: code %d, want 401", token, code)
		}
	}
	// The right token passes auth (and finds an empty queue).
	if code := workerPost(t, ts, "/v1/worker/claim", testToken, `{"worker":"w"}`, nil); code != http.StatusNoContent {
		t.Errorf("authorized claim on empty queue: code %d, want 204", code)
	}
	// A claim without a worker name, or with one the manager refuses, is
	// a 400, not a silent lease.
	for _, body := range []string{`{}`, `{"worker":"a\tb"}`} {
		if code := workerPost(t, ts, "/v1/worker/claim", testToken, body, nil); code != http.StatusBadRequest {
			t.Errorf("claim %s: code %d, want 400", body, code)
		}
	}
	// The client API needs no token.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz with worker auth on: code %d", resp.StatusCode)
	}
}
