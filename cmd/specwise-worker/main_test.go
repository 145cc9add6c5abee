package main

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"specwise/internal/jobs"
	"specwise/internal/server"
	"specwise/internal/worker"
)

// TestMain lets the test binary run as specwise-worker when
// SPECWISE_WORKER_MAIN is set, so flag handling is tested on the real
// main.
func TestMain(m *testing.M) {
	if os.Getenv("SPECWISE_WORKER_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// A shared evaluation-cache capacity nothing would read (no
// -shared-eval-cache) or a negative one is refused with exit status 2
// before the worker polls.
func TestEvalCacheSizeFlagRefused(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-eval-cache-size", "1000"},
		{"-eval-cache-size", "-1", "-shared-eval-cache"},
		{"-eval-cache-size", "-1"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		cmd := exec.CommandContext(ctx, exe, append([]string{"-server", "http://127.0.0.1:1", "-max-jobs", "1"}, args...)...)
		cmd.Env = append(os.Environ(), "SPECWISE_WORKER_MAIN=1")
		out, err := cmd.CombinedOutput()
		cancel()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 || !strings.Contains(string(out), "-eval-cache-size") {
			t.Errorf("%v: err %v, output %q; want exit status 2 naming -eval-cache-size", args, err, out)
		}
	}
}

// TestWorkerSmoke is the `make workersmoke` target: one remote-only
// specwised manager behind httptest, one pull-worker with -max-jobs 1
// semantics, one OTA verify job end to end.
func TestWorkerSmoke(t *testing.T) {
	m := jobs.New(jobs.Config{RemoteOnly: true, LeaseTTL: 10 * time.Second})
	defer m.Close()
	ts := httptest.NewServer(server.New(m, server.WithWorkerToken("smoke")))
	defer ts.Close()

	opts := jobs.RunOptions{VerifySamples: 30, Seed: jobs.Seed(11)}
	job, err := m.Submit(jobs.Request{Kind: jobs.KindVerify, Circuit: "ota", Options: opts})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err = worker.Run(ctx, worker.Config{
		Server:  ts.URL,
		Token:   "smoke",
		Name:    "smoke-1",
		Poll:    10 * time.Millisecond,
		Backoff: 10 * time.Millisecond,
		MaxJobs: 1,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatalf("worker.Run: %v", err)
	}

	if st := job.Status(); st.State != jobs.StateDone || st.Worker != "smoke-1" {
		t.Fatalf("job after smoke run: %+v", st)
	}
	res, ok := job.Result()
	if !ok || res.Verification == nil || res.Verification.Samples != 30 {
		t.Fatalf("bad verification payload: %+v", res)
	}
}

// TestBatchSmoke is the `make batchsmoke` target: an 8-member OTA seed
// sweep submitted as one batch to a remote-only daemon, drained by a
// single pull-worker running its process-local shared evaluation cache.
// The pinned wcSeed makes the members' worst-case searches probe
// identical points, so later members must hit entries earlier members
// stored — the batch effort rollup has to show cross-job cache hits.
func TestBatchSmoke(t *testing.T) {
	m := jobs.New(jobs.Config{RemoteOnly: true, LeaseTTL: 30 * time.Second})
	defer m.Close()
	ts := httptest.NewServer(server.New(m, server.WithWorkerToken("smoke")))
	defer ts.Close()

	reqs := make([]jobs.Request, 8)
	for i := range reqs {
		reqs[i] = jobs.Request{
			Kind:    jobs.KindOptimize,
			Circuit: "ota",
			Options: jobs.RunOptions{
				ModelSamples:  500,
				VerifySamples: 30,
				MaxIterations: 1,
				Seed:          jobs.Seed(uint64(i + 1)),
				WCSeed:        jobs.Seed(7),
			},
		}
	}
	batch, err := m.SubmitBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	err = worker.Run(ctx, worker.Config{
		Server:          ts.URL,
		Token:           "smoke",
		Name:            "smoke-batch",
		Poll:            10 * time.Millisecond,
		Backoff:         10 * time.Millisecond,
		MaxJobs:         8,
		SharedEvalCache: true,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatalf("worker.Run: %v", err)
	}

	st, err := m.BatchStatus(batch.ID())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != jobs.StateDone || st.Done != 8 {
		t.Fatalf("batch after smoke run: %+v", st)
	}
	if st.Effort.EvalCacheCrossHits <= 0 {
		t.Fatalf("no cross-job cache hits in effort rollup: %+v", st.Effort)
	}
	t.Logf("cross-job hits %d of %d would-be simulator calls",
		st.Effort.EvalCacheCrossHits, st.Effort.EvalCacheCrossHits+st.Effort.EvalCacheMisses)
}
