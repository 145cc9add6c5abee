package main

// Crash-recovery end-to-end: the real daemon binary, a real WAL file,
// a real SIGKILL. The test re-execs itself as specwised (TestMain
// checks SPECWISED_MAIN), runs a mixed workload — one finished job,
// one mid-run on the local pool, one held by a "remote worker" (the
// test speaking the lease protocol), one queued — kills the daemon
// without ceremony, restarts it on the same store, and asserts the
// recovery contract over plain HTTP.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"specwise/internal/testprob"
)

func TestMain(m *testing.M) {
	if os.Getenv("SPECWISED_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// daemon is one spawned specwised process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	logs *bytes.Buffer
	mu   sync.Mutex
}

// startDaemon spawns the test binary as specwised and waits for the
// listen line to learn the port.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{logs: &bytes.Buffer{}}
	d.cmd = exec.Command(exe, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	d.cmd.Env = append(os.Environ(), "SPECWISED_MAIN=1")
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			fmt.Fprintln(d.logs, line)
			d.mu.Unlock()
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addrc <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrc:
		d.base = "http://" + addr
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck
		t.Fatalf("daemon never reported its listen address; logs:\n%s", d.log())
	}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			d.cmd.Process.Kill() //nolint:errcheck
			d.cmd.Wait()         //nolint:errcheck
		}
	})
	return d
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.logs.String()
}

// sigkill models the crash: no drain, no fsync beyond what Append
// already did.
func (d *daemon) sigkill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d.cmd.Wait() //nolint:errcheck // the kill is the expected "error"
}

func httpJSON(t *testing.T, method, url, body string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(blob, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, blob, err)
		}
	}
	return resp.StatusCode
}

func httpBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(blob)
}

type jobStatus struct {
	ID        string     `json:"id"`
	State     string     `json:"state"`
	Cached    bool       `json:"cached"`
	Attempts  int        `json:"attempts"`
	StartedAt *time.Time `json:"startedAt"`
}

func submit(t *testing.T, d *daemon, body string) string {
	t.Helper()
	var ack struct {
		ID string `json:"id"`
	}
	if code := httpJSON(t, http.MethodPost, d.base+"/v1/jobs", body, &ack); code != http.StatusAccepted {
		t.Fatalf("submit returned %d; logs:\n%s", code, d.log())
	}
	return ack.ID
}

func status(t *testing.T, d *daemon, id string) jobStatus {
	t.Helper()
	var st jobStatus
	if code := httpJSON(t, http.MethodGet, d.base+"/v1/jobs/"+id, "", &st); code != http.StatusOK {
		t.Fatalf("status %s returned %d", id, code)
	}
	return st
}

func waitFor(t *testing.T, d *daemon, id, state string, timeout time.Duration) jobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var st jobStatus
	for time.Now().Before(deadline) {
		st = status(t, d, id)
		if st.State == state || st.State == "failed" {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.State != state {
		t.Fatalf("job %s state = %q after %v, want %q; logs:\n%s", id, st.State, timeout, state, d.log())
	}
	return st
}

const fastBody = `{"circuit": "ota",
  "options": {"modelSamples": 500, "verifySamples": 60, "maxIterations": 1, "seed": 7}}`

// slowBody is sized to still be mid-run when the SIGKILL lands.
const slowBody = `{"circuit": "ota",
  "options": {"modelSamples": 6000, "verifySamples": 2000, "maxIterations": 3, "seed": 11}}`

func TestCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real daemons and full optimizations")
	}
	storePath := filepath.Join(t.TempDir(), "jobs.wal")
	args := []string{"-workers", "1", "-store", storePath, "-lease-ttl", "2m"}

	d1 := startDaemon(t, args...)

	// Job 1 finishes before the crash; its result must survive verbatim.
	done := submit(t, d1, fastBody)
	waitFor(t, d1, done, "done", 2*time.Minute)
	code, wantResult := httpBody(t, d1.base+"/v1/jobs/"+done+"/result")
	if code != http.StatusOK {
		t.Fatalf("result fetch pre-crash: %d", code)
	}

	// Job 2 occupies the single local worker when the crash hits.
	interrupted := submit(t, d1, slowBody)
	deadline := time.Now().Add(time.Minute)
	for status(t, d1, interrupted).State != "running" && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if st := status(t, d1, interrupted); st.State != "running" {
		t.Fatalf("slow job state = %q, want running", st.State)
	}

	// Jobs 3 and 4 wait in the queue; job 3 is then claimed by this test
	// acting as a remote pull-worker, so a live lease spans the crash.
	leased := submit(t, d1, `{"circuit": "ota",
	  "options": {"modelSamples": 500, "verifySamples": 60, "maxIterations": 1, "seed": 21}}`)
	queued := submit(t, d1, `{"circuit": "ota",
	  "options": {"modelSamples": 500, "verifySamples": 60, "maxIterations": 1, "seed": 22}}`)
	var lease struct {
		JobID   string `json:"job"`
		LeaseID string `json:"lease"`
	}
	if code := httpJSON(t, http.MethodPost, d1.base+"/v1/worker/claim", `{"worker":"w-e2e"}`, &lease); code != http.StatusOK {
		t.Fatalf("claim returned %d", code)
	}
	if lease.JobID != leased {
		t.Fatalf("claim handed out %s, want %s (queue head)", lease.JobID, leased)
	}

	d1.sigkill(t)

	// Restart on the same store. Everything below is the recovery
	// contract.
	d2 := startDaemon(t, args...)

	// Terminal job: still done, result bit-identical.
	rst := status(t, d2, done)
	if rst.State != "done" {
		t.Fatalf("finished job recovered as %q", rst.State)
	}
	code, gotResult := httpBody(t, d2.base+"/v1/jobs/"+done+"/result")
	if code != http.StatusOK {
		t.Fatalf("result fetch post-crash: %d", code)
	}
	if gotResult != wantResult {
		t.Errorf("result changed across the crash:\n pre %s\npost %s", wantResult, gotResult)
	}

	// Live lease: the old lease ID is honored — heartbeat extends it and
	// the result posts without the job ever being re-executed. The
	// sentinel result could not come from an execution, which proves the
	// settlement is the reattached post, not a re-run.
	if code := httpJSON(t, http.MethodPost, d2.base+"/v1/worker/jobs/"+lease.JobID+"/heartbeat",
		`{"lease":"`+lease.LeaseID+`"}`, nil); code != http.StatusOK {
		t.Fatalf("heartbeat on recovered lease returned %d (reattach broken); logs:\n%s", code, d2.log())
	}
	if code := httpJSON(t, http.MethodPost, d2.base+"/v1/worker/jobs/"+lease.JobID+"/result",
		`{"lease":"`+lease.LeaseID+`","result":{"kind":"optimize"}}`, nil); code != http.StatusOK {
		t.Fatalf("result post on recovered lease returned %d", code)
	}
	lst := status(t, d2, lease.JobID)
	if lst.State != "done" || lst.Attempts != 1 {
		t.Errorf("reattached job state=%s attempts=%d, want done/1 (no re-execution)", lst.State, lst.Attempts)
	}

	// Interrupted local run: requeued with its budget intact and re-run
	// to completion (second attempt). The queued job runs after it —
	// original submit order.
	ist := waitFor(t, d2, interrupted, "done", 5*time.Minute)
	if ist.Attempts != 2 {
		t.Errorf("interrupted job attempts = %d, want 2 (1 pre-crash + 1 resumed)", ist.Attempts)
	}
	qst := waitFor(t, d2, queued, "done", 5*time.Minute)
	if qst.Attempts != 1 {
		t.Errorf("queued job attempts = %d, want 1", qst.Attempts)
	}
	if ist.StartedAt == nil || qst.StartedAt == nil || !ist.StartedAt.Before(*qst.StartedAt) {
		t.Errorf("recovered queue order wrong: interrupted started %v, queued started %v (want interrupted first)",
			ist.StartedAt, qst.StartedAt)
	}

	// The re-warmed cache answers the pre-crash request instantly.
	var ack struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
	}
	// 200 (not 202) is the server's cache-hit answer: the result is
	// already terminal at submit time.
	if code := httpJSON(t, http.MethodPost, d2.base+"/v1/jobs", fastBody, &ack); code != http.StatusOK {
		t.Fatalf("post-recovery submit returned %d, want 200 cache hit", code)
	}
	if !ack.Cached {
		t.Error("pre-crash result not served from the re-warmed cache")
	}
	code, metrics := httpBody(t, d2.base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		"specwised_cache_warm_hits_total 1",
		"specwised_store_recovered_jobs 4",
		"specwised_store_snapshots",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// SIGTERM is the graceful path: exit 0, store synced and closed.
	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d2.cmd.Wait(); err != nil {
		t.Fatalf("graceful shutdown exited with %v; logs:\n%s", err, d2.log())
	}

	// And a third boot still recovers cleanly from the shut-down store.
	d3 := startDaemon(t, args...)
	if st := status(t, d3, done); st.State != "done" {
		t.Errorf("job %s state after third boot = %q", done, st.State)
	}
}

// batchStatus mirrors the JSON of GET /v1/batches/{id}.
type batchStatus struct {
	ID      string      `json:"id"`
	State   string      `json:"state"`
	Unique  int         `json:"unique"`
	Deduped int         `json:"deduped"`
	Done    int         `json:"done"`
	Members []jobStatus `json:"members"`
}

func batchStat(t *testing.T, d *daemon, id string) batchStatus {
	t.Helper()
	var st batchStatus
	if code := httpJSON(t, http.MethodGet, d.base+"/v1/batches/"+id, "", &st); code != http.StatusOK {
		t.Fatalf("batch status %s returned %d", id, code)
	}
	return st
}

// TestBatchCrashRecoverySIGKILL: a batch sweep must survive a crash as
// one unit. One member finishes before the kill (its result must come
// back bit-identical), one is mid-run (requeued, budget intact), one is
// queued, and one is an in-batch duplicate (the dedupe fold must also
// survive recovery). After the restart the batch reconstitutes with the
// same ID, member IDs and counts, and drains to done in submit order.
func TestBatchCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real daemons and full optimizations")
	}
	storePath := filepath.Join(t.TempDir(), "jobs.wal")
	args := []string{"-workers", "1", "-store", storePath, "-shared-eval-cache"}

	d1 := startDaemon(t, args...)
	var sub batchStatus
	batchBody := `{"jobs": [
	  {"circuit": "ota", "options": {"modelSamples": 500, "verifySamples": 60, "maxIterations": 1, "seed": 31, "wcSeed": 7}},
	  {"circuit": "ota", "options": {"modelSamples": 6000, "verifySamples": 2000, "maxIterations": 3, "seed": 32, "wcSeed": 7}},
	  {"circuit": "ota", "options": {"modelSamples": 500, "verifySamples": 60, "maxIterations": 1, "seed": 33, "wcSeed": 7}},
	  {"circuit": "ota", "options": {"modelSamples": 500, "verifySamples": 60, "maxIterations": 1, "seed": 33, "wcSeed": 7}}
	]}`
	if code := httpJSON(t, http.MethodPost, d1.base+"/v1/batches", batchBody, &sub); code != http.StatusAccepted {
		t.Fatalf("batch submit returned %d; logs:\n%s", code, d1.log())
	}
	if sub.Unique != 3 || sub.Deduped != 1 || len(sub.Members) != 4 {
		t.Fatalf("batch submit ack: %+v", sub)
	}

	// Member 0 finishes; member 1 is mid-run on the single local worker
	// when the SIGKILL lands.
	waitFor(t, d1, sub.Members[0].ID, "done", 2*time.Minute)
	code, wantResult := httpBody(t, d1.base+"/v1/jobs/"+sub.Members[0].ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("member result pre-crash: %d", code)
	}
	deadline := time.Now().Add(time.Minute)
	for status(t, d1, sub.Members[1].ID).State != "running" && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if st := status(t, d1, sub.Members[1].ID); st.State != "running" {
		t.Fatalf("slow member state = %q, want running", st.State)
	}

	d1.sigkill(t)
	d2 := startDaemon(t, args...)

	// The batch reconstitutes as a unit: same ID, same member IDs in
	// submit order, dedupe fold intact, finished work preserved.
	rst := batchStat(t, d2, sub.ID)
	if rst.Unique != 3 || rst.Deduped != 1 || len(rst.Members) != 4 || rst.Done < 1 {
		t.Fatalf("recovered batch: %+v", rst)
	}
	for i := range sub.Members {
		if rst.Members[i].ID != sub.Members[i].ID {
			t.Errorf("member %d ID changed across crash: %s -> %s", i, sub.Members[i].ID, rst.Members[i].ID)
		}
	}
	if rst.Members[2].ID != rst.Members[3].ID {
		t.Errorf("in-batch dedupe lost on recovery: %s vs %s", rst.Members[2].ID, rst.Members[3].ID)
	}
	code, gotResult := httpBody(t, d2.base+"/v1/jobs/"+sub.Members[0].ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("member result post-crash: %d", code)
	}
	if gotResult != wantResult {
		t.Errorf("member result changed across the crash:\n pre %s\npost %s", wantResult, gotResult)
	}

	// The interrupted and queued members re-run to completion in submit
	// order, and the batch settles.
	ist := waitFor(t, d2, sub.Members[1].ID, "done", 5*time.Minute)
	if ist.Attempts != 2 {
		t.Errorf("interrupted member attempts = %d, want 2", ist.Attempts)
	}
	qst := waitFor(t, d2, sub.Members[2].ID, "done", 5*time.Minute)
	if qst.Attempts != 1 {
		t.Errorf("queued member attempts = %d, want 1", qst.Attempts)
	}
	if ist.StartedAt == nil || qst.StartedAt == nil || !ist.StartedAt.Before(*qst.StartedAt) {
		t.Errorf("recovered members ran out of submit order: %v vs %v", ist.StartedAt, qst.StartedAt)
	}
	fin := batchStat(t, d2, sub.ID)
	if fin.State != "done" || fin.Done != 3 {
		t.Fatalf("batch after recovery drain: %+v", fin)
	}
}

// TestLaneSmoke is the fast path `make lanesmoke` runs: with a single
// local worker saturated by a wall of optimize jobs, an interactive
// verify submission still jumps the line (the weighted round-robin
// prefers the cheap lane) and its progress streams over SSE to the
// terminal state while optimize work is still outstanding.
func TestLaneSmoke(t *testing.T) {
	d := startDaemon(t, "-workers", "1")
	defer d.sigkill(t)

	// Three medium optimize jobs: one occupies the single worker, two
	// wait in the heavy lane.
	var optimizeIDs []string
	for seed := 41; seed <= 43; seed++ {
		optimizeIDs = append(optimizeIDs, submit(t, d, fmt.Sprintf(`{"circuit": "ota",
		  "options": {"modelSamples": 2000, "verifySamples": 2000, "maxIterations": 2, "seed": %d}}`, seed)))
	}
	verifyID := submit(t, d, `{"kind": "verify", "circuit": "ota",
	  "options": {"verifySamples": 60, "seed": 7}}`)

	// Stream the verify job's events to its terminal state. The stream
	// closing is the synchronization point: the verify is done while the
	// optimize wall is (at most minus one) still outstanding.
	resp, err := http.Get(d.base + "/v1/jobs/" + verifyID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: code %d", resp.StatusCode)
	}
	finalState := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: ") && strings.Contains(line, `"state"`) {
			var st jobStatus
			if err := json.Unmarshal([]byte(line[len("data: "):]), &st); err == nil && st.State != "" {
				finalState = st.State
			}
		}
	}
	if finalState != "done" {
		t.Fatalf("verify stream ended in state %q, want done; logs:\n%s", finalState, d.log())
	}

	pendingOptimize := 0
	for _, id := range optimizeIDs {
		if status(t, d, id).State != "done" {
			pendingOptimize++
		}
	}
	if pendingOptimize == 0 {
		t.Error("verify finished only after the whole optimize wall drained (lane priority not observable)")
	}

	code, metrics := httpBody(t, d.base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if !strings.Contains(metrics, `specwised_lane_done{lane="verify"} 1`) {
		t.Errorf("metrics missing verify-lane done counter:\n%s", metrics)
	}
	if err := testprob.CheckExposition(metrics); err != nil {
		t.Errorf("metrics page: %v\n%s", err, metrics)
	}

	for _, id := range optimizeIDs {
		waitFor(t, d, id, "done", 5*time.Minute)
	}
}

// TestStoreSmoke is the fast path `make storesmoke` runs: submit, kill,
// recover, verify — no mid-run interruption, so it completes in a few
// seconds.
func TestStoreSmoke(t *testing.T) {
	storePath := filepath.Join(t.TempDir(), "jobs.wal")
	args := []string{"-workers", "1", "-store", storePath}

	d1 := startDaemon(t, args...)
	id := submit(t, d1, fastBody)
	waitFor(t, d1, id, "done", 2*time.Minute)
	code, want := httpBody(t, d1.base+"/v1/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: %d", code)
	}
	d1.sigkill(t)

	d2 := startDaemon(t, args...)
	defer d2.sigkill(t)
	if st := status(t, d2, id); st.State != "done" {
		t.Fatalf("recovered state = %q, want done", st.State)
	}
	code, got := httpBody(t, d2.base+"/v1/jobs/"+id+"/result")
	if code != http.StatusOK || got != want {
		t.Fatalf("recovered result differs (status %d)", code)
	}
}

// A shared evaluation-cache capacity nothing would read (no
// -shared-eval-cache) or a negative one is refused at startup with exit
// status 2, before the daemon listens.
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
		cmd := exec.CommandContext(ctx, exe, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
		cmd.Env = append(os.Environ(), "SPECWISED_MAIN=1")
		out, err := cmd.CombinedOutput()
		cancel()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 || !strings.Contains(string(out), "-eval-cache-size") {
			t.Errorf("%v: err %v, output %q; want exit status 2 naming -eval-cache-size", args, err, out)
		}
	}
}
