package server_test

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"specwise/internal/jobs"
)

func postBatch(t *testing.T, ts *httptest.Server, body string) (int, jobs.BatchStatus) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/batches", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobs.BatchStatus
	if resp.StatusCode < 400 {
		decodeJSON(t, resp, &st)
	}
	return resp.StatusCode, st
}

func decodeJSON(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
}

// pollBatch polls GET /v1/batches/{id} until the batch is terminal.
func pollBatch(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) jobs.BatchStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var st jobs.BatchStatus
	for time.Now().Before(deadline) {
		if code := getJSON(t, ts.URL+"/v1/batches/"+id, &st); code != http.StatusOK {
			t.Fatalf("status code %d for batch %s", code, id)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("batch %s not terminal after %v (state %s)", id, timeout, st.State)
	return st
}

const sweepBody = `{"jobs": [
  {"kind": "verify", "circuit": "ota", "options": {"verifySamples": 30, "seed": 1}},
  {"kind": "verify", "circuit": "ota", "options": {"verifySamples": 30, "seed": 2}},
  {"kind": "verify", "circuit": "ota", "options": {"verifySamples": 30, "seed": 1}}
]}`

// The batch happy path over HTTP: submit a small sweep with one
// duplicated member, poll the combined status to completion, read a
// member back through the per-job API, and see the batch in the list.
func TestBatchOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{Workers: 2, SharedEvalCache: true})

	code, st := postBatch(t, ts, sweepBody)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/batches = %d, want 202", code)
	}
	if st.ID == "" || st.Unique != 2 || st.Deduped != 1 || len(st.Members) != 3 {
		t.Fatalf("submit response: %+v", st)
	}
	if st.Members[0].ID != st.Members[2].ID {
		t.Errorf("duplicated member got its own job: %s vs %s", st.Members[0].ID, st.Members[2].ID)
	}

	final := pollBatch(t, ts, st.ID, 60*time.Second)
	if final.State != jobs.StateDone || final.Done != 2 {
		t.Fatalf("final batch: %+v", final)
	}
	if final.Effort.VerifyEvals <= 0 {
		t.Errorf("effort rollup empty: %+v", final.Effort)
	}

	// Members are ordinary jobs under /v1/jobs/{id}.
	var js jobs.Status
	if code := getJSON(t, ts.URL+"/v1/jobs/"+final.Members[0].ID, &js); code != http.StatusOK {
		t.Fatalf("member status code %d", code)
	}
	if js.Batch != st.ID {
		t.Errorf("member status batch = %q, want %q", js.Batch, st.ID)
	}

	var list []jobs.BatchStatus
	if code := getJSON(t, ts.URL+"/v1/batches", &list); code != http.StatusOK {
		t.Fatalf("list code %d", code)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("batch list: %+v", list)
	}

	// Resubmitting the same sweep is answered wholly from the result
	// cache: 200, terminal at submit time.
	code, again := postBatch(t, ts, sweepBody)
	if code != http.StatusOK {
		t.Errorf("all-cached resubmission = %d, want 200", code)
	}
	if again.State != jobs.StateDone || again.Cached != 2 {
		t.Errorf("all-cached resubmission status: %+v", again)
	}
}

// DELETE /v1/batches/{id} cancels the queued members.
func TestBatchCancelOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{RemoteOnly: true})
	code, st := postBatch(t, ts, sweepBody)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/batches/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d, want 200", resp.StatusCode)
	}
	final := pollBatch(t, ts, st.ID, 5*time.Second)
	if final.State != jobs.StateCanceled || final.Canceled != 2 {
		t.Fatalf("batch after cancel: %+v", final)
	}
}

func TestBatchErrorPathsOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{RemoteOnly: true, QueueSize: 1})

	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"empty member list", `{"jobs": []}`, http.StatusBadRequest},
		{"malformed member", `{"jobs": [{"kind": "frobnicate", "circuit": "ota"}]}`, http.StatusBadRequest},
		{"unknown field", `{"batch": []}`, http.StatusBadRequest},
		{"over capacity", `{"jobs": [
			{"circuit": "ota", "options": {"seed": 1}},
			{"circuit": "ota", "options": {"seed": 2}}
		]}`, http.StatusTooManyRequests},
	} {
		if code, _ := postBatch(t, ts, tc.body); code != tc.want {
			t.Errorf("%s: code = %d, want %d", tc.name, code, tc.want)
		}
	}

	var st jobs.BatchStatus
	if code := getJSON(t, ts.URL+"/v1/batches/batch-000099", &st); code != http.StatusNotFound {
		t.Errorf("unknown batch GET = %d, want 404", code)
	}
}

// failingStore is a jobs.Store whose every append fails, as on a full
// disk.
type failingStore struct{ jobs.NullStore }

func (failingStore) Append(*jobs.Record) error { return errors.New("disk full") }

// A submission the journal refuses is a service fault, not a bad
// request: both submit endpoints answer 503 and track nothing.
func TestSubmitNotDurableOverHTTP(t *testing.T) {
	ts, m := newTestServer(t, jobs.Config{RemoteOnly: true, Store: failingStore{}})
	job := `{"kind": "verify", "circuit": "ota", "options": {"verifySamples": 30, "seed": 1}}`
	if code, out := postJob(t, ts, job); code != http.StatusServiceUnavailable {
		t.Errorf("POST /v1/jobs: code = %d (%v), want 503", code, out)
	}
	if code, _ := postBatch(t, ts, `{"jobs": [`+job+`]}`); code != http.StatusServiceUnavailable {
		t.Errorf("POST /v1/batches: code = %d, want 503", code)
	}
	if n, b := len(m.Jobs()), len(m.Batches()); n != 0 || b != 0 {
		t.Errorf("refused submissions tracked: %d jobs, %d batches", n, b)
	}
}
