package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"specwise"
	"specwise/internal/jobs"
	"specwise/internal/server"
)

func newTestServer(t *testing.T, cfg jobs.Config) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	m := jobs.New(cfg)
	ts := httptest.NewServer(server.New(m))
	t.Cleanup(func() {
		ts.Close()
		m.Close()
	})
	return ts, m
}

func postJob(t *testing.T, ts *httptest.Server, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode
}

// pollDone polls the status endpoint until the job is terminal.
func pollDone(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var st jobs.Status
	for time.Now().Before(deadline) {
		code := getJSON(t, ts.URL+"/v1/jobs/"+id, &st)
		if code != http.StatusOK {
			t.Fatalf("status code %d for job %s", code, id)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s not terminal after %v (state %s)", id, timeout, st.State)
	return st
}

const otaBody = `{"circuit": "ota",
  "options": {"modelSamples": 500, "verifySamples": 60, "maxIterations": 1, "seed": 7}}`

// The flagship end-to-end test: submit the OTA circuit, poll to
// completion, and check the served yield against a direct library call
// with the same seed — the service must be a transparent wrapper.
func TestEndToEndOTAMatchesDirectRun(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{Workers: 2})

	code, ack := postJob(t, ts, otaBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %v", code, ack)
	}
	id, _ := ack["id"].(string)
	if id == "" {
		t.Fatalf("no job id in %v", ack)
	}

	st := pollDone(t, ts, id, 60*time.Second)
	if st.State != jobs.StateDone {
		t.Fatalf("job ended %s (error %q)", st.State, st.Error)
	}
	if len(st.Progress) == 0 {
		t.Error("status carries no progress trace")
	}

	var res jobs.Result
	if code := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result", &res); code != http.StatusOK {
		t.Fatalf("result: code %d", code)
	}
	if res.Optimization == nil {
		t.Fatal("no optimization payload")
	}
	iters := res.Optimization.Iterations
	if len(iters) == 0 {
		t.Fatal("no iterations in result")
	}
	last := iters[len(iters)-1]
	if last.MCYield == nil {
		t.Fatal("no verified yield in final iteration")
	}

	direct, err := specwise.Optimize(specwise.OTA(), specwise.Options{
		ModelSamples: 500, VerifySamples: 60, MaxIterations: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := direct.Iterations[len(direct.Iterations)-1].MCYield
	if len(iters) != len(direct.Iterations) {
		t.Errorf("served %d iterations, direct run has %d", len(iters), len(direct.Iterations))
	}
	if *last.MCYield != want {
		t.Errorf("served yield %v != direct-run yield %v (same seed)", *last.MCYield, want)
	}
	for k, dv := range res.Optimization.FinalDesign {
		if dv.Value != direct.FinalDesign[k] {
			t.Errorf("final design %s: served %v, direct %v", dv.Name, dv.Value, direct.FinalDesign[k])
		}
	}
}

func TestResubmissionServedFromCache(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{Workers: 2})

	code, ack := postJob(t, ts, otaBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	pollDone(t, ts, ack["id"].(string), 60*time.Second)

	code, ack2 := postJob(t, ts, otaBody)
	if code != http.StatusOK {
		t.Errorf("cache hit: code %d, want 200", code)
	}
	if cached, _ := ack2["cached"].(bool); !cached {
		t.Error("resubmission not flagged cached")
	}
	// The result is available immediately, no polling needed.
	var res jobs.Result
	if code := getJSON(t, ts.URL+"/v1/jobs/"+ack2["id"].(string)+"/result", &res); code != http.StatusOK {
		t.Errorf("cached result: code %d", code)
	}

	// And the metrics endpoint reports the hit.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "specwised_cache_hits_total 1") {
		t.Errorf("metrics missing cache-hit line:\n%s", body)
	}
}

func TestCancelRunningJobOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{Workers: 1})

	// A deliberately long job: many verification samples and iterations.
	code, ack := postJob(t, ts, `{"circuit": "ota",
	  "options": {"modelSamples": 2000, "verifySamples": 50000, "maxIterations": 6, "seed": 9}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	id := ack["id"].(string)

	deadline := time.Now().Add(10 * time.Second)
	var st jobs.Status
	for time.Now().Before(deadline) {
		getJSON(t, ts.URL+"/v1/jobs/"+id, &st)
		if st.State == jobs.StateRunning {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.State != jobs.StateRunning {
		t.Fatalf("job never started (state %s)", st.State)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: code %d", resp.StatusCode)
	}

	st = pollDone(t, ts, id, 30*time.Second)
	if st.State != jobs.StateCanceled {
		t.Fatalf("state after cancel = %s", st.State)
	}

	// The result endpoint must refuse.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("result of canceled job: code %d, want 409", resp.StatusCode)
	}
}

func TestInlineSpecVerifyJob(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{Workers: 1})
	spec := `{
	  "name": "cs-amp",
	  "netlist": "common source amplifier\n.model nch NMOS VT0=0.71 KP=120u LAMBDA=0.06\nVDD vdd 0 3.3\nVIN g 0 1.0 AC 1\nM1 d g 0 0 nch W=20u L=2u\nRL vdd d 47k\nCL d 0 1p\n",
	  "testbench": {"out": "d", "drive": "VIN", "supply": "VDD", "acStart": 1000, "acStop": 1e9},
	  "design": [{"name": "W1", "unit": "um", "init": 20, "lo": 2, "hi": 200, "log": true,
	              "targets": [{"device": "M1", "param": "W", "scale": 1e-6}]}],
	  "statistical": {"globals": [{"name": "g.dVthN", "kind": "vth", "polarity": 1, "sigma": 0.015}]},
	  "specs": [{"name": "A0", "measure": "a0_db", "kind": "ge", "bound": 17, "unit": "dB"}],
	  "theta": [{"name": "VDD", "nominal": 3.3, "lo": 3.0, "hi": 3.6, "apply": "source:VDD"}]
	}`
	body := fmt.Sprintf(`{"kind": "verify", "spec": %s, "options": {"verifySamples": 100, "seed": 5}}`, spec)
	code, ack := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %v", code, ack)
	}
	st := pollDone(t, ts, ack["id"].(string), 60*time.Second)
	if st.State != jobs.StateDone {
		t.Fatalf("verify job ended %s (error %q)", st.State, st.Error)
	}
	var res jobs.Result
	getJSON(t, ts.URL+"/v1/jobs/"+ack["id"].(string)+"/result", &res)
	if res.Verification == nil || res.Verification.Samples != 100 {
		t.Fatalf("bad verification payload: %+v", res.Verification)
	}
}

func TestErrorPaths(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{Workers: 1})

	// Unknown job.
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: code %d, want 404", resp.StatusCode)
	}

	// Malformed and invalid submissions.
	for _, body := range []string{
		`{not json`,
		`{}`,
		`{"circuit": "nonexistent"}`,
		`{"circuit": "ota", "unknownField": 1}`,
	} {
		code, _ := postJob(t, ts, body)
		if code != http.StatusBadRequest {
			t.Errorf("body %q: code %d, want 400", body, code)
		}
	}

	// Health check.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(b, []byte("ok\n")) {
		t.Errorf("healthz: code %d body %q", resp.StatusCode, b)
	}
}
