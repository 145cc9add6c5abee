// Package server exposes the jobs subsystem over an HTTP JSON API — the
// service face of the yield optimizer. Client endpoints:
//
//	POST   /v1/jobs             submit a job (202; body echoes id + state;
//	                            429 + Retry-After when the lane is full)
//	GET    /v1/jobs             list job statuses, newest first
//	GET    /v1/jobs/{id}        status + live progress trace
//	GET    /v1/jobs/{id}/events server-sent-events stream: recorded progress
//	                            replays, live updates tail until terminal
//	GET    /v1/jobs/{id}/result final report (409 until the job is done)
//	DELETE /v1/jobs/{id}        cancel (queued: immediate; running: via context/lease)
//	POST   /v1/batches          submit a batch of jobs atomically (202; 200 when all cached)
//	GET    /v1/batches          list batch statuses, newest first
//	GET    /v1/batches/{id}     per-member states + aggregate effort rollup
//	DELETE /v1/batches/{id}     cancel every non-terminal member
//	GET    /healthz             liveness probe
//	GET    /metrics             plain-text counters (Prometheus exposition format)
//
// Worker-pull endpoints (the remote lease protocol of internal/jobs;
// guarded by a bearer token when the server is built with
// WithWorkerToken):
//
//	POST /v1/worker/claim               {"worker": "name", "lane": "verify"?} → 200 lease | 204 no work
//	POST /v1/worker/jobs/{id}/heartbeat {"lease": "..."} → 200 {"deadline": ...}
//	POST /v1/worker/jobs/{id}/result    {"lease": "...", "result": {...}}
//	POST /v1/worker/jobs/{id}/fail      {"lease": "...", "error": "..."}
//
// A lost lease (expired, canceled or superseded) answers 409 so the
// worker abandons the job; an unknown job answers 404.
//
// Request body for POST /v1/jobs (see internal/jobs for the full schema):
//
//	{"kind": "optimize", "circuit": "ota",
//	 "options": {"modelSamples": 2000, "verifySamples": 200,
//	             "maxIterations": 2, "seed": 7}}
//
// or, with an inline problem definition instead of a built-in circuit:
//
//	{"kind": "verify", "spec": { ...yieldspec JSON with inline netlist... }}
package server

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"specwise/internal/jobs"
)

// Request-body caps (see decodeBody): submissions may carry inline
// netlists, so their cap is generous; lease-protocol bodies are tiny
// except for result posts, which carry a full report.
const (
	maxJobBody    = 32 << 20 // one submission, possibly with an inline spec
	maxBatchBody  = 64 << 20 // a whole batch of submissions
	maxResultBody = 16 << 20 // a worker's result report
	maxLeaseBody  = 1 << 20  // claim, heartbeat and fail posts
)

// Server is the HTTP face of a jobs.Manager.
type Server struct {
	manager      *jobs.Manager
	mux          *http.ServeMux
	workerToken  string
	sseHeartbeat time.Duration
}

// Option customizes a Server.
type Option func(*Server)

// WithWorkerToken requires `Authorization: Bearer <token>` on every
// /v1/worker endpoint. An empty token leaves the worker API open (local
// development and tests).
func WithWorkerToken(token string) Option {
	return func(s *Server) { s.workerToken = token }
}

// WithSSEHeartbeat sets the idle-comment cadence on the
// /v1/jobs/{id}/events stream (default 15s; tests shorten it).
func WithSSEHeartbeat(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.sseHeartbeat = d
		}
	}
}

// New builds the handler tree over a running manager.
func New(m *jobs.Manager, opts ...Option) *Server {
	s := &Server{manager: m, mux: http.NewServeMux(), sseHeartbeat: 15 * time.Second}
	for _, opt := range opts {
		opt(s)
	}
	s.mux.HandleFunc("POST /v1/jobs", s.submit)
	s.mux.HandleFunc("GET /v1/jobs", s.list)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.status)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.events)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.result)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancel)
	s.mux.HandleFunc("POST /v1/batches", s.submitBatch)
	s.mux.HandleFunc("GET /v1/batches", s.listBatches)
	s.mux.HandleFunc("GET /v1/batches/{id}", s.batchStatus)
	s.mux.HandleFunc("DELETE /v1/batches/{id}", s.cancelBatch)
	s.mux.HandleFunc("POST /v1/worker/claim", s.workerAuth(s.workerClaim))
	s.mux.HandleFunc("POST /v1/worker/jobs/{id}/heartbeat", s.workerAuth(s.workerHeartbeat))
	s.mux.HandleFunc("POST /v1/worker/jobs/{id}/result", s.workerAuth(s.workerResult))
	s.mux.HandleFunc("POST /v1/worker/jobs/{id}/fail", s.workerAuth(s.workerFail))
	s.mux.HandleFunc("GET /healthz", s.healthz)
	s.mux.HandleFunc("GET /metrics", s.metrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// writeJSON sends v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the connection is gone if this fails
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}

// decodeBody parses a JSON request body under a size cap, answering 413
// for bodies past the cap (a multi-GB inline spec must not OOM the
// daemon) and 400 for malformed JSON. strict rejects unknown fields —
// on for client submissions, off for the worker protocol so newer
// workers can extend their posts. Returns false once the response is
// written.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, strict bool, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	if strict {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return false
	}
	return true
}

// writeSubmitError answers a refused job or batch submission. A full
// lane is 429 with a Retry-After computed from the lane's recent drain
// rate (a plain ErrQueueFull without lane context, not produced today,
// falls back to one second). A closed manager or a journal that refused
// the submission is 503: the request was fine, the service cannot take
// it now. Anything else is a bad request.
func writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		secs := 1
		var qf *jobs.QueueFullError
		if errors.As(err, &qf) {
			if s := int(math.Ceil(qf.RetryAfter.Seconds())); s > secs {
				secs = s
			}
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, jobs.ErrClosed), errors.Is(err, jobs.ErrNotDurable):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

// submitResponse acknowledges a submission.
type submitResponse struct {
	ID     string     `json:"id"`
	State  jobs.State `json:"state"`
	Cached bool       `json:"cached"`
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	var req jobs.Request
	if !decodeBody(w, r, maxJobBody, true, &req) {
		return
	}
	job, err := s.manager.Submit(req)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	code := http.StatusAccepted
	if st := job.State(); st.Terminal() {
		code = http.StatusOK // cache hit: the result is ready right now
	}
	writeJSON(w, code, submitResponse{ID: job.ID(), State: job.State(), Cached: job.Status().Cached})
}

func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.manager.Jobs())
}

// batchRequest is the POST /v1/batches body: the member submissions in
// order. Duplicated requests are deduplicated server-side and share one
// job (and one result).
type batchRequest struct {
	Jobs []jobs.Request `json:"jobs"`
}

func (s *Server) submitBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !decodeBody(w, r, maxBatchBody, true, &req) {
		return
	}
	batch, err := s.manager.SubmitBatch(req.Jobs)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	st, err := s.manager.BatchStatus(batch.ID())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	code := http.StatusAccepted
	if st.State.Terminal() {
		code = http.StatusOK // every member answered from the result cache
	}
	writeJSON(w, code, st)
}

func (s *Server) listBatches(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.manager.Batches())
}

func (s *Server) batchStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.manager.BatchStatus(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "no such batch")
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) cancelBatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.manager.CancelBatch(id); err != nil {
		writeError(w, http.StatusNotFound, "no such batch")
		return
	}
	st, err := s.manager.BatchStatus(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "no such batch")
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	job, ok := s.manager.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

// writeSSE emits one server-sent event frame. The id field is the
// replay cursor (the progress index) and is omitted on state frames,
// which are snapshots rather than log entries.
func writeSSE(w io.Writer, id, event string, v any) {
	blob, err := json.Marshal(v)
	if err != nil {
		return
	}
	if id != "" {
		fmt.Fprintf(w, "id: %s\n", id) //nolint:errcheck
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, blob) //nolint:errcheck
}

// events streams a job's progress trace as server-sent events: every
// recorded progress entry is replayed as a "progress" event (id = its
// index in the trace, so Last-Event-ID resumes without duplicates),
// state transitions are emitted as "state" events with the progress
// trace stripped, and the stream ends after the terminal state event.
// Idle streams carry ": heartbeat" comments so intermediaries do not
// reap the connection.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	job, ok := s.manager.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	next := 0
	if last := r.Header.Get("Last-Event-ID"); last != "" {
		if n, err := strconv.Atoi(last); err == nil && n >= 0 {
			next = n + 1
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	hb := time.NewTicker(s.sseHeartbeat)
	defer hb.Stop()
	lastState := jobs.State("")
	for {
		// Arm the change channel before snapshotting: a change that lands
		// between Status and the select closes the already-held channel,
		// so no wakeup is lost.
		ch := job.Changed()
		st := job.Status()
		for ; next < len(st.Progress); next++ {
			writeSSE(w, strconv.Itoa(next), "progress", st.Progress[next])
		}
		if st.State != lastState {
			lastState = st.State
			slim := st
			slim.Progress = nil
			writeSSE(w, "", "state", slim)
		}
		fl.Flush()
		if st.State.Terminal() {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-ch:
		case <-hb.C:
			io.WriteString(w, ": heartbeat\n\n") //nolint:errcheck
			fl.Flush()
		}
	}
}

func (s *Server) result(w http.ResponseWriter, r *http.Request) {
	job, ok := s.manager.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	res, done := job.Result()
	if done {
		writeJSON(w, http.StatusOK, res)
		return
	}
	switch st := job.State(); st {
	case jobs.StateFailed:
		writeError(w, http.StatusInternalServerError, "job failed: "+job.Err())
	case jobs.StateCanceled:
		writeError(w, http.StatusConflict, "job was canceled")
	default:
		writeError(w, http.StatusConflict, "job not finished (state "+string(st)+")")
	}
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	// The status comes from Cancel itself: a follow-up Get would race the
	// retention sweep, which may evict the now-terminal job between the
	// two calls and leave a nil job to dereference.
	st, err := s.manager.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n")) //nolint:errcheck
}

func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.manager.Metrics().WriteText(w)
}

// workerAuth gates the worker-pull endpoints behind the bearer token,
// when one is configured.
func (s *Server) workerAuth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.workerToken != "" {
			got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
			if !ok || subtle.ConstantTimeCompare([]byte(got), []byte(s.workerToken)) != 1 {
				writeError(w, http.StatusUnauthorized, "invalid or missing worker token")
				return
			}
		}
		h(w, r)
	}
}

// claimRequest identifies the polling worker. Lane optionally restricts
// the claim to one priority lane ("verify" or "optimize"); empty claims
// from any lane under the weighted round-robin.
type claimRequest struct {
	Worker string `json:"worker"`
	Lane   string `json:"lane,omitempty"`
}

func (s *Server) workerClaim(w http.ResponseWriter, r *http.Request) {
	var req claimRequest
	if !decodeBody(w, r, maxLeaseBody, false, &req) {
		return
	}
	if strings.TrimSpace(req.Worker) == "" {
		writeError(w, http.StatusBadRequest, "worker name required")
		return
	}
	lease, err := s.manager.ClaimLane(req.Worker, req.Lane)
	switch {
	case errors.Is(err, jobs.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
	case lease == nil:
		w.WriteHeader(http.StatusNoContent) // nothing queued; poll again
	default:
		writeJSON(w, http.StatusOK, lease)
	}
}

// leaseBody carries the lease proof on heartbeat/result/fail posts.
type leaseBody struct {
	Lease  string       `json:"lease"`
	Result *jobs.Result `json:"result,omitempty"`
	Error  string       `json:"error,omitempty"`
}

// heartbeatResponse returns the extended lease deadline.
type heartbeatResponse struct {
	Deadline time.Time `json:"deadline"`
}

// decodeLease parses the common worker POST body under the given cap.
func decodeLease(w http.ResponseWriter, r *http.Request, limit int64) (leaseBody, bool) {
	var body leaseBody
	if !decodeBody(w, r, limit, false, &body) {
		return body, false
	}
	if body.Lease == "" {
		writeError(w, http.StatusBadRequest, "lease id required")
		return body, false
	}
	return body, true
}

// writeLeaseErr maps lease-layer errors onto status codes.
func writeLeaseErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		writeError(w, http.StatusNotFound, "no such job")
	case errors.Is(err, jobs.ErrLeaseLost):
		writeError(w, http.StatusConflict, err.Error())
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

func (s *Server) workerHeartbeat(w http.ResponseWriter, r *http.Request) {
	body, ok := decodeLease(w, r, maxLeaseBody)
	if !ok {
		return
	}
	deadline, err := s.manager.Heartbeat(r.PathValue("id"), body.Lease)
	if err != nil {
		writeLeaseErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, heartbeatResponse{Deadline: deadline})
}

func (s *Server) workerResult(w http.ResponseWriter, r *http.Request) {
	body, ok := decodeLease(w, r, maxResultBody)
	if !ok {
		return
	}
	if body.Result == nil {
		writeError(w, http.StatusBadRequest, "result payload required")
		return
	}
	if err := s.manager.Complete(r.PathValue("id"), body.Lease, body.Result); err != nil {
		writeLeaseErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"state": string(jobs.StateDone)})
}

func (s *Server) workerFail(w http.ResponseWriter, r *http.Request) {
	body, ok := decodeLease(w, r, maxLeaseBody)
	if !ok {
		return
	}
	if body.Error == "" {
		body.Error = "unspecified worker failure"
	}
	if err := s.manager.Fail(r.PathValue("id"), body.Lease, body.Error); err != nil {
		writeLeaseErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"state": string(jobs.StateFailed)})
}
