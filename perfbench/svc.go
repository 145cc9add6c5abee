package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"specwise"
	"specwise/internal/jobs"
	"specwise/internal/problem"
	"specwise/internal/report"
	"specwise/internal/server"
	"specwise/internal/store"
	"specwise/internal/wcd"
)

// svcWorkload is specwised under two closed-loop clients, one per lane:
// client A submits a seed sweep of OTA optimize jobs with a pinned
// worst-case seed, client B folded-cascode verify jobs at the initial
// design. The daemon runs in-process (2 workers, shared evaluation
// cache, durable WAL with fsync) behind internal/server on loopback.
type svcWorkload struct {
	opt          jobs.RunOptions // optimize request shape; seeds are per job
	verifyN      int             // samples per verify job
	optPerSecond float64         // sizes client A's list from --seconds
	verPerSecond float64         // sizes client B's list (>= 100 jobs: five blocks for verify_p90_s)
	setups       int
	dir          string // parent of the per-daemon temp directories
}

type svcPlan struct {
	wcSeed                uint64
	optSeeds, verifySeeds []uint64
}

func (w *svcWorkload) plan(seed uint64, seconds int) svcPlan {
	pl := svcPlan{wcSeed: splitmix(seed, -1) | 1}
	nOpt := max(2, int(math.Round(float64(seconds)*w.optPerSecond)))
	nVer := max(2, int(math.Round(float64(seconds)*w.verPerSecond)))
	for i := 0; i < nOpt; i++ {
		pl.optSeeds = append(pl.optSeeds, splitmix(seed, i))
	}
	for i := 0; i < nVer; i++ {
		pl.verifySeeds = append(pl.verifySeeds, splitmix(^seed, i))
	}
	return pl
}

func (w *svcWorkload) optimizeRequest(wcSeed, seed uint64) jobs.Request {
	o := w.opt
	o.Seed, o.WCSeed = jobs.Seed(seed), jobs.Seed(wcSeed)
	return jobs.Request{Kind: jobs.KindOptimize, Circuit: "ota", Options: o}
}

func (w *svcWorkload) verifyRequest(seed uint64) jobs.Request {
	return jobs.Request{Kind: jobs.KindVerify, Circuit: "foldedcascode",
		Options: jobs.RunOptions{VerifySamples: w.verifyN, Seed: jobs.Seed(seed)}}
}

// libraryOptions is the library call equivalent to optimizeRequest, built
// independently of the jobs package's conversion so the comparison
// checks it.
func (w *svcWorkload) libraryOptions(wcSeed, seed uint64) specwise.Options {
	return specwise.Options{
		ModelSamples: w.opt.ModelSamples, VerifySamples: w.opt.VerifySamples,
		MaxIterations: w.opt.MaxIterations, Seed: seed, HasSeed: true,
		WC: wcd.Options{Seed: wcSeed},
	}
}

// traced links the daemon's problem resolution to the client's spans:
// requests are keyed by kind and seed, which the job lists keep unique.
type traced struct {
	tr       *tracer
	mu       sync.Mutex
	byReq    map[string]tracedJob
	byJobID  map[string]tracedJob
	problems []*problem.Problem
}

type tracedJob struct {
	key   string
	runID int64 // the server-side run span, parent of eval spans
	root  int64 // the client span
}

func reqKey(kind string, seed uint64) string { return fmt.Sprintf("%s/%d", kind, seed) }

func (t *traced) resolve(req *jobs.Request) (*problem.Problem, error) {
	p, err := jobs.ResolveProblem(req)
	if err != nil || req.Options.Seed == nil {
		return p, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tj, ok := t.byReq[reqKey(req.Kind, *req.Options.Seed)]
	if !ok {
		return p, nil // a warm-up job
	}
	t.problems = append(t.problems, p)
	return t.tr.instrument(p, tj.key, tj.runID), nil
}

// timedStore records every journal append and compaction as a span.
type timedStore struct {
	jobs.Store
	tr *tracer
}

func (s *timedStore) Append(rec *jobs.Record) error {
	start := s.tr.now()
	err := s.Store.Append(rec)
	s.tr.add(0, 0, rec.Job, "store.append", start, s.tr.now())
	return err
}

func (s *timedStore) Compact(recs []*jobs.Record) error {
	start := s.tr.now()
	err := s.Store.Compact(recs)
	s.tr.add(0, 0, "", "store.compact", start, s.tr.now())
	return err
}

// daemon is one in-process specwised and the client that talks to it.
type daemon struct {
	dir    string
	file   *store.File
	mgr    *jobs.Manager
	srv    *http.Server
	served chan error
	url    string
	client *http.Client
}

func (w *svcWorkload) boot(tc *traced) (*daemon, error) {
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(w.dir, "svc-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir}
	if d.file, err = store.Open(filepath.Join(dir, "jobs.wal"), store.Options{}); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	cfg := jobs.Config{Workers: 2, SharedEvalCache: true, Store: d.file}
	if tc != nil {
		cfg.Store = &timedStore{Store: d.file, tr: tc.tr}
		cfg.Resolve = tc.resolve
	}
	if d.mgr, err = jobs.Open(cfg); err != nil {
		d.file.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.mgr.Shutdown()
		os.RemoveAll(dir)
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	d.srv = &http.Server{Handler: server.New(d.mgr)}
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve(ln) }()
	// One connection per client: the two clients never hold more.
	d.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	return d, nil
}

// close stops the server, drains the manager (closing the store) and
// removes the daemon's directory.
func (d *daemon) close() error {
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.mgr.Shutdown()
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// do runs one job through the HTTP API: POST, wait on the SSE stream for
// the terminal state event, then fetch the result.
func (d *daemon) do(ctx context.Context, key string, req jobs.Request, tc *traced) (*opRecord, *jobs.Result) {
	op := &opRecord{key: key, kind: req.Kind, ok: true}
	var tj tracedJob
	if tc != nil {
		tj = tracedJob{key: key, runID: tc.tr.newID(), root: tc.tr.newID()}
		tc.mu.Lock()
		tc.byReq[reqKey(req.Kind, *req.Options.Seed)] = tj
		tc.mu.Unlock()
	}
	body, err := json.Marshal(req)
	if err != nil {
		op.fail("%s: %v", key, err)
		return op, nil
	}
	t0 := time.Now()
	resp, err := d.client.Post(d.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		op.fail("%s: submit: %v", key, err)
		return op, nil
	}
	var sub struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	t1 := time.Now()
	op.submit = t1.Sub(t0).Seconds()
	code := resp.StatusCode
	op.refused = code == http.StatusTooManyRequests || code == http.StatusRequestEntityTooLarge || code >= 500
	if code != http.StatusAccepted || err != nil {
		// 200 would be a result-cache hit: the job lists never repeat a
		// request, so it is a fault like a refusal (429, 413, 5xx).
		op.fail("%s: submit: HTTP %d %v", key, resp.StatusCode, err)
		return op, nil
	}

	st, progress, err := d.wait(ctx, sub.ID)
	op.latency = time.Since(t0).Seconds()
	if err != nil {
		op.fail("%s: events: %v", key, err)
		return op, nil
	}
	if st.StartedAt != nil && st.FinishedAt != nil {
		op.wait = st.StartedAt.Sub(st.EnqueuedAt).Seconds()
		op.run = st.FinishedAt.Sub(*st.StartedAt).Seconds()
		for _, pe := range progress {
			op.events = append(op.events, pe.Time.Sub(*st.StartedAt).Seconds())
			op.stages = append(op.stages, pe.Stage)
		}
	}
	t2 := time.Now()
	resp, err = d.client.Get(d.url + "/v1/jobs/" + sub.ID + "/result")
	if err != nil {
		op.fail("%s: result: %v", key, err)
		return op, nil
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	op.result = time.Since(t2).Seconds()
	op.resultBytes = len(blob)
	if tc != nil {
		tc.recordJob(tj, sub.ID, t0, t1, t2, time.Now(), st, progress)
	}
	if st.State != jobs.StateDone || resp.StatusCode != http.StatusOK || err != nil {
		op.fail("%s: job %s ended %s (%s), result HTTP %d", key, sub.ID, st.State, st.Error, resp.StatusCode)
		return op, nil
	}
	var res jobs.Result
	if err := json.Unmarshal(blob, &res); err != nil {
		op.fail("%s: decode result: %v", key, err)
		return op, nil
	}
	checkServiceResult(op, req, &res)
	return op, &res
}

// wait follows the job's SSE stream until the terminal state event and
// returns that status with the progress events seen.
func (d *daemon) wait(ctx context.Context, id string) (jobs.Status, []jobs.ProgressEntry, error) {
	var st jobs.Status
	var progress []jobs.ProgressEntry
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return st, nil, err
	}
	resp, err := d.client.Do(hreq)
	if err != nil {
		return st, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := []byte(strings.TrimPrefix(line, "data: "))
			switch event {
			case "progress":
				var pe jobs.ProgressEntry
				if err := json.Unmarshal(data, &pe); err != nil {
					return st, nil, err
				}
				progress = append(progress, pe)
			case "state":
				if err := json.Unmarshal(data, &st); err != nil {
					return st, nil, err
				}
				if st.State.Terminal() {
					// The server ends the stream after this event; reading
					// to the end lets the client reuse the connection.
					_, err := io.Copy(io.Discard, resp.Body)
					return st, progress, err
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return st, nil, err
	}
	return st, nil, errors.New("stream ended before a terminal state")
}

// recordJob adds the client-side and status-derived spans of one job.
func (tc *traced) recordJob(tj tracedJob, id string, t0, t1, t2, t3 time.Time, st jobs.Status, progress []jobs.ProgressEntry) {
	tr := tc.tr
	tc.mu.Lock()
	tc.byJobID[id] = tj
	tc.mu.Unlock()
	tr.add(tj.root, 0, tj.key, "client", tr.at(t0), tr.at(t2))
	tr.add(0, tj.root, tj.key, "http.submit", tr.at(t0), tr.at(t1))
	tr.add(0, 0, tj.key, "http.result", tr.at(t2), tr.at(t3))
	if st.StartedAt == nil || st.FinishedAt == nil {
		return
	}
	start, end := tr.at(*st.StartedAt), tr.at(*st.FinishedAt)
	tr.add(0, tj.root, tj.key, "queue", tr.at(st.EnqueuedAt), start)
	tr.add(tj.runID, tj.root, tj.key, "run", start, end)
	if st.Kind == jobs.KindOptimize {
		events := make([]int64, len(progress))
		for k, pe := range progress {
			events[k] = tr.at(pe.Time)
		}
		tr.addIterations(tj.key, tj.runID, start, end, events)
	}
}

// checkServiceResult checks a fetched result against its request.
func checkServiceResult(op *opRecord, req jobs.Request, res *jobs.Result) {
	switch req.Kind {
	case jobs.KindVerify:
		v := res.Verification
		if v == nil {
			op.fail("%s: verify result missing", op.key)
			return
		}
		if v.Samples != req.Options.VerifySamples {
			op.fail("%s: %d samples verified, want %d", op.key, v.Samples, req.Options.VerifySamples)
		}
		checkYield(op, v.Yield)
	default:
		r := res.Optimization
		if r == nil || len(r.Iterations) == 0 {
			op.fail("%s: optimize result missing", op.key)
			return
		}
		last := r.Iterations[len(r.Iterations)-1]
		if last.MCYield == nil {
			op.fail("%s: final yield missing", op.key)
			return
		}
		op.finalYield = *last.MCYield
		op.sims = r.Simulations + r.ConstraintSims
		op.hits, op.misses = r.Perf.EvalCacheHits, r.Perf.EvalCacheMisses
		op.cross, op.deduped = r.Perf.EvalCacheCrossHits, r.Perf.EvalCacheDeduped
		checkYield(op, op.finalYield)
	}
}

// run sets up, then runs both clients' job lists once; tr is nil for
// untraced runs.
func (w *svcWorkload) run(ctx context.Context, seed uint64, seconds int, tr *tracer) (*pass, error) {
	pl := w.plan(seed, seconds)
	ps := &pass{}
	var tc *traced
	if tr != nil {
		tc = &traced{tr: tr, byReq: map[string]tracedJob{}, byJobID: map[string]tracedJob{}}
	}
	var d *daemon
	for i := 0; i < w.setups; i++ {
		start := time.Now()
		var err error
		if d, err = w.boot(tc); err != nil {
			return nil, fmt.Errorf("boot daemon: %w", err)
		}
		for _, req := range []jobs.Request{w.optimizeRequest(pl.wcSeed, warmSeed), w.verifyRequest(warmSeed)} {
			if op, _ := d.do(ctx, "warm-up", req, nil); !op.ok {
				d.close()
				return nil, errors.New(op.err)
			}
		}
		ps.setups = append(ps.setups, time.Since(start).Seconds())
		if i < w.setups-1 {
			if err := d.close(); err != nil {
				return nil, fmt.Errorf("stop daemon: %w", err)
			}
		}
	}

	var traceStart int64
	if tr != nil {
		traceStart = tr.now()
	}
	st0 := d.file.Stats()
	m := startMeter()
	lists := [][]jobs.Request{nil, nil}
	for _, s := range pl.optSeeds {
		lists[0] = append(lists[0], w.optimizeRequest(pl.wcSeed, s))
	}
	for _, s := range pl.verifySeeds {
		lists[1] = append(lists[1], w.verifyRequest(s))
	}
	ops := make([][]*opRecord, 2)
	var firstOpt *jobs.Result
	var wg sync.WaitGroup
	for c := range lists {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, req := range lists[c] {
				op, res := d.do(ctx, fmt.Sprintf("%c-%d", 'A'+c, i), req, tc)
				if c == 0 && i == 0 {
					firstOpt = res
				}
				ops[c] = append(ops[c], op)
			}
		}(c)
	}
	wg.Wait()
	m.stop(ps)
	ps.ops = append(ops[0], ops[1]...)
	st1 := d.file.Stats()
	ps.store = storeCounts{bytes: st1.Bytes - st0.Bytes, compactions: st1.Snapshots - st0.Snapshots}
	if err := d.close(); err != nil {
		return nil, fmt.Errorf("stop daemon: %w", err)
	}

	// The first optimize result must match a direct library call with the
	// same options, effort fields aside.
	if ops[0][0].ok {
		if err := w.matchLibrary(ctx, pl.wcSeed, pl.optSeeds[0], firstOpt); err != nil {
			ops[0][0].fail("%s: %v", ops[0][0].key, err)
		}
	}
	if tc != nil {
		ps.spans = tc.finish(traceStart)
		for _, p := range tc.problems {
			ps.sim.Add(p.SimStats())
		}
	}
	return ps, nil
}

// finish attaches the store spans to their jobs and returns the spans
// of the timed job list.
func (tc *traced) finish(since int64) []span {
	tr := tc.tr
	tc.mu.Lock()
	tr.mu.Lock()
	for k := range tr.spans {
		s := &tr.spans[k]
		if tj, ok := tc.byJobID[s.Job]; ok && s.Name == "store.append" {
			s.Job, s.Parent = tj.key, tj.root
		}
	}
	tr.mu.Unlock()
	tc.mu.Unlock()
	var out []span
	for _, s := range tr.snapshot() {
		if s.Start >= since {
			out = append(out, s)
		}
	}
	return out
}

// matchLibrary reruns the job through specwise.OptimizeContext and
// compares designs, yields and margins with the service's result.
func (w *svcWorkload) matchLibrary(ctx context.Context, wcSeed, seed uint64, got *jobs.Result) error {
	res, err := specwise.OptimizeContext(ctx, specwise.OTA(), w.libraryOptions(wcSeed, seed))
	if err != nil {
		return fmt.Errorf("library run: %w", err)
	}
	want := report.JSONResult(res)
	have := *got.Optimization
	want.StripEffortVolatile()
	have.StripEffortVolatile()
	a, err := json.Marshal(want)
	if err != nil {
		return err
	}
	b, err := json.Marshal(&have)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return errors.New("service result differs from the library call")
	}
	return nil
}

func (w *svcWorkload) replay(ctx context.Context, seed uint64, seconds int) (*replayResult, error) {
	pl := w.plan(seed, seconds)
	return stageReplay(ctx, specwise.OTA(), w.libraryOptions(pl.wcSeed, pl.optSeeds[0]))
}
