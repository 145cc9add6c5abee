package jobs

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"specwise/internal/testprob"
)

// metricsPage renders the manager's /metrics page.
func metricsPage(m *Manager) string {
	var b strings.Builder
	m.Metrics().WriteText(&b)
	return b.String()
}

// metricValue reads one sample off the rendered page; series is the
// sample's name with its label set, as the page prints it (for example
// `specwised_lane_done{lane="verify"}`). A series missing from the
// page fails the test.
func metricValue(t *testing.T, m *Manager, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(metricsPage(m), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", series, err)
			}
			return f
		}
	}
	t.Fatalf("metrics page has no %s", series)
	return 0
}

// maskedSeries matches the series whose values depend on wall time or
// on process-wide state (the sched semaphore is shared by every manager
// in the test binary).
var maskedSeries = regexp.MustCompile(`_seconds|uptime|utilization|^specwised_sched_`)

// goldenSamples is the page's sample lines, sorted, with the masked
// values replaced by "*". Whether a repeated cache lookup finds its entry
// completed (a hit) or in flight (a dedupe) depends on goroutine timing,
// so the two evalcache counters are masked and their sum appended.
func goldenSamples(t *testing.T, page string) []string {
	t.Helper()
	var out []string
	var joined int64
	for _, line := range strings.Split(strings.TrimSpace(page), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		series, value := line[:i], line[i+1:]
		switch {
		case series == "specwised_evalcache_hits_total" || series == "specwised_evalcache_deduped_total":
			n, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			joined += n
			value = "*"
		case maskedSeries.MatchString(series):
			value = "*"
		}
		out = append(out, series+" "+value)
	}
	out = append(out, "specwised_evalcache_hits_total+specwised_evalcache_deduped_total "+strconv.FormatInt(joined, 10))
	sort.Strings(out)
	return out
}

// metricsScenario drives one fake-clock manager through every kind of
// transition the page accounts for and leaves one job queued and one
// leased.
func metricsScenario(t *testing.T) *Manager {
	t.Helper()
	clk := newFakeClock()
	m := leaseManager(t, clk, Config{LeaseTTL: 30 * time.Second, CacheSize: 1, RetainJobs: 2})

	// A local run to done: the test is the local pool.
	local := submitQuick(t, m, 1)
	m.run(m.dequeue())
	res, done := local.Result()
	if !done {
		t.Fatalf("local run ended %v: %s", local.State(), local.Err())
	}
	// A result-cache hit.
	if j := submitQuick(t, m, 1); !j.Status().Cached {
		t.Fatal("resubmission missed the result cache")
	}
	// A batch of one optimize and one verify request, the optimize twice.
	opt := quickOpts
	opt.Seed = Seed(3)
	optReq := Request{Circuit: "analytic", Options: opt}
	verReq := Request{Kind: KindVerify, Circuit: "analytic", Options: RunOptions{VerifySamples: 50, Seed: Seed(4)}}
	if _, err := m.SubmitBatch([]Request{optReq, optReq, verReq}); err != nil {
		t.Fatal(err)
	}
	// Claim + complete (its result evicts the local run's from the
	// one-entry cache) and claim + fail.
	lease, err := m.ClaimLane("w1", LaneOptimize)
	if err != nil || lease == nil {
		t.Fatalf("claim = %+v, %v", lease, err)
	}
	if err := m.Complete(lease.JobID, lease.LeaseID, res); err != nil {
		t.Fatal(err)
	}
	if lease, err = m.ClaimLane("w2", LaneVerify); err != nil || lease == nil {
		t.Fatalf("claim = %+v, %v", lease, err)
	}
	if err := m.Fail(lease.JobID, lease.LeaseID, "boom"); err != nil {
		t.Fatal(err)
	}
	// A lease expiry that requeues, then a cancel of the requeued job,
	// which pushes the local run out of the two-job retention.
	expiring := submitQuick(t, m, 5)
	if lease, err = m.Claim("w1"); err != nil || lease == nil {
		t.Fatalf("claim = %+v, %v", lease, err)
	}
	clk.Advance(31 * time.Second)
	m.sweep(clk.Now())
	if st := expiring.State(); st != StateQueued {
		t.Fatalf("expired lease left the job %v", st)
	}
	if _, err := m.Cancel(expiring.ID()); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get(local.ID()); ok {
		t.Fatal("retention kept the oldest terminal job")
	}
	// Live work at scrape time: one job queued, one leased.
	submitVerify(t, m, 6)
	submitQuick(t, m, 7)
	if lease, err = m.ClaimLane("w3", LaneOptimize); err != nil || lease == nil {
		t.Fatalf("claim = %+v, %v", lease, err)
	}
	return m
}

// TestMetricsExpositionGolden compares the scenario's sample set against
// a golden recorded before the metrics registry existed: series names,
// label sets and deterministic values must not move, only their order
// on the page.
func TestMetricsExpositionGolden(t *testing.T) {
	got := goldenSamples(t, metricsPage(metricsScenario(t)))
	path := filepath.Join("testdata", "metrics_golden.txt")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(blob)), "\n")
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("sample set differs from %s\ngot:\n%s", path, strings.Join(got, "\n"))
	}
}

// The scenario's page follows the exposition grammar: one TYPE line per
// family, each family's samples grouped under it, legal escapes only.
func TestMetricsExpositionGrammar(t *testing.T) {
	page := metricsPage(metricsScenario(t))
	if err := testprob.CheckExposition(page); err != nil {
		t.Errorf("%v\n%s", err, page)
	}
}

// The job gauges are counted from the job table under its locks, so a
// scrape racing submissions and runs never sees a negative queue or a
// job counted in two states.
func TestMetricsJobGaugesUnderLoad(t *testing.T) {
	m := testManager(t, Config{Workers: 2}, 0)
	const n = 20
	submitted := make(chan struct{})
	go func() {
		defer close(submitted)
		for i := uint64(0); i < n; i++ {
			opts := quickOpts
			opts.Seed = Seed(100 + i)
			if _, err := m.Submit(Request{Circuit: "analytic", Options: opts}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for more := true; more; {
		select {
		case <-submitted:
			more = false
		default:
		}
		page := metricsPage(m)
		var queued, running float64 = -1, -1
		for _, line := range strings.Split(page, "\n") {
			if v, ok := strings.CutPrefix(line, "specwised_jobs_queued "); ok {
				queued, _ = strconv.ParseFloat(v, 64)
			} else if v, ok := strings.CutPrefix(line, "specwised_jobs_running "); ok {
				running, _ = strconv.ParseFloat(v, 64)
			}
		}
		if queued < 0 || running < 0 || running > 2 || queued+running > n {
			t.Fatalf("queued %v, running %v with %d jobs on 2 workers", queued, running, n)
		}
	}
}
