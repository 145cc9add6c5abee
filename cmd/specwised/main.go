// Command specwised is the yield-optimization daemon: it serves the
// spec-wise-linearization optimizer over an HTTP JSON API with an async
// job queue, a worker pool and a content-hash result cache.
//
// Usage:
//
//	specwised [-addr :8080] [-workers N] [-queue N] \
//	    [-verify-queue N] [-optimize-queue N] \
//	    [-verify-weight 3] [-optimize-weight 1] \
//	    [-worker-token T] [-lease-ttl 30s] [-remote-only] \
//	    [-retain-jobs N] [-retain-for D] \
//	    [-store jobs.wal] [-snapshot-every N] [-pprof-addr :6060]
//
// Jobs are classified into two priority lanes at submit — cheap
// "verify" jobs and heavy "optimize" jobs (options.lane overrides the
// kind-based default) — and drained by a weighted round-robin so an
// interactive verify never waits behind a wall of optimizes. Each lane
// has its own bounded queue (-verify-queue / -optimize-queue, falling
// back to -queue); a full lane rejects submissions with 429 and a
// Retry-After computed from the lane's recent drain rate. Job progress
// can be streamed live over server-sent events from
// GET /v1/jobs/{id}/events.
//
// -pprof-addr serves net/http/pprof on a separate listener (off by
// default, never on the API address): profile a live daemon with
// `go tool pprof http://host:6060/debug/pprof/profile` — the offline
// counterpart of `make profile`, which captures CPU/mutex/block
// profiles of the Table-1 benchmark.
//
// Remote pull-workers (cmd/specwise-worker) claim jobs over the
// /v1/worker lease endpoints; -worker-token gates that API,
// -lease-ttl bounds how long a silent worker holds a job before it is
// requeued, and -remote-only disables the in-process pool so every job
// runs on remote workers.
//
// -store enables the durable control plane: every submission, lease
// and result is journaled to the given single-file WAL before it is
// acknowledged, and a restart recovers the full pre-crash state —
// queued jobs re-enter the queue in submit order, finished results
// re-warm the cache, and remote workers reattach to leases still
// within their TTL. -snapshot-every bounds the journal by compacting
// it into a snapshot after that many records. Without -store the
// daemon runs in-memory only, exactly as before.
//
// Submit a job and read it back:
//
//	curl -s -X POST localhost:8080/v1/jobs -d '{"circuit":"ota",
//	  "options":{"modelSamples":2000,"verifySamples":200,"maxIterations":2,"seed":7}}'
//	curl -s localhost:8080/v1/jobs/job-000001
//	curl -s localhost:8080/v1/jobs/job-000001/result
//	curl -s -X DELETE localhost:8080/v1/jobs/job-000001
//	curl -s localhost:8080/metrics
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: the listener
// drains, and with a persistent store the queue and in-flight state are
// journaled (interrupted local runs requeue with their retry budget
// intact) before the store is synced and closed; without one, in-flight
// jobs are cancelled through their contexts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"specwise/internal/core"
	"specwise/internal/jobs"
	"specwise/internal/search"
	"specwise/internal/server"
	"specwise/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	workers := flag.Int("workers", 0, "optimizer workers (0 = half the CPUs)")
	queue := flag.Int("queue", 64, "per-lane job queue capacity (default for both lanes)")
	verifyQueue := flag.Int("verify-queue", 0,
		"verify-lane queue capacity (0 = use -queue)")
	optimizeQueue := flag.Int("optimize-queue", 0,
		"optimize-lane queue capacity (0 = use -queue)")
	verifyWeight := flag.Int("verify-weight", 3,
		"verify-lane share of the drain round-robin (relative to -optimize-weight)")
	optimizeWeight := flag.Int("optimize-weight", 1,
		"optimize-lane share of the drain round-robin (relative to -verify-weight)")
	pprofAddr := flag.String("pprof-addr", "",
		"serve net/http/pprof on this separate listen address (empty = disabled)")
	workerToken := flag.String("worker-token", "",
		"bearer token required on the /v1/worker endpoints (empty = open)")
	leaseTTL := flag.Duration("lease-ttl", 30*time.Second,
		"remote-worker lease TTL; a silent lease past this is requeued")
	remoteOnly := flag.Bool("remote-only", false,
		"disable the in-process pool: every job runs on remote pull-workers")
	retainJobs := flag.Int("retain-jobs", 0,
		"max terminal jobs kept for status queries (0 = default 512, negative = unlimited)")
	retainFor := flag.Duration("retain-for", 0,
		"evict terminal jobs older than this (0 = no TTL sweep)")
	storePath := flag.String("store", "",
		"persistent job-store file (WAL + snapshots); empty = in-memory only")
	snapshotEvery := flag.Int("snapshot-every", 0,
		"compact the store after this many journaled records (0 = default 1024, negative = never)")
	sharedEvalCache := flag.Bool("shared-eval-cache", false,
		"share one evaluation cache across jobs on the same problem (sweep members reuse each other's simulations; bit-identical results)")
	evalCacheSize := flag.Int("eval-cache-size", 0,
		"shared evaluation-cache capacity in entries (0 = default; requires -shared-eval-cache)")
	defaultAlgorithm := flag.String("default-algorithm", "",
		"search backend stamped onto optimize jobs that omit options.algorithm "+
			"(empty keeps requests untouched and request hashes byte-compatible; see -list-algorithms)")
	listAlgorithms := flag.Bool("list-algorithms", false,
		"print the registered search backends and exit")
	flag.Parse()

	if *listAlgorithms {
		for _, name := range search.Names() {
			fmt.Println(name)
		}
		return
	}
	if *defaultAlgorithm != "" && !core.KnownBackend(*defaultAlgorithm) {
		fmt.Fprintf(os.Stderr, "unknown -default-algorithm %q (registered: %s)\n",
			*defaultAlgorithm, strings.Join(search.Names(), ", "))
		os.Exit(2)
	}
	if err := jobs.CheckEvalCacheSize(*evalCacheSize, *sharedEvalCache); err != nil {
		fmt.Fprintf(os.Stderr, "specwised: %v\n", err)
		os.Exit(2)
	}

	if *pprofAddr != "" {
		go servePprof(*pprofAddr)
	}

	if err := run(*addr, *workerToken, *storePath, jobs.Config{
		Workers:    *workers,
		RemoteOnly: *remoteOnly,
		QueueSize:  *queue,
		LaneQueueSize: map[string]int{
			jobs.LaneVerify:   *verifyQueue,
			jobs.LaneOptimize: *optimizeQueue,
		},
		LaneWeights: map[string]int{
			jobs.LaneVerify:   *verifyWeight,
			jobs.LaneOptimize: *optimizeWeight,
		},
		LeaseTTL:         *leaseTTL,
		RetainJobs:       *retainJobs,
		RetainFor:        *retainFor,
		SnapshotEvery:    *snapshotEvery,
		SharedEvalCache:  *sharedEvalCache,
		EvalCacheSize:    *evalCacheSize,
		DefaultAlgorithm: *defaultAlgorithm,
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// servePprof exposes net/http/pprof on its own listener and mux, so the
// profiling surface never shares an address (or an auth story) with the
// public API. Errors are logged, not fatal: a daemon that cannot bind
// its debug port still serves jobs.
func servePprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Printf("pprof listener: %v", err)
		return
	}
	log.Printf("pprof listening on %s", ln.Addr())
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	if err := srv.Serve(ln); err != nil {
		log.Printf("pprof server: %v", err)
	}
}

func run(addr, workerToken, storePath string, cfg jobs.Config) error {
	if storePath != "" {
		st, err := store.Open(storePath, store.Options{})
		if err != nil {
			return err
		}
		cfg.Store = st
	}
	manager, err := jobs.Open(cfg)
	if err != nil {
		return err
	}
	if storePath != "" {
		if n := manager.Metrics().RecoveredJobs(); n > 0 {
			log.Printf("recovered %d jobs from %s", n, storePath)
		}
	}
	srv := &http.Server{
		Handler:           server.New(manager, server.WithWorkerToken(workerToken)),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// An explicit listener (rather than ListenAndServe) so ":0" logs the
	// actual port — the crash-recovery e2e and local smoke runs depend
	// on scraping it.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("specwised listening on %s", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	case s := <-sig:
		log.Printf("signal %v: shutting down", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		// Shutdown (not Close): with a persistent store the queue and
		// lease table stay journaled for the next boot, and interrupted
		// local runs requeue instead of cancelling.
		manager.Shutdown()
		log.Printf("specwised stopped")
	}
	return nil
}
