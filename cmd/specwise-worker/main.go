// Command specwise-worker is a remote pull-worker for the specwised
// yield-optimization service: it polls a specwised instance over the
// /v1/worker lease protocol, runs claimed jobs with the same optimizer
// machinery the daemon's in-process pool uses (results are
// bit-identical whichever pool runs a job), heartbeats its leases, and
// reports back with exponential backoff on transient HTTP errors.
//
// The paper farmed its verification Monte-Carlo out to five machines;
// this is that shape: one specwised (possibly -remote-only) front end,
// N specwise-worker processes wherever there are spare cores.
//
// Usage:
//
//	specwise-worker -server http://daemon:8080 [-token T] [-name host-1] \
//	    [-lane verify|optimize] [-poll 500ms] [-max-jobs N]
//
// The worker exits on SIGINT/SIGTERM (in-flight leases are dropped and
// requeue on the daemon after the lease TTL), after -max-jobs jobs, or
// on a fatal protocol error such as a rejected token.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"specwise/internal/core"
	"specwise/internal/jobs"
	"specwise/internal/worker"
)

func main() {
	server := flag.String("server", "http://localhost:8080", "base URL of the specwised instance")
	token := flag.String("token", "", "worker bearer token (matching specwised -worker-token)")
	name := flag.String("name", "", "worker name for leases and per-shard metrics (default hostname-pid)")
	lane := flag.String("lane", "",
		"claim only this priority lane (verify|optimize; empty = any lane under the server's weighted round-robin)")
	poll := flag.Duration("poll", 500*time.Millisecond, "idle wait between claim attempts")
	maxJobs := flag.Int("max-jobs", 0, "exit after this many executed jobs (0 = run forever)")
	sharedEvalCache := flag.Bool("shared-eval-cache", false,
		"share one local evaluation cache across jobs claimed on the same problem (bit-identical results)")
	evalCacheSize := flag.Int("eval-cache-size", 0,
		"shared evaluation-cache capacity in entries (0 = default; requires -shared-eval-cache)")
	listAlgorithms := flag.Bool("list-algorithms", false,
		"print the search backends this worker can execute and exit")
	flag.Parse()

	if *listAlgorithms {
		for _, algo := range core.Backends() {
			fmt.Println(algo)
		}
		return
	}

	if *lane != "" && !jobs.ValidLane(*lane) {
		fmt.Fprintf(os.Stderr, "specwise-worker: unknown -lane %q (want verify or optimize)\n", *lane)
		os.Exit(2)
	}
	if err := jobs.CheckEvalCacheSize(*evalCacheSize, *sharedEvalCache); err != nil {
		fmt.Fprintf(os.Stderr, "specwise-worker: %v\n", err)
		os.Exit(2)
	}

	if *name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	log.Printf("specwise-worker %s polling %s", *name, *server)
	err := worker.Run(ctx, worker.Config{
		Server:          *server,
		Token:           *token,
		Name:            *name,
		Lane:            *lane,
		Poll:            *poll,
		MaxJobs:         *maxJobs,
		SharedEvalCache: *sharedEvalCache,
		EvalCacheSize:   *evalCacheSize,
		Logf:            log.Printf,
	})
	switch {
	case err == nil || errors.Is(err, context.Canceled):
		log.Printf("specwise-worker %s exiting", *name)
	default:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
