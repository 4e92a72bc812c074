// Command mwvc-serve runs the minimum-weight vertex cover solve service: a
// bounded worker pool over the solver registry behind an HTTP API.
//
//	mwvc-serve -addr :8437 -workers 8 -queue 64
//
// API (see internal/serve and DESIGN.md):
//
//	POST /v1/graphs            upload a graph in the text format → content hash
//	POST /v1/solve             {"graph": "sha256:...", "algorithm": "mpc", ...}
//	GET  /v1/solve/{id}        status / result of a request
//	GET  /v1/solve/{id}/trace  live round-by-round solve events (SSE)
//	GET  /metrics              Prometheus text metrics
//	GET  /healthz              readiness (503 once shutdown drain begins)
//
// With -data-dir the graph store is durable: uploads are fsynced to disk
// before they are acknowledged, and a restart recovers every acknowledged
// graph. With -degrade the engine downgrades eligible requests to the fast
// tier's preferred solver once the queue is three quarters full, instead
// of making them wait full-cost or 429ing outright.
//
// A quick session against a running server:
//
//	mwvc-gen -gen gnp -n 10000 -d 32 | curl -s --data-binary @- localhost:8437/v1/graphs
//	curl -s localhost:8437/v1/solve -d '{"graph":"sha256:...","algorithm":"mpc","epsilon":0.1}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	mwvc "repro"
	"repro/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", ":8437", "listen address")
		workers     = flag.Int("workers", 0, "concurrent solves (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 0, "request queue depth before 429s (0 = 4×workers)")
		parallelism = flag.Int("solver-parallelism", 0, "simulated-machine parallelism per solve (0 = GOMAXPROCS/workers)")
		defTimeout  = flag.Duration("default-timeout", 60*time.Second, "deadline for requests that specify none")
		maxTimeout  = flag.Duration("max-timeout", 10*time.Minute, "cap on per-request deadlines")
		maxGraphs   = flag.Int("max-graphs", 0, "graph store cap (0 = 1024)")
		dataDir     = flag.String("data-dir", "", "durable graph store directory (empty = in-memory only)")
		degrade     = flag.Bool("degrade", false, "downgrade eligible requests to the fast tier's preferred solver under overload")
	)
	flag.Parse()

	engine, err := serve.NewEngine(serve.Config{
		Workers:           *workers,
		QueueDepth:        *queue,
		SolverParallelism: *parallelism,
		DefaultTimeout:    *defTimeout,
		MaxTimeout:        *maxTimeout,
		MaxGraphs:         *maxGraphs,
		DataDir:           *dataDir,
		DegradeEnabled:    *degrade,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mwvc-serve:", err)
		os.Exit(1)
	}
	cfg := engine.Config()
	log.Printf("mwvc-serve listening on %s (workers=%d queue=%d solver-parallelism=%d)",
		*addr, cfg.Workers, cfg.QueueDepth, cfg.SolverParallelism)
	if *dataDir != "" {
		rec := engine.Graphs().Recovery()
		log.Printf("durable store %s: recovered %d graph(s), quarantined %d, removed %d temp(s)",
			*dataDir, rec.Recovered, rec.Quarantined, rec.TempsRemoved)
	}
	log.Printf("algorithms: %v", mwvc.Algorithms())

	srv := &http.Server{
		Addr:              *addr,
		Handler:           serve.NewHandler(engine),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Graceful shutdown: stop accepting, let in-flight requests (bounded by
	// the max per-request deadline) drain, then stop the engine.
	idle := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Print("shutting down")
		// Drain first: /healthz flips to 503 and new Submits are refused with
		// Retry-After while queued and in-flight solves run to completion.
		engine.StartDrain()
		ctx, cancel := context.WithTimeout(context.Background(), cfg.MaxTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		engine.Close()
		close(idle)
	}()

	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "mwvc-serve:", err)
		os.Exit(1)
	}
	<-idle
}
