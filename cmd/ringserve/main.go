// Command ringserve exposes the ringlang recognition engines over HTTP: the
// serving tier of the reproduction, with a sharded memoization cache in
// front of one engine worker pool shared by every request.
//
// Usage:
//
//	ringserve                         # serve on :8420 with defaults
//	ringserve -addr 127.0.0.1:9000    # pick the listen address
//	ringserve -workers 0              # shared engine workers, one per CPU (default)
//	ringserve -cache 65536            # memo cache capacity in entries
//	ringserve -cache -1               # disable memoization
//	ringserve -cache-shards 64        # lock-splitting shard count
//	ringserve -max-inflight 256       # 429 past this many live requests
//	ringserve -max-words 8192         # per-request batch/stream word cap
//	ringserve -max-word 65536         # per-word letter cap (largest ring)
//	ringserve -max-body 1048576       # request body byte cap
//	ringserve -prefix-cache 33554432  # prefix-checkpoint cache bytes (-1 off)
//	ringserve -drain 10s              # graceful-shutdown budget
//	ringserve -lb-grace 3s            # healthz-drains-first window for LBs
//
// Endpoints (see README.md for the full operator guide with curl examples):
//
//	POST /v1/recognize   one word → one report
//	POST /v1/batch       many words → per-word results, word order
//	GET  /v1/stream      many words → NDJSON/SSE results, completion order
//	GET  /v1/catalog     algorithms, languages, schedules
//	GET  /healthz        liveness + cache/in-flight counters
//
// SIGINT/SIGTERM drain gracefully: the listener stops accepting, in-flight
// requests get -drain to finish (their contexts cancel at the deadline, and
// the engines abort with ErrCanceled), the engine pool is closed, and the
// process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ringlang/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ringserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ringserve", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8420", "listen address")
		workers     = fs.Int("workers", 0, "engine workers shared by all requests (0 = one per CPU)")
		cache       = fs.Int("cache", server.DefaultCacheCapacity, "memo cache capacity in entries (negative disables)")
		cacheShards = fs.Int("cache-shards", 0, "memo cache shards, rounded up to a power of two (0 = default)")
		maxInflight = fs.Int("max-inflight", 0, "max concurrently served run requests before 429 (0 = 4x CPUs)")
		maxWords    = fs.Int("max-words", server.DefaultMaxBatchWords, "max words per batch/stream request")
		maxWord     = fs.Int("max-word", server.DefaultMaxWordLetters, "max letters per word (the largest ring a request may ask for)")
		maxBody     = fs.Int64("max-body", server.DefaultMaxBodyBytes, "max request body bytes")
		prefixCache = fs.Int64("prefix-cache", server.DefaultPrefixCacheBytes, "prefix-checkpoint cache budget in bytes, shared by all requests (negative disables); distinct words sharing prefixes resume from stored engine checkpoints")
		drain       = fs.Duration("drain", 10*time.Second, "graceful-shutdown budget for in-flight requests")
		lbGrace     = fs.Duration("lb-grace", 0, "after SIGTERM, keep serving this long with /healthz answering 503 draining, so load balancers stop routing before the listener closes")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := server.New(server.Config{
		Workers:          *workers,
		CacheCapacity:    *cache,
		CacheShards:      *cacheShards,
		MaxInFlight:      *maxInflight,
		MaxBatchWords:    *maxWords,
		MaxWordLetters:   *maxWord,
		MaxBodyBytes:     *maxBody,
		PrefixCacheBytes: *prefixCache,
	})
	// Request contexts descend from reqCtx, not the signal context: a
	// SIGTERM must let in-flight requests use the drain budget, and only
	// cancel the ones that outlive it.
	reqCtx, cancelReqs := context.WithCancel(context.Background())
	defer cancelReqs()
	httpServer := &http.Server{
		Addr:        *addr,
		Handler:     srv.Handler(),
		BaseContext: func(net.Listener) context.Context { return reqCtx },
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("%s listening on %s", srv, *addr)
		errc <- httpServer.ListenAndServe()
	}()

	select {
	case err := <-errc:
		srv.Close()
		return err
	case <-ctx.Done():
	}

	// Flip /healthz to draining while still serving, then give load
	// balancers -lb-grace to notice before the listener closes.
	srv.BeginDrain()
	if *lbGrace > 0 {
		log.Printf("ringserve: advertising draining on /healthz, serving %s more for load-balancer drain", *lbGrace)
		time.Sleep(*lbGrace)
	}
	log.Printf("ringserve: draining (budget %s)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	err := httpServer.Shutdown(shutdownCtx)
	cancelReqs() // abort whatever outlived the budget; engines report ErrCanceled
	srv.Close()
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("shutdown: %w", err)
	}
	log.Printf("ringserve: drained, bye")
	return nil
}
