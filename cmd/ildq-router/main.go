// Command ildq-router fronts a tile-partitioned fleet of ildq-serve
// shards with the standard wire format: one-shot evaluation, update
// ingestion, standing range queries with multiplexed delta streams,
// router metrics, and a fleet health report.
//
// The space is split by a tile map (internal/shard): queries fan out
// to the shards whose tiles intersect their probe/guard region and the
// responses are merged bit-exactly against what a single engine
// holding all the data would answer; updates are routed by the
// ownership rule (points to their home shard, uncertain objects
// replicated to every overlapping shard), and every other shard gets a
// delete of the id, which evicts a copy the id left behind there.
// Deletes go to every shard. The router keeps no placement state, so
// a restarted router routes as the one before it did.
//
// Usage:
//
//	ildq-router -shards http://127.0.0.1:9001,http://127.0.0.1:9002 \
//	            -tiles "grid:4x2@0,0,10000,10000;shards=2"
//	ildq-router -shards ... -tiles ... -addr :8080 -retries 4
//
// Each shard should run ildq-serve with -shard-id <index> and -tiles
// set to the same spec; /healthz flags members serving a different
// tile map (see docs/sharding.md).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/shard"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		shardsFlag = flag.String("shards", "", "comma-separated shard base URLs, in tile-map shard order (required)")
		tilesFlag  = flag.String("tiles", "", "tile map spec, e.g. grid:4x2@0,0,10000,10000;shards=2 (required)")
		retries    = flag.Int("retries", 0, "per-shard request attempts (0 = default policy)")
		backoff    = flag.Duration("retry-backoff", 0, "initial retry backoff (0 = default policy)")
		maxSamples = flag.Int64("max-samples", 0, "router-side NN refinement sample budget (0 = standalone-server default)")
		timeout    = flag.Duration("shard-timeout", 30*time.Second, "per-shard HTTP timeout (a delta feed: only while it opens)")
		logLevel   = flag.String("log-level", "info", "log level: debug, info, warn, or error")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fatal(fmt.Errorf("bad -log-level %q: %w", *logLevel, err))
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)

	if *shardsFlag == "" || *tilesFlag == "" {
		fmt.Fprintln(os.Stderr, "ildq-router: -shards and -tiles are required")
		flag.Usage()
		os.Exit(2)
	}
	tiles, err := shard.Parse(*tilesFlag)
	if err != nil {
		fatal(err)
	}
	urls := strings.Split(*shardsFlag, ",")
	if len(urls) != tiles.NumShards() {
		fatal(fmt.Errorf("tile map wants %d shards, -shards lists %d", tiles.NumShards(), len(urls)))
	}
	// The timeout bounds every scatter exchange; a delta feed, which
	// stays open for the router's life, is held to it only while it
	// opens (shard.Client.OpenFeed).
	httpc := &http.Client{Timeout: *timeout}
	clients := make([]*shard.Client, len(urls))
	for i, u := range urls {
		clients[i] = &shard.Client{
			ID:      fmt.Sprint(i),
			BaseURL: strings.TrimRight(strings.TrimSpace(u), "/"),
			HTTP:    httpc,
			Retry:   shard.RetryPolicy{Attempts: *retries, Backoff: *backoff},
		}
	}
	router, err := shard.NewRouter(tiles, clients, shard.Config{Logger: logger, MaxSamples: *maxSamples})
	if err != nil {
		fatal(err)
	}

	rep := router.Health(context.Background())
	logger.Info("fleet", "tiles", tiles.Spec(), "shards", len(clients), "status", rep.Status)
	for id, sh := range rep.Shards {
		if sh.Status != "ok" {
			logger.Warn("shard not ready", "shard", id, "status", sh.Status, "err", sh.Error)
		}
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           shard.NewServer(router),
		ReadHeaderTimeout: 5 * time.Second,
	}
	logger.Info("listening", "addr", *addr)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("server exited", "err", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop()
		logger.Info("shutting down")
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv.Shutdown(shCtx); err != nil {
			logger.Warn("http shutdown", "err", err)
		}
		cancel()
		router.Close()
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ildq-router: %v\n", err)
	os.Exit(1)
}
