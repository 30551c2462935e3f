// Command ildq-serve exposes the engine and the continuous-query
// monitor over an HTTP/JSON API: one-shot evaluation, standing-query
// registration with server-sent-event delta streams, update-batch
// ingestion, and Prometheus metrics.
//
// The wire format is a direct JSON encoding of core.Request /
// core.Response, shared by the one-shot and standing paths: kind
// ("uncertain" default, "points", "nn"), issuer, w/h, threshold, k,
// nn_samples, seed. Unknown fields and malformed requests
// are rejected with structured 400s carrying the offending field.
// Setting "trace": true on /v1/evaluate returns the per-stage cost
// breakdown (snapshot pin, index filter, refinement, merge) with the
// response.
//
// Usage:
//
//	ildq-serve                          # empty world, fed via /v1/updates
//	ildq-serve -points 8000 -rects 10000 -addr :8080
//	ildq-serve -slow-query 50ms -pprof  # log slow queries, expose /debug/pprof
//	ildq-serve -data-dir /var/lib/ildq  # durable: WAL + checkpoints, recovers on boot
//
// With -data-dir the engine is durable: committed update batches are
// written ahead to a log (-fsync selects the sync policy), checkpoints
// run automatically (-checkpoint-every) and on demand (POST
// /v1/admin/checkpoint), restarts recover the committed state, and
// shutdown (SIGINT/SIGTERM) closes the engine cleanly with a final
// checkpoint. /healthz reports the recovery and checkpoint state.
//
// Quickstart (against a synthetic world):
//
//	# one-shot C-IUQ
//	curl -s localhost:8080/v1/evaluate -d '{
//	  "issuer": {"region": [4800, 4800, 5200, 5200]},
//	  "w": 500, "h": 500, "threshold": 0.5}'
//
//	# nearest neighbor with the per-stage cost breakdown
//	curl -s localhost:8080/v1/evaluate -d '{
//	  "kind": "nn", "issuer": {"region": [4800, 4800, 5200, 5200]}, "k": 3,
//	  "trace": true}'
//
//	# standing query: register, stream deltas, feed updates
//	curl -s localhost:8080/v1/queries -d '{
//	  "issuer": {"region": [4800, 4800, 5200, 5200]}, "w": 500, "h": 500}'
//	curl -N localhost:8080/v1/queries/1/stream &
//	curl -s localhost:8080/v1/updates -d '{"updates": [
//	  {"op": "upsert_object", "id": 42, "region": [4900, 4900, 4960, 4960]}]}'
//	curl -s localhost:8080/metrics
//
// See docs/metrics.md for the full metric reference.
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
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/monitor"
	"repro/internal/serve"
	"repro/internal/uncertain"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		points     = flag.Int("points", 0, "synthetic point objects to preload (0 = empty)")
		rects      = flag.Int("rects", 0, "synthetic uncertain objects to preload (0 = empty)")
		seed       = flag.Int64("seed", 1, "synthetic dataset seed")
		workers    = flag.Int("workers", 2, "re-evaluation worker pool size")
		timeout    = flag.Duration("timeout", 0, "per-request evaluation deadline (0 = none)")
		maxSamples = flag.Int64("max-samples", 0, "per-request Monte-Carlo sample budget (0 = unlimited; nn requests always run under some budget)")
		maxPending = flag.Int("max-pending", 64, "per-subscription delta queue bound before coalescing (<0 = unbounded)")
		maxSnapAge = flag.Duration("max-snapshot-age", 0, "force-close snapshots pinned longer than this so leaked pins cannot wedge node reclamation (0 = never)")

		dataDir   = flag.String("data-dir", "", "durability directory: WAL + checkpoints, recovered on boot (empty = ephemeral)")
		fsync     = flag.String("fsync", "interval", "WAL fsync policy: always, interval, or never")
		fsyncIvl  = flag.Duration("fsync-interval", 0, "group-commit flush period for -fsync interval (0 = 50ms default)")
		ckptEvery = flag.Int("checkpoint-every", 0, "checkpoint automatically after this many committed batches (0 = only on shutdown or /v1/admin/checkpoint)")

		slowQuery  = flag.Duration("slow-query", 0, "log one-shot evaluations slower than this (0 = off)")
		slowSample = flag.Int("slow-query-sample", 1, "log every Nth slow query (the slow-query counter sees all of them)")
		perQuery   = flag.Int("metrics-per-query-limit", serve.DefaultPerQueryLimit, "max per-standing-query series on /metrics, top-K by eval time (<0 = unlimited)")
		pprofOn    = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof")
		logLevel   = flag.String("log-level", "info", "log level: debug, info, warn, or error")

		shardID = flag.String("shard-id", "", "shard identity reported on /healthz when this server is one member of a tile-partitioned fleet")
		tiles   = flag.String("tiles", "", "tile-map spec this shard serves (router-assigned; reported on /healthz for fleet consistency checks)")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "ildq-serve: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)

	policy, err := core.ParseFsyncPolicy(*fsync)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ildq-serve: bad -fsync %q: %v\n", *fsync, err)
		os.Exit(2)
	}
	eng, err := buildEngine(*points, *rects, *seed, core.EngineOptions{
		MaxSnapshotAge:  *maxSnapAge,
		FsyncPolicy:     policy,
		FsyncInterval:   *fsyncIvl,
		CheckpointEvery: *ckptEvery,
	}, *dataDir, logger)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ildq-serve: %v\n", err)
		os.Exit(1)
	}
	opts := core.EvalOptions{Timeout: *timeout, MaxSamples: *maxSamples}
	mon := monitor.New(eng, monitor.Config{
		Workers:    *workers,
		Seed:       *seed,
		MaxPending: *maxPending,
		Options:    opts,
	})

	api := serve.NewServer(mon, opts, serve.Config{
		SlowQuery:     *slowQuery,
		SlowEvery:     *slowSample,
		PerQueryLimit: *perQuery,
		Pprof:         *pprofOn,
		Logger:        logger,
		ShardID:       *shardID,
		Tiles:         *tiles,
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api,
		ReadHeaderTimeout: 5 * time.Second,
	}
	srv.RegisterOnShutdown(api.EndFeeds)
	logger.Info("listening",
		"addr", *addr,
		"points", eng.NumPoints(),
		"uncertain", eng.NumUncertain(),
		"workers", *workers,
		"data_dir", *dataDir,
		"slow_query", *slowQuery,
		"pprof", *pprofOn)

	// Serve until SIGINT/SIGTERM, then drain connections and close the
	// engine — the durable path's final checkpoint + WAL sync.
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
	}
	if err := eng.Close(); err != nil {
		logger.Error("engine close", "err", err)
		os.Exit(1)
	}
}

// buildEngine builds the engine — durable (core.Open, recovering any
// previous state) when dataDir is set, ephemeral otherwise — and
// preloads a synthetic world in the paper's experimental setup
// (clustered California points / Long Beach rectangles); a zero count
// leaves that database empty, to be populated through /v1/updates. A
// recovered non-empty durable engine is never re-seeded.
func buildEngine(points, rects int, seed int64, opts core.EngineOptions, dataDir string, logger *slog.Logger) (*core.Engine, error) {
	var pts []uncertain.PointObject
	if points > 0 {
		pcfg := dataset.CaliforniaConfig()
		pcfg.N = points
		pcfg.Seed = seed
		pts = dataset.BuildPointObjects(dataset.GeneratePoints(pcfg))
	}
	var objs []*uncertain.Object
	if rects > 0 {
		rcfg := dataset.LongBeachConfig()
		rcfg.N = rects
		rcfg.Seed = seed + 1
		var err error
		objs, err = dataset.BuildUncertainObjects(dataset.GenerateRects(rcfg), dataset.PDFUniform, uncertain.PaperCatalogProbs())
		if err != nil {
			return nil, err
		}
	}
	if dataDir == "" {
		return core.NewEngine(pts, objs, opts)
	}
	eng, err := core.Open(dataDir, opts)
	if err != nil {
		return nil, err
	}
	ds := eng.DurabilityStats()
	logger.Info("recovered",
		"version", eng.Version(),
		"points", eng.NumPoints(),
		"uncertain", eng.NumUncertain(),
		"wal_replayed", ds.WALReplayedAtBoot,
		"recovery", ds.RecoveryTime)
	if eng.Version() == 0 && eng.NumPoints() == 0 && eng.NumUncertain() == 0 && (len(pts) > 0 || len(objs) > 0) {
		// Fresh directory: seed the synthetic world through the logged
		// update path so the preload is recoverable like any other data.
		batch := make([]core.Update, 0, len(pts)+len(objs))
		for _, p := range pts {
			batch = append(batch, core.Update{Op: core.OpUpsertPoint, Point: p})
		}
		for _, o := range objs {
			batch = append(batch, core.Update{Op: core.OpUpsertObject, Object: o})
		}
		rep := eng.ApplyUpdates(batch)
		if len(rep.Errors) > 0 {
			eng.Close()
			return nil, fmt.Errorf("seeding durable engine: %v", rep.Errors[0])
		}
	}
	return eng, nil
}
