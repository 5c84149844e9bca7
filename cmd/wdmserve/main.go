// wdmserve is the online serving mode of the repository: a long-lived
// multicast session controller (internal/switchd) that owns one or more
// WDM fabric replicas — built from any registered fabric backend (msw,
// maw, awg, mesh; see GET /v1/fabrics) — and serves Connect / AddBranch
// / Disconnect / Status over HTTP+JSON. With the fabric provisioned at
// its backend's sufficient bound (the default), the Prometheus /metrics
// endpoint exposes the paper's nonblocking claim as a live invariant:
// wdm_blocked_total stays 0 under any admissible traffic.
//
// Server (three-stage Clos; -fabric awg and -fabric mesh select the
// AWG-Clos and ring-mesh backends):
//
//	wdmserve -addr :8047 -n 16 -k 2 -r 4 -model msw -fabric msw -replicas 4
//
// Debugging a blocking incident (only possible below the bound):
//
//	wdmserve -addr :8047 -m 3 -x 1 -replicas 1 -trace -log-format json
//	curl localhost:8047/v1/debug/blocking   # forensic reports, last 128
//	curl localhost:8047/v1/debug/trace > incident.trace
//	wdmtrace -replay incident.trace -n 16 -k 2 -r 4 -m 3 -x 1
//
// Load comes from wdmload (cmd/wdmload). Chaos drill — fail a middle
// module under load and repair it later; at m = bound + f spares (-m 15
// is the default fabric's bound 13 plus two) the run must end with zero
// blocks and zero dropped sessions:
//
//	wdmload -mode steady -target http://localhost:8047 -arrivals 2000 -erlangs 4 -timescale 20ms &
//	curl -XPOST localhost:8047/v1/admin/fail -d '{"fabric":0,"middle":2}'
//	curl -XPOST localhost:8047/v1/admin/repair -d '{"fabric":0,"middle":2}'
//
// Durable state plane — journal every acknowledged mutation to a
// write-ahead log, checkpoint periodically, and survive kill -9 (a
// restart on the same directory reinstalls every acked session under
// its original id, with no router search):
//
//	wdmserve -addr :8047 -data-dir /var/lib/wdmserve
//	wdmwal verify /var/lib/wdmserve     # offline integrity check
//
// Tracing and SLOs: every serving request runs under a W3C
// traceparent-compatible span. Completed traces are served at
// /v1/debug/spans (tail-sampled: blocked/slow kept at 100%) and
// exported as JSON lines via -span-log. Sliding-window SLIs with
// multiwindow burn-rate alerts are at /v1/slo, read from the registry's
// own counters through the metrics history (so -history 0 turns them
// off too); `wdmtop -target ...` renders both live.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fabric/backend"
	"repro/internal/multistage"
	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/obs/span"
	"repro/internal/obs/tsdb"
	"repro/internal/switchd"
	"repro/internal/wdm"
)

func main() {
	// Server flags.
	addr := flag.String("addr", ":8047", "listen address")
	n := flag.Int("n", 16, "network size N")
	k := flag.Int("k", 2, "wavelengths per fiber")
	r := flag.Int("r", 4, "outer-stage module count (must divide N)")
	modelName := flag.String("model", "msw", "multicast model: msw, msdw, maw")
	fabricName := flag.String("fabric", "msw", "fabric backend: "+strings.Join(backend.Names(), ", "))
	m := flag.Int("m", 0, "middle-stage module count (0 = the backend's sufficient nonblocking bound)")
	x := flag.Int("x", 0, "split limit (0 = construction default)")
	replicas := flag.Int("replicas", 4, "independent fabric replicas (planes)")
	shards := flag.Int("shards", 16, "session-table shards")
	maxSessions := flag.Int("max-sessions", 0, "admission cap on live sessions, 0 = unlimited")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	captureTrace := flag.Bool("trace", false, "capture per-fabric serving history, served at /v1/debug/trace (unbounded memory; debugging mode)")
	blockLog := flag.Int("block-log", 0, "blocking-forensics ring size at /v1/debug/blocking (0 = default 128, negative disables)")
	spanLog := flag.String("span-log", "", "append kept traces as JSON lines to this file (\"-\" = stderr)")
	spanRing := flag.Int("span-ring", 0, "completed-trace ring size at /v1/debug/spans (0 = default 256, negative disables tracing)")
	spanSample := flag.Int("span-sample", 0, "keep 1 of every N routine successful traces (0 = default 16; blocked/slow always kept)")
	profMutex := flag.Int("prof-mutex", 100, "mutex-contention profiling: sample 1 of every N contention events (0 leaves the runtime default)")
	profBlock := flag.Int("prof-block", 100000, "block profiling: sample blocking events >= this many nanoseconds (0 leaves the runtime default)")
	profInterval := flag.Duration("prof-interval", 30*time.Second, "background profile-snapshot cadence for /v1/debug/prof (0 = on-demand capture only)")
	profRing := flag.Int("prof-ring", 0, "profile snapshots retained per type (0 = default 8)")
	history := flag.Duration("history", time.Second, "embedded metrics-history self-scrape interval for /v1/query, /v1/alerts and /v1/slo (0 disables history, alerting and the SLO view)")
	alertsFile := flag.String("alerts", "", `alerting rules file ({"rules":[...]}; empty = the shipped default ruleset; requires -history > 0)`)
	alertWebhook := flag.String("alert-webhook", "", "POST every alert state transition to this URL as JSON")
	dataDir := flag.String("data-dir", "", "durable state directory: journal every mutation to a WAL, checkpoint periodically, recover on start (empty = in-memory only)")
	walSegment := flag.Int64("wal-segment-bytes", 0, "WAL segment rotation size (0 = default 16MiB)")
	snapshotEvery := flag.Duration("snapshot-interval", 0, "durable checkpoint cadence (0 = default 30s, negative disables)")

	// Cluster-mode flags (see internal/cluster).
	clusterOn := flag.Bool("cluster", false, "run as a cluster node: shard the session space and ship the WAL to a warm standby (requires -data-dir)")
	shard := flag.Int("shard", 0, "cluster: this node's shard index")
	standbyOf := flag.String("standby-of", "", "cluster: run as the warm standby of the primary at this replication address (host:port); empty = run as primary")
	replAddr := flag.String("repl-addr", ":9047", "cluster primary: replication listen address standbys dial")
	peers := flag.String("peers", "", `cluster: shard endpoint list "primary[;standby],..." published at GET /v1/cluster for client-side routing`)
	syncTimeout := flag.Duration("sync-timeout", 0, "cluster primary: max wait for the standby ack per group commit (0 = default 2s, negative = async shipping)")
	failoverAfter := flag.Duration("failover-after", 0, "cluster standby: auto-promote after this much primary silence (0 = promote only on POST /v1/admin/promote)")
	flag.Parse()

	logger, err := buildLogger(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wdmserve:", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	model, err := wdm.ParseModel(*modelName)
	if err != nil {
		fatal(logger, err)
	}
	// Validation is the registry's: any registered backend name is
	// legal, and the error message enumerates them.
	fabName := *fabricName
	if _, err := backend.Get(fabName); err != nil {
		fatal(logger, fmt.Errorf("-fabric: %w", err))
	}

	var spanLogW io.Writer
	if *spanLog == "-" {
		spanLogW = os.Stderr
	} else if *spanLog != "" {
		f, err := os.OpenFile(*spanLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(logger, fmt.Errorf("-span-log: %w", err))
		}
		defer f.Close()
		spanLogW = f
	}

	cfg := switchd.Config{
		Fabric: multistage.Params{
			N: *n, K: *k, R: *r, M: *m, X: *x,
			Model: model, Lite: true,
		},
		Backend:      fabName,
		Replicas:     *replicas,
		Shards:       *shards,
		MaxSessions:  *maxSessions,
		BlockLog:     *blockLog,
		CaptureTrace: *captureTrace,
		Spans: span.Config{
			Capacity:    *spanRing,
			SampleEvery: *spanSample,
			Log:         spanLogW,
		},
		Prof: prof.Config{
			MutexFraction: *profMutex,
			BlockRateNs:   *profBlock,
			Interval:      *profInterval,
			Ring:          *profRing,
		},
		Logger:           logger,
		DataDir:          *dataDir,
		WALSegmentBytes:  *walSegment,
		SnapshotInterval: *snapshotEvery,
		HistoryInterval:  *history,
		AlertWebhook:     *alertWebhook,
	}
	if *alertsFile != "" {
		rules, err := tsdb.LoadRules(*alertsFile)
		if err != nil {
			fatal(logger, fmt.Errorf("-alerts: %w", err))
		}
		cfg.Alerts = rules
	}

	if *clusterOn {
		runCluster(logger, cfg, clusterOptions{
			addr:          *addr,
			shard:         *shard,
			standbyOf:     *standbyOf,
			replAddr:      *replAddr,
			peers:         *peers,
			syncTimeout:   *syncTimeout,
			failoverAfter: *failoverAfter,
		})
		return
	}

	ctl, err := switchd.New(cfg)
	if err != nil {
		fatal(logger, err)
	}
	if rec := ctl.Recovery(); rec != nil && len(rec.Sessions) > 0 {
		logger.Info("recovered sessions from durable log",
			slog.Int("sessions", len(rec.Sessions)),
			slog.Duration("elapsed", rec.Elapsed))
	}

	p := ctl.Params()
	logger.Info("serving",
		slog.String("fabric", ctl.Backend()),
		slog.String("model", p.Model.String()),
		slog.Int("n", p.N), slog.Int("k", p.K), slog.Int("r", p.R),
		slog.Int("m", p.M), slog.Int("x", p.X),
		slog.Int("replicas", ctl.Replicas()),
		slog.String("addr", *addr),
		slog.Bool("trace_capture", *captureTrace),
	)

	srv := &http.Server{Addr: *addr, Handler: obs.WithRequestLog(ctl.Handler(), logger)}

	done := make(chan struct{})
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		defer close(done)
		sig := <-sigC
		logger.Info("draining", slog.String("signal", sig.String()))
		drainCtx, drainCancel := context.WithTimeout(context.Background(), 30*time.Second)
		sum := ctl.Drain(drainCtx)
		drainCancel()
		logger.Info("drained",
			slog.Int("released", sum.Released),
			slog.Int("errors", sum.Errors),
			slog.Bool("canceled", sum.Canceled),
			slog.Duration("elapsed", sum.Elapsed))
		if sum.StorageError != "" {
			logger.Error("drain: durable log", slog.String("error", sum.StorageError))
		}
		if err := ctl.Close(); err != nil {
			logger.Error("closing durable log", slog.String("error", err.Error()))
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("shutdown", slog.String("error", err.Error()))
		}
		// Flush final stats so a supervised restart leaves a record.
		snap, _ := json.Marshal(ctl.Metrics().Snapshot())
		logger.Info("final metrics", slog.String("snapshot", string(snap)))
	}()
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fatal(logger, err)
	}
	<-done
}

func buildLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("-log-format must be text or json, not %q", format)
	}
}

func fatal(logger *slog.Logger, err error) {
	logger.Error("fatal", slog.String("error", err.Error()))
	os.Exit(1)
}
