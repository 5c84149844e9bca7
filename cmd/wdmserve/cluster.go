package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/switchd"
	"repro/internal/switchd/api"
	"repro/internal/switchd/client"
)

// Cluster mode: each wdmserve process is one node of one shard. A
// primary serves the full /v1 API and streams its WAL to the shard's
// standby over -repl-addr; the standby appends the stream to its own
// log, fsyncing and acknowledging every record, and answers everything
// except health/metrics/promote with not_primary until it takes over
// (explicit POST /v1/admin/promote, or -failover-after of primary
// silence) by recovering a controller from that log. The
// -peers list is published verbatim at GET /v1/cluster so a
// client.ShardedClient (or wdmtop) can discover the topology from any
// node.

type clusterOptions struct {
	addr          string
	shard         int
	standbyOf     string
	replAddr      string
	peers         string
	syncTimeout   time.Duration
	failoverAfter time.Duration
}

// clusterInfo is the GET /v1/cluster payload.
type clusterInfo struct {
	Shard int                     `json:"shard"`
	Role  string                  `json:"role"`
	Peers []client.ShardEndpoints `json:"peers,omitempty"`
}

// parsePeers reads the -peers syntax: comma-separated shards, each
// "primaryURL" or "primaryURL;standbyURL", shard index = position.
func parsePeers(s string) ([]client.ShardEndpoints, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []client.ShardEndpoints
	for i, part := range strings.Split(s, ",") {
		halves := strings.SplitN(strings.TrimSpace(part), ";", 2)
		ep := client.ShardEndpoints{Primary: strings.TrimSpace(halves[0])}
		if len(halves) == 2 {
			ep.Standby = strings.TrimSpace(halves[1])
		}
		if ep.Primary == "" {
			return nil, fmt.Errorf("-peers: shard %d has no primary URL", i)
		}
		out = append(out, ep)
	}
	return out, nil
}

func runCluster(logger *slog.Logger, cfg switchd.Config, opts clusterOptions) {
	if cfg.DataDir == "" {
		fatal(logger, fmt.Errorf("-cluster requires -data-dir: replication ships the write-ahead log"))
	}
	peerList, err := parsePeers(opts.peers)
	if err != nil {
		fatal(logger, err)
	}
	if opts.standbyOf != "" {
		runStandby(logger, cfg, opts, peerList)
		return
	}
	runClusterPrimary(logger, cfg, opts, peerList)
}

func runClusterPrimary(logger *slog.Logger, cfg switchd.Config, opts clusterOptions, peerList []client.ShardEndpoints) {
	srv := cluster.NewServer(cluster.ServerConfig{
		Shard:       opts.shard,
		SyncTimeout: opts.syncTimeout,
		Logger:      logger,
	})
	cfg.WALCommitter = srv.Commit
	ctl, err := switchd.New(cfg)
	if err != nil {
		fatal(logger, err)
	}
	if err := srv.Attach(ctl); err != nil {
		fatal(logger, err)
	}
	ln, err := net.Listen("tcp", opts.replAddr)
	if err != nil {
		fatal(logger, fmt.Errorf("-repl-addr: %w", err))
	}
	go srv.Serve(ln)

	// Federation peer health: a background prober keeps per-peer
	// reachability fresh; the controller's /v1/health federation rows
	// and wdm_federation_peer_up gauges read it, and federated requests
	// refresh it opportunistically.
	fedPeers := federationPeers(peerList)
	var tracker *cluster.PeerTracker
	trkCtx, trkCancel := context.WithCancel(context.Background())
	defer trkCancel()
	if len(peerList) > 0 {
		tracker = cluster.NewPeerTracker(cluster.FederationConfig{Peers: fedPeers})
		go tracker.Run(trkCtx, 5*time.Second)
		ctl.SetFederationProbe(federationProbe(tracker))
	}

	p := ctl.Params()
	logger.Info("serving cluster primary",
		slog.Int("shard", opts.shard),
		slog.String("addr", opts.addr),
		slog.String("repl_addr", ln.Addr().String()),
		slog.Int("n", p.N), slog.Int("m", p.M),
		slog.Int("replicas", ctl.Replicas()),
	)

	mux := http.NewServeMux()
	mux.Handle("/", ctl.Handler())
	mux.HandleFunc("/v1/cluster", clusterInfoHandler(opts.shard, "primary", peerList))
	mux.Handle("/v1/cluster/metrics", federationHandler(fedPeers, tracker))
	mux.Handle("/v1/cluster/query", queryFederationHandler(fedPeers, tracker))
	hsrv := &http.Server{Addr: opts.addr, Handler: obs.WithRequestLog(mux, logger)}

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
		logger.Info("drained", slog.Int("released", sum.Released), slog.Int("errors", sum.Errors))
		srv.Close()
		if err := ctl.Close(); err != nil {
			logger.Error("closing durable log", slog.String("error", err.Error()))
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hsrv.Shutdown(ctx)
	}()
	if err := hsrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fatal(logger, err)
	}
	<-done
}

func runStandby(logger *slog.Logger, cfg switchd.Config, opts clusterOptions, peerList []client.ShardEndpoints) {
	sb, err := cluster.NewStandby(cluster.StandbyConfig{
		Shard:         opts.shard,
		Primary:       opts.standbyOf,
		DataDir:       cfg.DataDir,
		Serving:       cfg,
		FailoverAfter: opts.failoverAfter,
		Logger:        logger,
	})
	if err != nil {
		fatal(logger, err)
	}
	sb.Start()

	logger.Info("serving cluster standby",
		slog.Int("shard", opts.shard),
		slog.String("addr", opts.addr),
		slog.String("primary", opts.standbyOf),
		slog.Duration("failover_after", opts.failoverAfter),
	)

	fedPeers := federationPeers(peerList)
	var tracker *cluster.PeerTracker
	trkCtx, trkCancel := context.WithCancel(context.Background())
	defer trkCancel()
	if len(peerList) > 0 {
		tracker = cluster.NewPeerTracker(cluster.FederationConfig{Peers: fedPeers})
		go tracker.Run(trkCtx, 5*time.Second)
	}

	mux := http.NewServeMux()
	mux.Handle("/", sb.Handler())
	mux.Handle("/v1/cluster/metrics", federationHandler(fedPeers, tracker))
	mux.Handle("/v1/cluster/query", queryFederationHandler(fedPeers, tracker))
	mux.HandleFunc("/v1/cluster", func(w http.ResponseWriter, r *http.Request) {
		role := "standby"
		if sb.Promoted() {
			role = "primary"
		}
		clusterInfoHandler(opts.shard, role, peerList)(w, r)
	})
	hsrv := &http.Server{Addr: opts.addr, Handler: obs.WithRequestLog(mux, logger)}

	done := make(chan struct{})
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		defer close(done)
		sig := <-sigC
		logger.Info("stopping standby", slog.String("signal", sig.String()))
		if err := sb.Close(); err != nil {
			logger.Error("closing standby", slog.String("error", err.Error()))
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hsrv.Shutdown(ctx)
	}()
	if err := hsrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fatal(logger, err)
	}
	<-done
}

// federationPeers adapts the -peers list to the federation's scrape
// targets. Shard names are the peer indices; a shard's standby is the
// fallback when its primary is unreachable.
func federationPeers(peers []client.ShardEndpoints) func() []cluster.FederationPeer {
	return func() []cluster.FederationPeer {
		out := make([]cluster.FederationPeer, 0, len(peers))
		for i, ep := range peers {
			p := cluster.FederationPeer{Shard: fmt.Sprintf("%d", i), URLs: []string{ep.Primary}}
			if ep.Standby != "" {
				p.URLs = append(p.URLs, ep.Standby)
			}
			out = append(out, p)
		}
		return out
	}
}

// federationHandler serves GET /v1/cluster/metrics: the fleet-merged
// exposition of every shard in the -peers list.
func federationHandler(peers func() []cluster.FederationPeer, tracker *cluster.PeerTracker) http.Handler {
	return cluster.NewFederationHandler(cluster.FederationConfig{Peers: peers, Tracker: tracker})
}

// queryFederationHandler serves GET /v1/cluster/query: the merged
// range query across every shard's embedded metrics history.
func queryFederationHandler(peers func() []cluster.FederationPeer, tracker *cluster.PeerTracker) http.Handler {
	return cluster.NewQueryFederationHandler(cluster.FederationConfig{Peers: peers, Tracker: tracker})
}

// federationProbe converts the tracker's snapshot to the /v1/health
// federation rows.
func federationProbe(tracker *cluster.PeerTracker) func() []api.FederationPeerHealth {
	return func() []api.FederationPeerHealth {
		snap := tracker.Snapshot()
		out := make([]api.FederationPeerHealth, 0, len(snap))
		for _, p := range snap {
			h := api.FederationPeerHealth{
				Shard: p.Shard, URL: p.URL, Up: p.Up, Error: p.Error,
				LastProbeSeconds: -1,
			}
			if !p.LastProbe.IsZero() {
				h.LastProbeSeconds = time.Since(p.LastProbe).Seconds()
			}
			out = append(out, h)
		}
		return out
	}
}

func clusterInfoHandler(shard int, role string, peers []client.ShardEndpoints) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(clusterInfo{Shard: shard, Role: role, Peers: peers})
	}
}
