// wdmtop is a live terminal dashboard for a running wdmserve: it polls
// /metrics (Prometheus text), /v1/health (failure plane), /v1/slo
// (SLO burn rates) and /v1/debug/spans?blocked=1 (trace ring) through
// the typed /v1 client and redraws a single console frame per interval
// — per-fabric occupancy, routed/blocked rates, connect latency
// quantiles, failed middles and degraded-mode derating, SLO burn
// status, and the most recent blocked trace id ready to paste into
// /v1/debug/spans?trace=.
//
// Against a server running with -history it also polls /v1/query and
// /v1/alerts and adds two panels: sparklines of the recent routed and
// blocked rates from the embedded metrics history, and the alerting
// rules engine's pending/firing table.
//
// Against a cluster node, -fleet switches to the federation view: it
// polls /v1/cluster/metrics (every shard's exposition merged server-side)
// and renders fleet-wide totals with the fleet P_block (merged
// wdm_blocked_total over wdm_route_ops_total), the merged per-phase
// latency table, and a per-shard liveness/gauge table.
//
//	wdmtop -target http://localhost:8047 -interval 1s
//	wdmtop -target http://localhost:8047 -once        # one frame, no ANSI
//	wdmtop -target http://localhost:8047 -fleet       # cluster-wide view
package main

import (
	"context"
	"flag"
	"fmt"
	"net/url"
	"os"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/switchd/client"
)

func main() {
	target := flag.String("target", "http://localhost:8047", "base URL of the wdmserve instance")
	interval := flag.Duration("interval", time.Second, "poll and redraw interval")
	once := flag.Bool("once", false, "print one frame and exit (no screen clearing)")
	fleet := flag.Bool("fleet", false, "render the cluster-wide federation view from /v1/cluster/metrics")
	flag.Parse()

	cl := client.New(*target, client.WithTimeout(5*time.Second))
	var prev *poll
	for {
		frame, err := oneFrame(cl, *target, *fleet, &prev)
		if err != nil {
			if *once {
				fmt.Fprintln(os.Stderr, "wdmtop:", err)
				os.Exit(1)
			}
			fmt.Printf("\x1b[2J\x1b[Hwdmtop: %v (retrying every %s)\n", err, *interval)
		} else {
			if *once {
				fmt.Print(frame)
				return
			}
			// Clear screen, home cursor, redraw.
			fmt.Print("\x1b[2J\x1b[H" + frame)
		}
		time.Sleep(*interval)
	}
}

// oneFrame polls and renders either the single-node dashboard or the
// fleet view; prev carries rate state across dashboard polls.
func oneFrame(cl *client.Client, target string, fleet bool, prev **poll) (string, error) {
	if fleet {
		text, err := cl.FleetProm(context.Background())
		if err != nil {
			return "", fmt.Errorf("GET /v1/cluster/metrics: %w", err)
		}
		m, err := obs.ParseProm(strings.NewReader(text))
		if err != nil {
			return "", fmt.Errorf("parse /v1/cluster/metrics: %w", err)
		}
		return renderFleet(m, time.Now(), target), nil
	}
	cur, err := fetchPoll(cl)
	if err != nil {
		return "", err
	}
	frame := renderDashboard(cur, *prev, target)
	*prev = cur
	return frame, nil
}

// fetchPoll scrapes one frame's worth of state. /v1/health, /v1/slo and
// the span ring are optional (older servers, history or tracing
// disabled): their absence degrades the frame, it does not fail the
// poll.
func fetchPoll(cl *client.Client) (*poll, error) {
	ctx := context.Background()
	p := &poll{t: time.Now()}

	promText, err := cl.Prom(ctx)
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	if p.metrics, err = obs.ParseProm(strings.NewReader(promText)); err != nil {
		return nil, fmt.Errorf("parse /metrics: %w", err)
	}

	if h, err := cl.Health(ctx); err == nil {
		p.health = &h
	}
	if snap, err := cl.SLO(ctx); err == nil {
		p.slo = &snap
	}
	if spans, err := cl.Spans(ctx, "blocked=1&limit=1"); err == nil && len(spans.Traces) > 0 {
		p.lastBlocked = &spans.Traces[len(spans.Traces)-1]
	}
	if al, err := cl.Alerts(ctx); err == nil {
		p.alerts = al
	}
	if qr, err := cl.Query(ctx, histQuery("rate(wdm_blocked_total[10s])")); err == nil {
		p.histBlocked = &qr
	}
	if qr, err := cl.Query(ctx, histQuery("rate(wdm_route_ops_total[10s])")); err == nil {
		p.histRouted = &qr
	}
	return p, nil
}

// histQuery builds the /v1/query parameters behind one sparkline: the
// last two minutes at a 2s step.
func histQuery(expr string) string {
	v := url.Values{}
	v.Set("query", expr)
	v.Set("start", "-2m")
	v.Set("end", "now")
	v.Set("step", "2s")
	return v.Encode()
}
