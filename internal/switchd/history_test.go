package switchd

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tsdb"
	"repro/internal/switchd/api"
	"repro/internal/switchd/client"
	"repro/internal/traffic"
)

// drillRules is the shipped invariant rule rescaled to test time: the
// same shape as DefaultRules' blocked_in_nonblocking_regime (rate of
// blocks guarded by the static m-margin) with windows short enough for
// a sub-second drill.
func drillRules() []tsdb.Rule {
	return []tsdb.Rule{{
		Name:    "blocked_in_nonblocking_regime",
		Expr:    "rate(wdm_blocked_total[2s])",
		Op:      ">",
		Value:   0,
		For:     tsdb.Duration(100 * time.Millisecond),
		Guard:   &tsdb.Condition{Expr: "wdm_m_margin", Op: ">=", Value: 0},
		Summary: "blocking while configured at the sufficient bound",
	}}
}

// waitAlertState polls /v1/alerts until the named rule reaches the
// wanted state.
func waitAlertState(t *testing.T, cl *client.Client, rule string, want tsdb.AlertState, deadline time.Duration) tsdb.AlertStatus {
	t.Helper()
	end := time.Now().Add(deadline)
	var last tsdb.AlertStatus
	var seen bool
	for time.Now().Before(end) {
		alerts, err := cl.Alerts(context.Background())
		if err != nil {
			t.Fatalf("GET /v1/alerts: %v", err)
		}
		for _, a := range alerts {
			if a.Rule.Name == rule {
				last, seen = a, true
				if a.State == want {
					return a
				}
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !seen {
		t.Fatalf("rule %s never appeared in /v1/alerts", rule)
	}
	t.Fatalf("rule %s never reached %s (last state %s, value %v)", rule, want, last.State, last.Value)
	return last
}

// TestAlertDrillEndToEnd is the acceptance drill: a fabric configured
// exactly at the sufficient bound (m margin 0, nonblocking by Theorem
// 1) loses most of its middle stage, live traffic blocks, and the
// shipped invariant rule walks inactive → pending → firing; repairing
// the middles clears it. /v1/alerts and the wdm_alert_firing gauge
// must agree at both ends, and the incident must be visible afterwards
// in a /v1/query range.
func TestAlertDrillEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("drives live traffic against a failed fabric; skipped in -short")
	}
	ctl := newTestController(t, Config{
		Fabric:          testParams(),
		Replicas:        1,
		HistoryInterval: 25 * time.Millisecond,
		Alerts:          drillRules(),
	})
	defer ctl.Close()
	srv := httptest.NewServer(ctl.Handler())
	defer srv.Close()
	cl := client.New(srv.URL, client.WithHTTPClient(srv.Client()))
	ctx := context.Background()

	// The engine starts quiet: the rule is present and inactive.
	waitAlertState(t, cl, "blocked_in_nonblocking_regime", tsdb.StateInactive, 2*time.Second)

	// Chaos: fail all middles but one. The configured m stays at the
	// bound — wdm_m_margin stays >= 0, so the guard holds and any
	// blocking is a theorem violation worth paging on.
	p := ctl.Params()
	failed := make([]int, 0, p.M-1)
	for mid := 0; mid < p.M-1; mid++ {
		if _, err := ctl.FailMiddle(ctx, 0, mid); err != nil {
			t.Fatalf("FailMiddle(0, %d): %v", mid, err)
		}
		failed = append(failed, mid)
	}

	// Drive closed-loop traffic until the crippled fabric blocks.
	deadline := time.Now().Add(10 * time.Second)
	for seed := int64(1); ctl.Metrics().Blocked() == 0; seed++ {
		if time.Now().After(deadline) {
			t.Fatal("no blocking with one middle left — drill cannot proceed")
		}
		runLoad(t, srv, traffic.Config{Seed: seed, Arrivals: 300, WorkersPerFabric: 2, Erlangs: 8})
	}

	// The rule must escalate to firing, and the exposition gauge must
	// agree with /v1/alerts.
	st := waitAlertState(t, cl, "blocked_in_nonblocking_regime", tsdb.StateFiring, 5*time.Second)
	if st.Value <= 0 {
		t.Fatalf("firing with non-positive value %v", st.Value)
	}
	m := promSnapshot(t, cl)
	lbl := map[string]string{"rule": "blocked_in_nonblocking_regime"}
	if v, ok := m.Value("wdm_alert_firing", lbl); !ok || v != 1 {
		t.Fatalf("wdm_alert_firing = %v,%v while /v1/alerts reports firing", v, ok)
	}

	// Repair plane: restore every failed middle; once the rate window
	// drains, the alert must resolve on its own.
	for _, mid := range failed {
		if _, err := ctl.RepairMiddle(ctx, 0, mid); err != nil {
			t.Fatalf("RepairMiddle(0, %d): %v", mid, err)
		}
	}
	waitAlertState(t, cl, "blocked_in_nonblocking_regime", tsdb.StateInactive, 10*time.Second)
	m = promSnapshot(t, cl)
	if v, ok := m.Value("wdm_alert_firing", lbl); !ok || v != 0 {
		t.Fatalf("wdm_alert_firing = %v,%v after resolve, want 0", v, ok)
	}

	// The incident is queryable after the fact: a range over the drill
	// shows a nonzero blocking rate somewhere.
	v := url.Values{}
	v.Set("query", "rate(wdm_blocked_total[2s])")
	v.Set("start", "-60s")
	v.Set("step", "100ms")
	qr, err := cl.Query(ctx, v.Encode())
	if err != nil {
		t.Fatalf("GET /v1/query: %v", err)
	}
	sawSpike := false
	for _, s := range qr.Series {
		for _, pt := range s.Points {
			if pt.V > 0 {
				sawSpike = true
			}
		}
	}
	if !sawSpike {
		t.Fatalf("range query over the drill shows no blocking spike: %+v", qr)
	}

	// The debug dump (the CI artifact) is real JSON holding the series.
	resp, err := srv.Client().Get(srv.URL + "/v1/debug/tsdb")
	if err != nil {
		t.Fatalf("GET /v1/debug/tsdb: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/debug/tsdb: status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "wdm_blocked_total") {
		t.Fatal("tsdb dump does not contain wdm_blocked_total")
	}
}

// promSnapshot scrapes and strictly parses /metrics.
func promSnapshot(t *testing.T, cl *client.Client) obs.Metrics {
	t.Helper()
	text, err := cl.Prom(context.Background())
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	m, err := obs.ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse /metrics: %v", err)
	}
	return m
}

// TestHistoryEndpointsDisabled pins the degraded surface: without a
// history interval the query/alert/SLO endpoints answer 404 not_found
// and the exposition carries no tsdb self-metrics and no SLO gauges.
func TestHistoryEndpointsDisabled(t *testing.T) {
	ctl := newTestController(t, Config{Fabric: testParams(), Replicas: 1})
	srv := httptest.NewServer(ctl.Handler())
	defer srv.Close()
	cl := client.New(srv.URL, client.WithHTTPClient(srv.Client()))
	ctx := context.Background()

	if _, err := cl.Query(ctx, "query=wdm_blocked_total"); !api.IsCode(err, api.CodeNotFound) {
		t.Fatalf("Query on history-less server: %v, want not_found", err)
	}
	if _, err := cl.Alerts(ctx); !api.IsCode(err, api.CodeNotFound) {
		t.Fatalf("Alerts on history-less server: %v, want not_found", err)
	}
	if _, err := cl.SLO(ctx); !api.IsCode(err, api.CodeNotFound) {
		t.Fatalf("SLO on history-less server: %v, want not_found", err)
	}
	m := promSnapshot(t, cl)
	if _, ok := m.Value("wdm_tsdb_series", nil); ok {
		t.Fatal("tsdb self-metrics exposed while history is disabled")
	}
	for name := range m {
		if strings.HasPrefix(name, "wdm_slo_") {
			t.Fatalf("%s exposed while history is disabled", name)
		}
	}
	// Uptime is unconditional — the self-scrape dead-man's switch
	// needs it on every server.
	if v, ok := m.Value("wdm_uptime_seconds", nil); !ok || v < 0 {
		t.Fatalf("wdm_uptime_seconds = %v,%v", v, ok)
	}
}

// TestFederationHealthRollup pins the satellite: a down federation
// peer degrades an otherwise-ok health rollup and appears as a
// federation row; all-up peers leave the status alone.
func TestFederationHealthRollup(t *testing.T) {
	ctl := newTestController(t, Config{Fabric: testParams(), Replicas: 1})
	defer ctl.Close()

	ctl.SetFederationProbe(func() []api.FederationPeerHealth {
		return []api.FederationPeerHealth{
			{Shard: "0", URL: "http://a", Up: true, LastProbeSeconds: 0.1},
			{Shard: "1", URL: "http://b", Up: true, LastProbeSeconds: 0.1},
		}
	})
	if h := ctl.Health(); h.Status != api.HealthOK || len(h.Federation) != 2 {
		t.Fatalf("all-up: %+v, want ok with 2 federation rows", h)
	}

	ctl.SetFederationProbe(func() []api.FederationPeerHealth {
		return []api.FederationPeerHealth{
			{Shard: "0", URL: "http://a", Up: true, LastProbeSeconds: 0.1},
			{Shard: "1", URL: "http://b", Up: false, Error: "connection refused", LastProbeSeconds: 0.1},
		}
	})
	if h := ctl.Health(); h.Status != api.HealthDegraded {
		t.Fatalf("down peer: status %q, want degraded", h.Status)
	}

	ctl.SetFederationProbe(nil)
	if h := ctl.Health(); len(h.Federation) != 0 {
		t.Fatalf("cleared probe still reports federation rows: %+v", h.Federation)
	}
}
