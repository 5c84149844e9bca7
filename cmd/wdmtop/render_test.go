package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/obs/span"
	"repro/internal/obs/tsdb"
	"repro/internal/switchd/api"
)

const testExposition = `# TYPE wdm_fabric_info gauge
wdm_fabric_info{model="msw",construction="msw",n="16",k="2",r="4",x="1"} 2
# TYPE wdm_sufficient_m gauge
wdm_sufficient_m 7
# TYPE wdm_connect_total counter
wdm_connect_total 100
# TYPE wdm_branch_total counter
wdm_branch_total 10
# TYPE wdm_blocked_total counter
wdm_blocked_total 3
# TYPE wdm_inadmissible_total counter
wdm_inadmissible_total 1
# TYPE wdm_active_sessions gauge
wdm_active_sessions 12
# TYPE wdm_fabric_active gauge
wdm_fabric_active{fabric="1"} 7
wdm_fabric_active{fabric="0"} 5
# TYPE wdm_fabric_routed_total counter
wdm_fabric_routed_total{fabric="0"} 60
wdm_fabric_routed_total{fabric="1"} 50
# TYPE wdm_fabric_blocked_total counter
wdm_fabric_blocked_total{fabric="0"} 3
wdm_fabric_blocked_total{fabric="1"} 0
# TYPE wdm_link_busy_ratio gauge
wdm_link_busy_ratio{fabric="0",stage="in"} 0.25
wdm_link_busy_ratio{fabric="0",stage="out"} 0.5
wdm_link_busy_ratio{fabric="1",stage="in"} 0.1
wdm_link_busy_ratio{fabric="1",stage="out"} 0.2
# TYPE wdm_op_latency_seconds histogram
wdm_op_latency_seconds_bucket{op="connect",le="0.0001"} 50
wdm_op_latency_seconds_bucket{op="connect",le="0.001"} 90
wdm_op_latency_seconds_bucket{op="connect",le="+Inf"} 100
wdm_op_latency_seconds_sum{op="connect"} 0.05
wdm_op_latency_seconds_count{op="connect"} 100
`

func parseTestMetrics(t *testing.T, text string) obs.Metrics {
	t.Helper()
	m, err := obs.ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseProm: %v", err)
	}
	return m
}

func TestFabricRowsOrderedAndJoined(t *testing.T) {
	rows := fabricRows(parseTestMetrics(t, testExposition))
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	if rows[0].id != 0 || rows[1].id != 1 {
		t.Fatalf("rows out of order: %+v", rows)
	}
	if rows[0].routed != 60 || rows[0].blocked != 3 || rows[0].inRatio != 0.25 || rows[0].outRatio != 0.5 {
		t.Fatalf("fabric 0 row joined wrong: %+v", rows[0])
	}
}

func TestHistQuantileMicros(t *testing.T) {
	m := parseTestMetrics(t, testExposition)
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0.50, 100},  // first bucket (le=100µs) already covers 50/100
		{0.90, 1000}, // le=1ms covers 90/100
		{0.99, 1000}, // falls in +Inf: reported as the largest finite bound
	} {
		got, ok := histQuantileMicros(m, "connect", tc.q)
		if !ok || got != tc.want {
			t.Errorf("q=%v: got %v,%v want %v,true", tc.q, got, ok, tc.want)
		}
	}
	if _, ok := histQuantileMicros(m, "branch", 0.5); ok {
		t.Error("quantile for op with no samples should report !ok")
	}
}

func TestRenderDashboardFrame(t *testing.T) {
	now := time.Now()
	cur := &poll{
		t:       now,
		metrics: parseTestMetrics(t, testExposition),
		slo: &slo.Snapshot{
			Objective: 0.999, LatencyObjective: 0.99, LatencyThresholdUs: 1000,
			Healthy: false,
			Windows: []slo.WindowSLI{
				{Window: "5m", Total: 100, Bad: 3, Availability: 0.97, AvailabilityBurn: 30, LatencyOK: 1},
			},
			Alerts: []slo.AlertState{
				{Name: "fast", Short: "5m", Long: "1h", Threshold: 14.4, AvailabilityFiring: true},
			},
		},
		lastBlocked: &span.TraceRecord{
			TraceID: "0af7651916cd43dd8448eb211c80319c",
			Root:    "switchd.connect", Start: now.Add(-3 * time.Second),
			DurationNs: 42_000, Blocked: true,
		},
	}
	prevExpo := strings.Replace(testExposition, "wdm_connect_total 100", "wdm_connect_total 90", 1)
	prev := &poll{t: now.Add(-2 * time.Second), metrics: parseTestMetrics(t, prevExpo)}

	frame := renderDashboard(cur, prev, "http://localhost:8047")
	for _, want := range []string{
		"BELOW BOUND",                      // m=2 < sufficient 7
		"m=2 (sufficient 7)",               //
		"routed 110 (5.0/s)",               // (100-90)/2s across connect+branch
		"blocked 3",                        //
		"p50 100µs",                        //
		"p90 1.00ms",                       //
		"in-occ",                           // fabric table header
		"25.0%",                            // fabric 0 in-occupancy
		"SLO BURNING",                      //
		"FIRING (availability)",            //
		"0af7651916cd43dd8448eb211c80319c", // blocked trace join
		"/v1/debug/spans?trace=",           //
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q\n---\n%s", want, frame)
		}
	}
}

func TestRenderDashboardHealthyNoBlocking(t *testing.T) {
	expo := strings.Replace(testExposition, "wdm_blocked_total 3", "wdm_blocked_total 0", 1)
	expo = strings.Replace(expo, "wdm_fabric_info{model=\"msw\",construction=\"msw\",n=\"16\",k=\"2\",r=\"4\",x=\"1\"} 2",
		"wdm_fabric_info{model=\"msw\",construction=\"msw\",n=\"16\",k=\"2\",r=\"4\",x=\"1\"} 7", 1)
	cur := &poll{
		t:       time.Now(),
		metrics: parseTestMetrics(t, expo),
		slo: &slo.Snapshot{
			Objective: 0.999, LatencyObjective: 0.99, LatencyThresholdUs: 1000,
			Healthy: true,
			Windows: []slo.WindowSLI{{Window: "5m", Availability: 1, LatencyOK: 1}},
			Alerts:  []slo.AlertState{{Name: "fast", Short: "5m", Long: "1h", Threshold: 14.4}},
		},
	}
	frame := renderDashboard(cur, nil, "http://localhost:8047")
	for _, want := range []string{
		"AT/ABOVE BOUND",
		"SLO HEALTHY",
		"alert fast  (5m && 1h > 14.4): ok",
		"no blocking events — invariant holding",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q\n---\n%s", want, frame)
		}
	}
}

func TestClusterPanelRoles(t *testing.T) {
	m := parseTestMetrics(t, testExposition)
	primary := &poll{t: time.Now(), metrics: m, health: &api.Health{
		Replication: &api.ReplicationHealth{
			Role: api.RolePrimary, Shard: 1, Connected: true,
			Standbys: 1, SyncedSeq: 42, AckedSeq: 40,
			LagRecords: 2, LagSeconds: 0.004, SyncTimeouts: 3,
		},
	}}
	out := clusterPanel(primary)
	for _, want := range []string{
		"cluster shard 1", "role PRIMARY", "stream connected",
		"standbys 1", "synced seq 42 / acked 40", "lag 2 records",
		"SYNC TIMEOUTS 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("primary panel missing %q\n---\n%s", want, out)
		}
	}

	standby := &poll{t: time.Now(), metrics: m, health: &api.Health{
		Replication: &api.ReplicationHealth{
			Role: api.RoleStandby, Shard: 1,
			SyncedSeq: 42, AppliedSeq: 42, Reconnects: 2, Snapshots: 1,
		},
	}}
	out = clusterPanel(standby)
	for _, want := range []string{
		"role STANDBY", "stream DISCONNECTED",
		"applied seq 42 / primary 42", "reconnects 2", "snapshot bootstraps 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("standby panel missing %q\n---\n%s", want, out)
		}
	}

	promoted := &poll{t: time.Now(), metrics: m, health: &api.Health{
		Replication: &api.ReplicationHealth{Role: api.RolePrimary, Promoted: true},
	}}
	if out = clusterPanel(promoted); !strings.Contains(out, "promoted from standby") {
		t.Errorf("promoted panel missing marker\n---\n%s", out)
	}

	// A node that is not clustered contributes no panel at all.
	if out = clusterPanel(&poll{t: time.Now(), metrics: m}); out != "" {
		t.Errorf("unclustered poll rendered %q", out)
	}
}

func TestSparkline(t *testing.T) {
	got := sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if got != "▁▂▃▄▅▆▇█" {
		t.Errorf("ramp: got %q", got)
	}
	// All-zero series renders the floor glyph, not blanks.
	if got = sparkline([]float64{0, 0, 0}, 8); got != "▁▁▁" {
		t.Errorf("zeros: got %q", got)
	}
	// NaN steps (no sample yet) are blanks.
	if got = sparkline([]float64{math.NaN(), 4, math.NaN()}, 8); got != " █ " {
		t.Errorf("nan gaps: got %q", got)
	}
	// Downsampling keeps the spike: 100 points with one peak must
	// still show a full-height glyph in a 10-wide strip.
	vals := make([]float64, 100)
	vals[37] = 9
	if got = sparkline(vals, 10); !strings.ContainsRune(got, '█') {
		t.Errorf("downsampled spike lost: got %q", got)
	}
	if n := len([]rune(got)); n != 10 {
		t.Errorf("downsampled width: got %d runes, want 10", n)
	}
	if sparkline(nil, 10) != "" {
		t.Error("empty series should render nothing")
	}
}

func TestHistoryPanelSparklines(t *testing.T) {
	qr := func(name string, vals ...float64) *tsdb.QueryResult {
		s := tsdb.Series{Name: name}
		for i, v := range vals {
			s.Points = append(s.Points, tsdb.Point{T: int64(i * 2000), V: v})
		}
		return &tsdb.QueryResult{
			Query: name, StartMs: 0, EndMs: int64(len(vals) * 2000), StepMs: 2000,
			Series: []tsdb.Series{s},
		}
	}
	cur := &poll{
		t:           time.Now(),
		histRouted:  qr("rate(wdm_route_ops_total[10s])", 10, 20, 30, 40),
		histBlocked: qr("rate(wdm_blocked_total[10s])", 0, 0, 2, 1),
	}
	out := historyPanel(cur)
	for _, want := range []string{"history (last 8s)", "routed/s", "blocked/s", "max 40.0/s", "max 2.0/s", "█"} {
		if !strings.Contains(out, want) {
			t.Errorf("history panel missing %q\n---\n%s", want, out)
		}
	}
	// Without -history there is no panel.
	if out = historyPanel(&poll{t: time.Now()}); out != "" {
		t.Errorf("no-history poll rendered %q", out)
	}
}

func TestSeriesValuesSumsShardsSkipsFleet(t *testing.T) {
	qr := &tsdb.QueryResult{Series: []tsdb.Series{
		{Name: "x", Labels: map[string]string{"shard": "0"}, Points: []tsdb.Point{{T: 0, V: 1}, {T: 1000, V: 2}}},
		{Name: "x", Labels: map[string]string{"shard": "1"}, Points: []tsdb.Point{{T: 0, V: 3}, {T: 1000, V: math.NaN()}}},
		{Name: "x", Labels: map[string]string{"shard": "fleet"}, Points: []tsdb.Point{{T: 0, V: 4}, {T: 1000, V: 2}}},
	}}
	vals := seriesValues(qr)
	if len(vals) != 2 || vals[0] != 4 || vals[1] != 2 {
		t.Errorf("got %v, want [4 2] (shards summed, fleet row skipped)", vals)
	}
}

func TestAlertsPanel(t *testing.T) {
	since := time.Now().Add(-35 * time.Second)
	alerts := []tsdb.AlertStatus{
		{Rule: tsdb.Rule{Name: "blocked_in_nonblocking_regime"}, State: tsdb.StateFiring, Since: &since, Value: 2.1},
		{Rule: tsdb.Rule{Name: "slo_fast_burn"}, State: tsdb.StatePending, Since: &since, Value: 15},
		{Rule: tsdb.Rule{Name: "scrape_stalled"}, State: tsdb.StateInactive},
	}
	out := alertsPanel(alerts)
	for _, want := range []string{
		"alerts  1 firing / 1 pending / 1 ok",
		"FIRING", "blocked_in_nonblocking_regime", "value 2.1",
		"pending", "slo_fast_burn",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("alerts panel missing %q\n---\n%s", want, out)
		}
	}
	if strings.Contains(out, "scrape_stalled") {
		t.Errorf("inactive rule should not get a row\n---\n%s", out)
	}
	// nil = server without the engine: no panel. Empty-but-present =
	// engine with zero rules: still the rollup line.
	if out = alertsPanel(nil); out != "" {
		t.Errorf("nil alerts rendered %q", out)
	}
	if out = alertsPanel([]tsdb.AlertStatus{}); !strings.Contains(out, "0 firing") {
		t.Errorf("empty alerts missing rollup: %q", out)
	}
}

// TestRenderFleet merges two shards' expositions the way
// /v1/cluster/metrics does and pins the fleet frame: the header's
// P_block is the merged wdm_blocked_total over wdm_route_ops_total, and
// the per-shard table holds the registry's own gauges only.
func TestRenderFleet(t *testing.T) {
	raw := map[string][]byte{
		"0": []byte(`# TYPE wdm_route_ops_total counter
wdm_route_ops_total 300
# TYPE wdm_blocked_total counter
wdm_blocked_total 6
# TYPE wdm_connect_total counter
wdm_connect_total 250
# TYPE wdm_branch_total counter
wdm_branch_total 44
# TYPE wdm_inadmissible_total counter
wdm_inadmissible_total 1
# TYPE wdm_active_sessions gauge
wdm_active_sessions 12
# TYPE wdm_replication_lag_seconds gauge
wdm_replication_lag_seconds 0.002
# TYPE wdm_go_goroutines gauge
wdm_go_goroutines 40
# TYPE wdm_go_heap_bytes gauge
wdm_go_heap_bytes 3145728
`),
		"1": []byte(`# TYPE wdm_route_ops_total counter
wdm_route_ops_total 100
# TYPE wdm_blocked_total counter
wdm_blocked_total 2
# TYPE wdm_connect_total counter
wdm_connect_total 98
# TYPE wdm_branch_total counter
wdm_branch_total 0
# TYPE wdm_inadmissible_total counter
wdm_inadmissible_total 0
# TYPE wdm_active_sessions gauge
wdm_active_sessions 5
# TYPE wdm_go_goroutines gauge
wdm_go_goroutines 30
# TYPE wdm_go_heap_bytes gauge
wdm_go_heap_bytes 2048
`),
	}
	var pw obs.PromWriter
	if bad := obs.MergeFleet(&pw, raw); len(bad) != 0 {
		t.Fatalf("MergeFleet: %v", bad)
	}
	pw.Gauge("wdm_federation_peer_up", "peer up", 1, obs.Label{Name: "shard", Value: "0"})
	pw.Gauge("wdm_federation_peer_up", "peer up", 0, obs.Label{Name: "shard", Value: "1"})
	out := renderFleet(parseTestMetrics(t, string(pw.Bytes())), time.Now(), "http://fleet")

	lines := strings.Split(out, "\n")
	if want := "fleet sessions 17   routed 392   blocked 8   inadmissible 1   P_block 0.0200"; lines[2] != want {
		t.Errorf("header line %q, want %q\n---\n%s", lines[2], want, out)
	}
	rows := map[string]string{}
	for _, l := range lines {
		if f := strings.Fields(l); len(f) > 0 {
			rows[f[0]] = strings.Join(f, " ")
		}
	}
	for first, want := range map[string]string{
		"shard": "shard up sessions repl-lag goroutines heap",
		"0":     "0 up 12 0.002s 40 3.0MiB",
		"1":     "1 DOWN 5 0.000s 30 2.0KiB",
	} {
		if rows[first] != want {
			t.Errorf("table row %q, want %q\n---\n%s", rows[first], want, out)
		}
	}

	// No routing operations yet: no ratio to show.
	if out := renderFleet(obs.Metrics{}, time.Now(), "http://fleet"); !strings.Contains(out, "P_block -") {
		t.Errorf("empty fleet frame lacks \"P_block -\"\n---\n%s", out)
	}
}
