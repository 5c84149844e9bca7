package switchd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/multistage"
	"repro/internal/obs"
	"repro/internal/switchd/api"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/wdm"
)

// TestPromEndpointCrossCheck drives a small lifecycle and asserts the
// Prometheus exposition round-trips through the strict parser and
// agrees with the registry snapshot on every shared counter.
func TestPromEndpointCrossCheck(t *testing.T) {
	cfg := Config{Fabric: testParams(), Replicas: 2,
		DataDir: t.TempDir(), SnapshotInterval: -1}
	ctl := newTestController(t, cfg)
	srv := httptest.NewServer(ctl.Handler())
	defer srv.Close()

	id := mustConnect(t, ctl, "0.0>5.0,9.0", 0)
	if err := ctl.AddBranch(context.Background(), id, wdm.PortWave{Port: 12, Wave: 0}); err != nil {
		t.Fatal(err)
	}
	id2 := mustConnect(t, ctl, "1.0>6.0", 1)
	if err := ctl.Disconnect(context.Background(), id2); err != nil {
		t.Fatal(err)
	}

	pm := scrapeProm(t, srv.Client(), srv.URL)
	snap := ctl.Metrics().Snapshot()

	for _, tc := range []struct {
		metric string
		want   float64
	}{
		{"wdm_connect_total", float64(snap.ConnectOK)},
		{"wdm_branch_total", float64(snap.BranchOK)},
		{"wdm_disconnect_total", float64(snap.DisconnectOK)},
		{"wdm_blocked_total", 0},
		{"wdm_active_sessions", 1},
	} {
		if v, ok := pm.Value(tc.metric, nil); !ok || v != tc.want {
			t.Errorf("%s = %v, %v; want %v", tc.metric, v, ok, tc.want)
		}
	}
	// Per-fabric series: plane 0 holds the live session, plane 1 is
	// empty again.
	if v, ok := pm.Value("wdm_fabric_active", map[string]string{"fabric": "0"}); !ok || v != 1 {
		t.Errorf("wdm_fabric_active{fabric=0} = %v, %v; want 1", v, ok)
	}
	if v, ok := pm.Value("wdm_fabric_routed_total", map[string]string{"fabric": "1"}); !ok || v != 1 {
		t.Errorf("wdm_fabric_routed_total{fabric=1} = %v, %v; want 1", v, ok)
	}
	// Histogram count per op must equal the op counters (connect: 2,
	// branch: 1, disconnect: 1).
	for _, op := range []struct {
		name string
		want float64
	}{{"connect", 2}, {"branch", 1}, {"disconnect", 1}} {
		if v, ok := pm.Value("wdm_op_latency_seconds_count", map[string]string{"op": op.name}); !ok || v != op.want {
			t.Errorf("op latency count{op=%s} = %v, %v; want %v", op.name, v, ok, op.want)
		}
	}
	// The occupied plane's link gauges reflect the live 3-fanout
	// multicast: at least one busy link wavelength per stage.
	if v, ok := pm.Value("wdm_link_busy", map[string]string{"fabric": "0", "stage": "in"}); !ok || v < 1 {
		t.Errorf("wdm_link_busy{fabric=0,stage=in} = %v, %v; want >= 1", v, ok)
	}
	if v, ok := pm.Value("wdm_link_busy_ratio", map[string]string{"fabric": "1", "stage": "out"}); !ok || v != 0 {
		t.Errorf("wdm_link_busy_ratio{fabric=1,stage=out} = %v, %v; want 0", v, ok)
	}
	// Durable-plane series: one meta record plus the four mutations
	// above, each fsynced before ack, on a healthy log with nothing
	// recovered (fresh directory).
	walStats := ctl.WAL().Stats()
	for _, tc := range []struct {
		metric string
		want   float64
	}{
		{"wdm_wal_appends_total", 5},
		{"wdm_wal_last_seq", float64(walStats.LastSeq)},
		{"wdm_wal_synced_seq", float64(walStats.LastSeq)},
		{"wdm_wal_healthy", 1},
		{"wdm_recovered_sessions_total", 0},
	} {
		if v, ok := pm.Value(tc.metric, nil); !ok || v != tc.want {
			t.Errorf("%s = %v, %v; want %v", tc.metric, v, ok, tc.want)
		}
	}
	if v, ok := pm.Value("wdm_wal_fsyncs_total", nil); !ok || v < 5 {
		t.Errorf("wdm_wal_fsyncs_total = %v, %v; want >= 5 (immediate sync mode)", v, ok)
	}
	if v, ok := pm.Value("wdm_wal_fsync_seconds_count", nil); !ok || v < 5 {
		t.Errorf("wdm_wal_fsync_seconds_count = %v, %v; want >= 5", v, ok)
	}
	// No checkpoint yet, so the snapshot-age series must be absent;
	// after an explicit checkpoint it must appear fresh.
	if v, ok := pm.Value("wdm_snapshot_age_seconds", nil); ok {
		t.Errorf("wdm_snapshot_age_seconds = %v before first snapshot, want absent", v)
	}
	if err := ctl.WriteSnapshot(); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	pm = scrapeProm(t, srv.Client(), srv.URL)
	if v, ok := pm.Value("wdm_snapshot_age_seconds", nil); !ok || v < 0 || v > 60 {
		t.Errorf("wdm_snapshot_age_seconds = %v, %v; want fresh", v, ok)
	}
	if v, ok := pm.Value("wdm_snapshot_last_seq", nil); !ok || v != float64(walStats.LastSeq) {
		t.Errorf("wdm_snapshot_last_seq = %v, %v; want %d", v, ok, walStats.LastSeq)
	}
}

// TestHistoryMatchesExposition: one self-scrape of the metrics history
// holds exactly the series a strict parse of /metrics reads, with the
// same kinds, on a controller with a WAL, the history, federation rows
// and a blocking event. The history takes its samples as values, so
// this test is what strictly parses the full exposition. The operation
// histograms carry one bucket per routeBucketsMicros bound plus +Inf,
// with le labels in seconds.
func TestHistoryMatchesExposition(t *testing.T) {
	ctl := newTestController(t, Config{Fabric: belowBoundParams(), Replicas: 1,
		DataDir: t.TempDir(), SnapshotInterval: -1,
		HistoryInterval: time.Hour}) // no background scrape during the test
	defer ctl.Close()
	ctl.SetFederationProbe(func() []api.FederationPeerHealth {
		return []api.FederationPeerHealth{{Shard: "0", Up: true}, {Shard: "1", Up: false}}
	})
	srv := httptest.NewServer(ctl.Handler())
	defer srv.Close()
	driveUntilBlocked(t, ctl)

	if err := ctl.History().ScrapeOnce(time.Now()); err != nil {
		t.Fatalf("ScrapeOnce: %v", err)
	}
	var dump struct {
		Series []struct {
			Name   string            `json:"name"`
			Labels map[string]string `json:"labels"`
			Kind   string            `json:"kind"`
		} `json:"series"`
	}
	var buf bytes.Buffer
	if err := ctl.History().DumpJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	history := map[string]string{}
	for _, s := range dump.Series {
		history[s.Name+"{"+obs.LabelKey(s.Labels)+"}"] = s.Kind
	}

	pm := scrapeProm(t, srv.Client(), srv.URL)
	exposed := map[string]string{}
	for _, fam := range pm {
		for _, s := range fam.Samples {
			kind := "gauge"
			if fam.Type == "counter" || s.Name != fam.Name {
				kind = "counter" // histogram _bucket/_sum/_count are cumulative
			}
			exposed[s.Name+"{"+obs.LabelKey(s.Labels)+"}"] = kind
		}
	}
	for key, kind := range exposed {
		if got, ok := history[key]; !ok || got != kind {
			t.Errorf("series %s: history kind %q (present %v), exposition %q", key, got, ok, kind)
		}
	}
	for key := range history {
		if _, ok := exposed[key]; !ok {
			t.Errorf("series %s in the history but not on /metrics", key)
		}
	}
	for _, name := range []string{"wdm_blocked_total", "wdm_wal_appends_total", "wdm_wal_fsync_seconds", "wdm_tsdb_series", "wdm_slo_objective"} {
		if _, ok := pm[name]; !ok {
			t.Errorf("family %s missing from /metrics", name)
		}
	}
	if v := ctl.History().CounterAt("wdm_blocked_total", nil, time.Now()); v != 1 {
		t.Errorf("history wdm_blocked_total = %v, want 1", v)
	}
	for _, shard := range []string{"0", "1"} {
		if _, ok := history["wdm_federation_peer_up{shard=\""+shard+"\"}"]; !ok {
			t.Errorf("history lacks wdm_federation_peer_up{shard=%q}", shard)
		}
	}

	wantLE := make([]string, 0, len(routeBucketsMicros)+1)
	for _, us := range routeBucketsMicros {
		wantLE = append(wantLE, strconv.FormatFloat(float64(us)/1e6, 'g', -1, 64))
	}
	wantLE = append(wantLE, "+Inf")
	for _, op := range []string{"connect", "branch", "disconnect"} {
		var les []string
		for _, s := range pm["wdm_op_latency_seconds"].Samples {
			if s.Name == "wdm_op_latency_seconds_bucket" && s.Labels["op"] == op {
				les = append(les, s.Labels["le"])
			}
		}
		if !slices.Equal(les, wantLE) {
			t.Errorf("op %s buckets le = %v, want %v", op, les, wantLE)
		}
	}
}

// belowBoundParams is a configuration that blocks readily: m far below
// the Theorem 1 bound with the split limit pinned to 1.
func belowBoundParams() multistage.Params {
	p := testParams()
	p.M = 3
	p.X = 1
	return p
}

// driveUntilBlocked issues admissible traffic until the controller
// records a blocking event (sessions are deliberately never released, so
// the fabric fills until it blocks).
func driveUntilBlocked(t *testing.T, ctl *Controller) {
	t.Helper()
	p := ctl.Params()
	for src := 0; src < p.N; src++ {
		for dst := 0; dst < p.N; dst++ {
			if dst == src {
				continue
			}
			c := wdm.Connection{
				Source: wdm.PortWave{Port: wdm.Port(src), Wave: 0},
				Dests:  []wdm.PortWave{{Port: wdm.Port(dst), Wave: 0}},
			}
			_, _, err := ctl.Connect(context.Background(), c, 0)
			if multistage.IsBlocked(err) {
				return
			}
			if err == nil {
				break // source slot now busy; move to the next source
			}
		}
	}
	if ctl.Metrics().Blocked() == 0 {
		t.Fatal("could not provoke a blocking event below the bound")
	}
}

// TestDebugBlockingEndpoint forces blocking below the bound and asserts
// the forensics endpoint serves structured reports for it.
func TestDebugBlockingEndpoint(t *testing.T) {
	ctl := newTestController(t, Config{Fabric: belowBoundParams(), Replicas: 1})
	srv := httptest.NewServer(ctl.Handler())
	defer srv.Close()

	driveUntilBlocked(t, ctl)

	resp, err := srv.Client().Get(srv.URL + "/v1/debug/blocking")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/debug/blocking: status %d", resp.StatusCode)
	}
	var got blockingResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Total < 1 || len(got.Incidents) < 1 {
		t.Fatalf("blocking response = total %d, %d incidents; want >= 1", got.Total, len(got.Incidents))
	}
	inc := got.Incidents[len(got.Incidents)-1]
	if inc.Op != "connect" || inc.Conn == "" || inc.Error == "" {
		t.Fatalf("incident = %+v, want populated connect incident", inc)
	}
	if inc.Report == nil || len(inc.Report.Middles) == 0 {
		t.Fatalf("incident carries no forensic report: %+v", inc)
	}
	for _, md := range inc.Report.Middles {
		if md.State == "" {
			t.Fatalf("middle %d has no diagnosis: %+v", md.Middle, md)
		}
	}
}

// TestBlockLogRing asserts the ring keeps only the newest incidents and
// that a negative capacity disables the endpoint.
func TestBlockLogRing(t *testing.T) {
	l := newBlockLog(2)
	for i := 0; i < 3; i++ {
		l.record(BlockIncident{Op: "connect"})
	}
	incidents, total := l.snapshot()
	if total != 3 || len(incidents) != 2 {
		t.Fatalf("ring = %d incidents, total %d; want 2 kept of 3", len(incidents), total)
	}
	if incidents[0].Seq != 2 || incidents[1].Seq != 3 {
		t.Fatalf("ring seqs = %d,%d; want 2,3 (oldest dropped)", incidents[0].Seq, incidents[1].Seq)
	}

	ctl := newTestController(t, Config{Fabric: testParams(), BlockLog: -1})
	srv := httptest.NewServer(ctl.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/debug/blocking")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled forensics: status %d, want 404", resp.StatusCode)
	}
}

// TestTraceCaptureReplay is the acceptance path end to end: run live
// traffic below the bound until it blocks, fetch the captured trace over
// HTTP, and replay it against a fresh fabric of the same parameters —
// the replay must reproduce the exact same outcomes, blocked request
// included. This is what turns a serving-mode incident into a wdmtrace
// regression artifact.
func TestTraceCaptureReplay(t *testing.T) {
	ctl := newTestController(t, Config{Fabric: belowBoundParams(), Replicas: 1, CaptureTrace: true})
	srv := httptest.NewServer(ctl.Handler())
	defer srv.Close()

	runLoad(t, srv, traffic.Config{
		Seed:             7,
		Arrivals:         2000,
		WorkersPerFabric: 2,
		Erlangs:          8,
	})
	serverBlocked := ctl.Metrics().Blocked()
	if serverBlocked == 0 {
		t.Fatal("no blocking below the bound")
	}

	resp, err := srv.Client().Get(srv.URL + "/v1/debug/trace?fabric=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/debug/trace: status %d", resp.StatusCode)
	}
	tr, err := trace.Read(resp.Body)
	if err != nil {
		t.Fatalf("served trace does not parse: %v", err)
	}

	blocked := 0
	for _, ev := range tr.Events {
		if ev.Op == trace.Add && ev.Outcome == trace.Blocked {
			blocked++
		}
	}
	if blocked == 0 {
		t.Fatal("captured trace holds no blocked event")
	}
	if int64(blocked) != serverBlocked {
		t.Fatalf("trace holds %d blocked events, server counted %d", blocked, serverBlocked)
	}

	// Replay against a fresh fabric of identical parameters: the router
	// is deterministic, so every outcome — including each blocked add —
	// must reproduce exactly.
	fresh, err := multistage.New(ctl.Params())
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Replay(fresh, multistage.IsBlocked)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(res.Divergence) != 0 {
		t.Fatalf("replay diverged at %d events: %v", len(res.Divergence), res.Divergence)
	}
	_, replayBlocked := fresh.Stats()
	if int(replayBlocked) != blocked {
		t.Fatalf("replay produced %d blocked events, recording had %d", replayBlocked, blocked)
	}
}

// TestTraceDisabled: without CaptureTrace the endpoint 404s.
func TestTraceDisabled(t *testing.T) {
	ctl := newTestController(t, Config{Fabric: testParams()})
	srv := httptest.NewServer(ctl.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace without capture: status %d, want 404", resp.StatusCode)
	}
	if _, ok := ctl.Trace(0); ok {
		t.Fatal("Trace(0) reported ok with capture disabled")
	}
}

// TestTraceCapturesBranch asserts the branch decomposition: a grown
// session appears as release+add, and the captured trace replays
// cleanly.
func TestTraceCapturesBranch(t *testing.T) {
	ctl := newTestController(t, Config{Fabric: testParams(), Replicas: 1, CaptureTrace: true})
	id := mustConnect(t, ctl, "0.0>5.0", 0)
	if err := ctl.AddBranch(context.Background(), id, wdm.PortWave{Port: 9, Wave: 0}); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Disconnect(context.Background(), id); err != nil {
		t.Fatal(err)
	}

	tr, ok := ctl.Trace(0)
	if !ok {
		t.Fatal("Trace(0) not available")
	}
	// add original; release; add grown; release = 4 events.
	if len(tr.Events) != 4 {
		t.Fatalf("trace has %d events, want 4: %+v", len(tr.Events), tr.Events)
	}
	if tr.Events[2].Op != trace.Add || wdm.FormatConnection(tr.Events[2].Conn) != "0.0>5.0,9.0" {
		t.Fatalf("grown add = %+v, want 0.0>5.0,9.0", tr.Events[2])
	}

	fresh, err := multistage.New(ctl.Params())
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Replay(fresh, multistage.IsBlocked)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Divergence) != 0 || fresh.Len() != 0 {
		t.Fatalf("branch trace replay: %d divergences, %d live connections; want 0, 0",
			len(res.Divergence), fresh.Len())
	}
}

// TestTraceCommentHeader: the served trace opens with replayable
// parameter comments.
func TestTraceCommentHeader(t *testing.T) {
	ctl := newTestController(t, Config{Fabric: testParams(), Replicas: 1, CaptureTrace: true})
	srv := httptest.NewServer(ctl.Handler())
	defer srv.Close()
	mustConnect(t, ctl, "0.0>5.0", 0)

	resp, err := srv.Client().Get(srv.URL + "/v1/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	if !strings.HasPrefix(body, "# wdmserve live trace") {
		t.Fatalf("trace body missing header:\n%s", body)
	}
	if !strings.Contains(body, "wdmtrace -replay") || !strings.Contains(body, "add 0.0>5.0 ok=0") {
		t.Fatalf("trace body missing replay hint or event:\n%s", body)
	}
}
