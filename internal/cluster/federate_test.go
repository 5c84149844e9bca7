package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/switchd/api"
	"repro/internal/switchd/client"
)

// TestFederationMergesLiveShards runs two real shard primaries, drives
// different load into each, and asserts /v1/cluster/metrics serves a
// strict-parser-clean merged exposition: counters summed fleet-wide,
// gauges labeled per shard, both peers reported up. A third peer that
// is unreachable degrades the view to partial instead of failing it.
func TestFederationMergesLiveShards(t *testing.T) {
	p0 := startPrimary(t, t.TempDir(), ServerConfig{Shard: 0})
	defer p0.http.Close()
	defer p0.srv.Close()
	defer p0.ctl.Close()
	p1 := startPrimary(t, t.TempDir(), ServerConfig{Shard: 1})
	defer p1.http.Close()
	defer p1.srv.Close()
	defer p1.ctl.Close()

	ctx := context.Background()
	cl0 := client.New(p0.http.URL, client.WithHTTPClient(p0.http.Client()))
	cl1 := client.New(p1.http.URL, client.WithHTTPClient(p1.http.Client()))
	for i := 0; i < 3; i++ {
		if _, err := cl0.Connect(ctx, fmt.Sprintf("%d.0>%d.0", i, i+8), -1); err != nil {
			t.Fatalf("shard 0 connect %d: %v", i, err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := cl1.Connect(ctx, fmt.Sprintf("%d.0>%d.0", i, i+8), -1); err != nil {
			t.Fatalf("shard 1 connect %d: %v", i, err)
		}
	}

	peers := []FederationPeer{
		{Shard: "0", URLs: []string{p0.http.URL}},
		{Shard: "1", URLs: []string{p1.http.URL}},
	}
	fsrv := httptest.NewServer(NewFederationHandler(FederationConfig{
		Peers: func() []FederationPeer { return peers },
	}))
	defer fsrv.Close()

	resp, err := http.Get(fsrv.URL)
	if err != nil {
		t.Fatalf("GET federation: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET federation: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.ContentType)
	}
	m, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("merged exposition does not parse: %v", err)
	}

	// Counters sum across the fleet: 3 + 2 connects.
	if v, ok := m.Value("wdm_connect_total", nil); !ok || v != 5 {
		t.Errorf("fleet wdm_connect_total = %v, %v; want 5", v, ok)
	}
	// Gauges are labeled per shard.
	if v, ok := m.Value("wdm_active_sessions", map[string]string{"shard": "0"}); !ok || v != 3 {
		t.Errorf("wdm_active_sessions{shard=0} = %v, %v; want 3", v, ok)
	}
	if v, ok := m.Value("wdm_active_sessions", map[string]string{"shard": "1"}); !ok || v != 2 {
		t.Errorf("wdm_active_sessions{shard=1} = %v, %v; want 2", v, ok)
	}
	// Histograms sum: the connect latency count covers both shards.
	if v, ok := m.Value("wdm_op_latency_seconds_count", map[string]string{"op": "connect"}); !ok || v != 5 {
		t.Errorf("fleet op latency count{op=connect} = %v, %v; want 5", v, ok)
	}
	for _, shard := range []string{"0", "1"} {
		if v, ok := m.Value("wdm_federation_peer_up", map[string]string{"shard": shard}); !ok || v != 1 {
			t.Errorf("wdm_federation_peer_up{shard=%s} = %v, %v; want 1", shard, v, ok)
		}
	}

	// Add an unreachable peer: the merge must degrade to partial, not
	// fail, and mark the dead shard down.
	deadURL := "http://127.0.0.1:1" // connect refused immediately
	peers = append(peers, FederationPeer{Shard: "2", URLs: []string{deadURL}})
	resp2, err := http.Get(fsrv.URL)
	if err != nil {
		t.Fatalf("GET federation (partial): %v", err)
	}
	defer resp2.Body.Close()
	m2, err := obs.ParseProm(resp2.Body)
	if err != nil {
		t.Fatalf("partial merged exposition does not parse: %v", err)
	}
	if v, ok := m2.Value("wdm_federation_peer_up", map[string]string{"shard": "2"}); !ok || v != 0 {
		t.Errorf("wdm_federation_peer_up{shard=2} = %v, %v; want 0", v, ok)
	}
	if v, ok := m2.Value("wdm_connect_total", nil); !ok || v != 5 {
		t.Errorf("partial fleet wdm_connect_total = %v, %v; want 5", v, ok)
	}
}

// TestFederationPeerUpOncePerShard: both primaries run a federation
// prober whose own wdm_federation_peer_up rows call shard 1 down. The
// fleet view must still parse strictly and carry exactly one
// wdm_federation_peer_up per shard: the handler's verdict for this
// request (both shards merged, so 1), not a shard's view of its peer.
func TestFederationPeerUpOncePerShard(t *testing.T) {
	var peers []FederationPeer
	for shard := 0; shard < 2; shard++ {
		p := startPrimary(t, t.TempDir(), ServerConfig{Shard: shard})
		defer p.http.Close()
		defer p.srv.Close()
		defer p.ctl.Close()
		p.ctl.SetFederationProbe(func() []api.FederationPeerHealth {
			return []api.FederationPeerHealth{{Shard: "0", Up: true}, {Shard: "1", Up: false}}
		})
		peers = append(peers, FederationPeer{Shard: fmt.Sprint(shard), URLs: []string{p.http.URL}})
	}
	fsrv := httptest.NewServer(NewFederationHandler(FederationConfig{
		Peers: func() []FederationPeer { return peers },
	}))
	defer fsrv.Close()

	resp, err := http.Get(fsrv.URL)
	if err != nil {
		t.Fatalf("GET federation: %v", err)
	}
	defer resp.Body.Close()
	m, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("fleet exposition does not parse strictly: %v", err)
	}
	byShard := map[string][]float64{}
	for _, s := range m["wdm_federation_peer_up"].Samples {
		byShard[s.Labels["shard"]] = append(byShard[s.Labels["shard"]], s.Value)
	}
	for _, shard := range []string{"0", "1"} {
		if got := byShard[shard]; len(got) != 1 || got[0] != 1 {
			t.Errorf("wdm_federation_peer_up{shard=%q} samples = %v, want exactly [1]", shard, got)
		}
	}
	if len(byShard) != 2 {
		t.Errorf("wdm_federation_peer_up shards = %v, want 0 and 1", byShard)
	}
}

// TestFederationStandbyFallback points a shard's primary URL at a dead
// address with the live node second: the scrape must fall back and
// still report the shard up.
func TestFederationStandbyFallback(t *testing.T) {
	p := startPrimary(t, t.TempDir(), ServerConfig{Shard: 0})
	defer p.http.Close()
	defer p.srv.Close()
	defer p.ctl.Close()

	fsrv := httptest.NewServer(NewFederationHandler(FederationConfig{
		Peers: func() []FederationPeer {
			return []FederationPeer{{Shard: "0", URLs: []string{"http://127.0.0.1:1", p.http.URL}}}
		},
	}))
	defer fsrv.Close()

	resp, err := http.Get(fsrv.URL)
	if err != nil {
		t.Fatalf("GET federation: %v", err)
	}
	defer resp.Body.Close()
	m, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if v, ok := m.Value("wdm_federation_peer_up", map[string]string{"shard": "0"}); !ok || v != 1 {
		t.Errorf("wdm_federation_peer_up{shard=0} = %v, %v; want 1 via fallback URL", v, ok)
	}
}

// TestReplicationSpansJoinPrimaryTrace sends a connect with a sampled
// W3C traceparent and asserts the standby's apply produced a
// repl.apply span under the *same* trace id (carried through the
// replicated WAL record), with the fsync child attached.
func TestReplicationSpansJoinPrimaryTrace(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	p := startPrimary(t, dir1, ServerConfig{Shard: 0, SyncTimeout: 5 * time.Second, Heartbeat: 20 * time.Millisecond})
	defer p.http.Close()
	defer p.srv.Close()
	defer p.ctl.Close()

	serving := standbyServing()
	serving.Spans = span.Config{SampleEvery: 1} // keep every replication trace
	sb, err := NewStandby(StandbyConfig{
		Shard:     0,
		Primary:   p.ln.Addr().String(),
		DataDir:   dir2,
		Serving:   serving,
		Reconnect: 20 * time.Millisecond,
		Logger:    quietLogger(),
	})
	if err != nil {
		t.Fatalf("NewStandby: %v", err)
	}
	sb.Start()
	defer sb.Close()
	sbHTTP := httptest.NewServer(sb.Handler())
	defer sbHTTP.Close()
	waitFor(t, 5*time.Second, "standby to connect", func() bool { return p.srv.Standbys() == 1 })

	tid := span.NewTraceID()
	traceparent := span.FormatTraceparent(tid, span.NewSpanID(), span.FlagSampled)
	cl := client.New(p.http.URL, client.WithHTTPClient(p.http.Client()))
	if _, err := cl.Connect(client.ContextWithTraceparent(context.Background(), traceparent), "0.0>8.0", -1); err != nil {
		t.Fatalf("connect: %v", err)
	}

	target := p.ctl.WAL().SyncedSeq()
	waitFor(t, 5*time.Second, "standby to apply the connect", func() bool { return sb.AppliedSeq() >= target })

	var spans api.SpansResponse
	if err := json.Unmarshal([]byte(fetchBody(t, sbHTTP.URL+"/v1/debug/spans")), &spans); err != nil {
		t.Fatalf("decoding standby spans: %v", err)
	}
	var joined *span.TraceRecord
	for i := range spans.Traces {
		if spans.Traces[i].TraceID == tid.String() {
			joined = &spans.Traces[i]
			break
		}
	}
	if joined == nil {
		ids := make([]string, 0, len(spans.Traces))
		for _, tr := range spans.Traces {
			ids = append(ids, tr.Root+":"+tr.TraceID)
		}
		t.Fatalf("standby has no trace %s; kept traces: %s", tid, strings.Join(ids, ", "))
	}
	if joined.Root != "repl.apply" {
		t.Errorf("joined trace root = %q, want repl.apply", joined.Root)
	}
	var sawFsync bool
	for _, s := range joined.Spans {
		if s.Name == "repl.fsync" {
			sawFsync = true
		}
	}
	if !sawFsync {
		t.Errorf("joined trace has no repl.fsync child: %+v", joined.Spans)
	}
}
