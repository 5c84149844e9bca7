package switchd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/obs/span"
	"repro/internal/obs/tsdb"
	"repro/internal/switchd/api"
	"repro/internal/switchd/client"
	"repro/internal/traffic"
	"repro/internal/wdm"
)

// postConnect issues POST /v1/connect, optionally under a traceparent,
// and returns the response (body decoded into out when non-nil).
func postConnect(t *testing.T, client *http.Client, baseURL, conn, traceparent string, out any) *http.Response {
	t.Helper()
	body, _ := json.Marshal(api.ConnectRequest{Connection: conn})
	req, err := http.NewRequest(http.MethodPost, baseURL+"/v1/connect", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set(span.TraceparentHeader, traceparent)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/connect: %v", err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode connect response: %v", err)
		}
	}
	return resp
}

// fetchSpans queries /v1/debug/spans with a raw query string.
func fetchSpans(t *testing.T, client *http.Client, baseURL, query string) SpansResponse {
	t.Helper()
	resp, err := client.Get(baseURL + "/v1/debug/spans" + query)
	if err != nil {
		t.Fatalf("GET /v1/debug/spans%s: %v", query, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/debug/spans%s: status %d", query, resp.StatusCode)
	}
	var sr SpansResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decode spans response: %v", err)
	}
	return sr
}

// traceRef is one connect the load generator sent: the W3C trace id it
// carried and the outcome code it drew.
type traceRef struct{ traceID, code string }

// traceSink records a traceRef for every connect it forwards.
type traceSink struct {
	traffic.Sink
	mu   sync.Mutex
	refs []traceRef
}

func (s *traceSink) Connect(ctx context.Context, fabric int, c wdm.Connection) (traffic.Reply, error) {
	r, err := s.Sink.Connect(ctx, fabric, c)
	if err == nil {
		s.mu.Lock()
		s.refs = append(s.refs, traceRef{r.TraceID, r.Code})
		s.mu.Unlock()
	}
	return r, err
}

// TestTraceJoinEndToEnd is the acceptance test for the tracing
// subsystem: below the bound, one blocked request is followable by
// trace id through every observability surface — the load generator's
// client-side record, the span ring (with per-middle rejection spans),
// the /metrics exemplar, and the blocking-forensics incident.
func TestTraceJoinEndToEnd(t *testing.T) {
	p := testParams()
	p.M = 1 // far below the sufficient bound: blocking is easy to provoke
	p.X = 1
	ctl := newTestController(t, Config{
		Fabric: p, Replicas: 1, Shards: 4,
		// Keep every trace: the ring must outlast the whole load run so
		// client-recorded ids always resolve.
		Spans: span.Config{Capacity: 4096, SampleEvery: 1},
	})
	srv := httptest.NewServer(ctl.Handler())
	defer srv.Close()
	client := srv.Client()

	// Phase 1 — the load generator tags every connect with a fresh
	// traceparent; the sink wrapper records each connect's trace id and
	// outcome.
	sink := &traceSink{Sink: clientSink(srv)}
	s := runLoad(t, srv, traffic.Config{Seed: 7, Arrivals: 600, WorkersPerFabric: 2, Erlangs: 8, Sink: sink}).Stats
	if s.Blocked == 0 {
		t.Fatalf("no blocking at m=1; cannot exercise the trace join (%d connects)", s.Connects)
	}
	if len(sink.refs) != s.Connects {
		t.Fatalf("load generator recorded %d trace refs for %d connects", len(sink.refs), s.Connects)
	}
	var blockedRefs []traceRef
	for _, ref := range sink.refs {
		if len(ref.traceID) != 32 {
			t.Fatalf("trace ref %q is not a 32-hex trace id", ref.traceID)
		}
		if ref.code == api.CodeBlocked {
			blockedRefs = append(blockedRefs, ref)
		}
	}
	if len(blockedRefs) != s.Blocked {
		t.Fatalf("%d trace refs record a block, the run counted %d", len(blockedRefs), s.Blocked)
	}
	// A client-recorded blocked id resolves in the span ring.
	got := fetchSpans(t, client, srv.URL, "?trace="+blockedRefs[0].traceID)
	if len(got.Traces) != 1 || !got.Traces[0].Blocked {
		t.Fatalf("load-blocked trace %s not in ring as blocked (got %d traces)",
			blockedRefs[0].traceID, len(got.Traces))
	}

	// Phase 2 — deterministic tail. The load run released its sessions, so
	// rebuild the blocking state and drive one blocked connect under a
	// traceparent the test owns end to end.
	if resp := postConnect(t, client, srv.URL, "0.0>4.0", "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("setup connect: status %d", resp.StatusCode)
	}
	tid := span.NewTraceID()
	tp := span.FormatTraceparent(tid, span.NewSpanID(), span.FlagSampled)
	var blockedResp api.Envelope
	resp := postConnect(t, client, srv.URL, "1.0>8.0", tp, &blockedResp)
	if resp.StatusCode != http.StatusConflict || blockedResp.Error == nil || blockedResp.Error.Code != api.CodeBlocked {
		t.Fatalf("tail connect: status %d body %+v, want 409 %s", resp.StatusCode, blockedResp.Error, api.CodeBlocked)
	}
	// The inbound trace id is echoed in the traceparent response header.
	if echoed := resp.Header.Get(span.TraceparentHeader); echoed == "" {
		t.Fatal("no traceparent response header")
	} else if etid, _, _, err := span.ParseTraceparent(echoed); err != nil || etid.String() != tid.String() {
		t.Fatalf("echoed traceparent %q does not carry inbound trace id %s", echoed, tid)
	}

	// Join 1: the span ring holds the full trace — HTTP root,
	// switchd.connect, fabric.add, and per-middle rejection spans with
	// the structured block reason.
	sr := fetchSpans(t, client, srv.URL, "?trace="+tid.String())
	if len(sr.Traces) != 1 {
		t.Fatalf("trace %s: got %d ring entries, want 1", tid, len(sr.Traces))
	}
	tr := sr.Traces[0]
	if !tr.Blocked {
		t.Fatalf("trace %s not marked blocked: %+v", tid, tr)
	}
	names := map[string]int{}
	rejections := 0
	for _, s := range tr.Spans {
		names[s.Name]++
		if s.Name == "route.middle" && s.Status == span.StatusBlocked {
			rejections++
			var hasMiddle, hasState bool
			for _, a := range s.Attrs {
				hasMiddle = hasMiddle || a.Key == "middle"
				hasState = hasState || a.Key == "state"
			}
			if !hasMiddle || !hasState {
				t.Fatalf("rejection span lacks middle/state attrs: %+v", s)
			}
		}
	}
	for _, want := range []string{"http POST /v1/connect", "switchd.connect", "fabric.add"} {
		if names[want] == 0 {
			t.Fatalf("trace %s missing span %q (have %v)", tid, want, names)
		}
	}
	if rejections == 0 {
		t.Fatalf("trace %s has no per-middle rejection spans: %+v", tid, tr.Spans)
	}

	// Join 2: the OpenMetrics exposition carries the trace id as an
	// exemplar on the connect-latency histogram.
	mresp, err := client.Get(srv.URL + "/metrics?exemplars=1")
	if err != nil {
		t.Fatalf("GET /metrics?exemplars=1: %v", err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); ct != obs.ContentTypeOpenMetrics {
		t.Fatalf("Content-Type = %q, want OpenMetrics", ct)
	}
	pm, err := obs.ParseProm(mresp.Body)
	if err != nil {
		t.Fatalf("OpenMetrics exposition does not parse: %v", err)
	}
	foundExemplar := false
	for _, s := range pm["wdm_op_latency_seconds"].Samples {
		if s.Labels["op"] == "connect" && s.Exemplar.TraceID() == tid.String() {
			foundExemplar = true
			break
		}
	}
	if !foundExemplar {
		t.Fatalf("no connect-latency exemplar carries trace id %s", tid)
	}

	// Join 3: the forensics incident carries the same trace id next to
	// its structured BlockReport.
	incidents, _ := ctl.BlockIncidents()
	foundIncident := false
	for _, inc := range incidents {
		if inc.TraceID == tid.String() {
			foundIncident = true
			if inc.Report == nil {
				t.Fatalf("incident for trace %s has no block report", tid)
			}
		}
	}
	if !foundIncident {
		t.Fatalf("no blocking incident carries trace id %s", tid)
	}
}

// TestBlockLogConcurrentStress hammers the forensics ring from
// concurrent blocked connects while HTTP readers snapshot it — the
// -race referee for the ring buffer.
func TestBlockLogConcurrentStress(t *testing.T) {
	p := testParams()
	p.M = 1
	p.X = 1
	ctl := newTestController(t, Config{Fabric: p, Replicas: 1, Shards: 4, BlockLog: 64})
	srv := httptest.NewServer(ctl.Handler())
	defer srv.Close()
	mustConnect(t, ctl, "0.0>4.0", 0) // occupy the only middle's input link

	const writers, readers, iters = 4, 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Every attempt blocks (m=1 and the link is held) and
				// appends one incident.
				conn := mustParse(t, fmt.Sprintf("1.0>%d.0", 8+i%4))
				if _, _, err := ctl.Connect(context.Background(), conn, 0); err == nil {
					t.Error("connect unexpectedly routed at m=1")
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				resp, err := srv.Client().Get(srv.URL + "/v1/debug/blocking")
				if err != nil {
					t.Errorf("GET /v1/debug/blocking: %v", err)
					return
				}
				var br blockingResponse
				if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
					t.Errorf("decode: %v", err)
				}
				resp.Body.Close()
				if len(br.Incidents) > 64 {
					t.Errorf("ring overflow: %d incidents > cap 64", len(br.Incidents))
				}
				for j := 1; j < len(br.Incidents); j++ {
					if br.Incidents[j].Seq <= br.Incidents[j-1].Seq {
						t.Errorf("incident seq not monotonic: %d then %d",
							br.Incidents[j-1].Seq, br.Incidents[j].Seq)
					}
				}
			}
		}()
	}
	wg.Wait()

	incidents, total := ctl.BlockIncidents()
	if total < writers*iters {
		t.Fatalf("total incidents %d < %d blocked connects", total, writers*iters)
	}
	if len(incidents) != 64 {
		t.Fatalf("ring holds %d incidents, want cap 64", len(incidents))
	}
}

// TestSLOHealthyAtBound is the SLO side of the nonblocking theorem: at
// the sufficient bound the availability SLI reads exactly 1 with zero
// burn on every window, and no alert fires.
func TestSLOHealthyAtBound(t *testing.T) {
	ctl := newTestController(t, Config{Fabric: testParams(), Replicas: 2, Shards: 8,
		HistoryInterval: 50 * time.Millisecond})
	defer ctl.Close()
	srv := httptest.NewServer(ctl.Handler())
	defer srv.Close()

	s := runLoad(t, srv, traffic.Config{Seed: 11, Arrivals: 400, WorkersPerFabric: 2, Erlangs: 8}).Stats
	if s.Blocked != 0 {
		t.Fatalf("blocked %d of %d connects at the bound", s.Blocked, s.Connects)
	}

	resp, err := srv.Client().Get(srv.URL + "/v1/slo")
	if err != nil {
		t.Fatalf("GET /v1/slo: %v", err)
	}
	defer resp.Body.Close()
	var snap slo.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode /v1/slo: %v", err)
	}
	if len(snap.Windows) == 0 || len(snap.Alerts) == 0 {
		t.Fatalf("snapshot missing windows or alerts: %+v", snap)
	}
	if snap.Windows[0].Total == 0 {
		t.Fatal("SLO view counted no operations")
	}
	for _, w := range snap.Windows {
		if w.Availability != 1 || w.AvailabilityBurn != 0 {
			t.Fatalf("window %s: availability %v burn %v; want exactly 1 and 0 at the bound",
				w.Window, w.Availability, w.AvailabilityBurn)
		}
		if w.Bad != 0 {
			t.Fatalf("window %s: %d bad ops at the bound", w.Window, w.Bad)
		}
	}
	for _, a := range snap.Alerts {
		if a.AvailabilityFiring {
			t.Fatalf("alert %s firing on availability at the bound", a.Name)
		}
	}

	// The Prometheus gauges agree.
	pm := scrapeProm(t, srv.Client(), srv.URL)
	for _, w := range snap.Windows {
		lbl := map[string]string{"window": w.Window}
		if v, ok := pm.Value("wdm_slo_availability", lbl); !ok || v != 1 {
			t.Fatalf("wdm_slo_availability{window=%q} = %v, %v; want 1", w.Window, v, ok)
		}
		if v, ok := pm.Value("wdm_slo_availability_burn", lbl); !ok || v != 0 {
			t.Fatalf("wdm_slo_availability_burn{window=%q} = %v, %v; want 0", w.Window, v, ok)
		}
	}
}

// TestSLOBurnAlertBelowBound follows the trace walkthrough's two
// connects through the SLO view. Below the bound (m=1, x=1) the second
// connect blocks: 1 bad of 2 ops burns the 0.999 budget at 500 on
// every window, so /v1/slo fires both multiwindow alerts, and after the
// next scrape the shipped availability_burn rule fires on the scraped
// gauge with the same value. At the bound both connects route and
// neither fires.
func TestSLOBurnAlertBelowBound(t *testing.T) {
	for _, tc := range []struct {
		name    string
		m, x    int
		blocked bool
	}{
		{"below", 1, 1, true},
		{"at", 0, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := testParams()
			p.M, p.X = tc.m, tc.x
			ctl := newTestController(t, Config{Fabric: p, Replicas: 1, HistoryInterval: 20 * time.Millisecond})
			defer ctl.Close()
			srv := httptest.NewServer(ctl.Handler())
			defer srv.Close()
			cl := client.New(srv.URL, client.WithHTTPClient(srv.Client()))
			ctx := context.Background()

			mustConnect(t, ctl, "0.0>4.0", 0)
			_, _, err := ctl.Connect(ctx, mustParse(t, "1.0>8.0"), 0)
			if blocked := err != nil; blocked != tc.blocked {
				t.Fatalf("second connect: %v, want blocked=%v", err, tc.blocked)
			}
			done := time.Now()

			snap, err := cl.SLO(ctx)
			if err != nil {
				t.Fatalf("GET /v1/slo: %v", err)
			}
			wantBad, wantBurn := int64(0), 0.0
			if tc.blocked {
				wantBad, wantBurn = 1, 500
			}
			for _, w := range snap.Windows {
				if w.Total != 2 || w.Bad != wantBad || math.Abs(w.AvailabilityBurn-wantBurn) > 1e-6 {
					t.Fatalf("window %s = %+v, want total 2, bad %d, burn %v", w.Window, w, wantBad, wantBurn)
				}
			}
			for _, a := range snap.Alerts {
				if a.AvailabilityFiring != tc.blocked {
					t.Fatalf("alert %s availability firing = %v, want %v", a.Name, a.AvailabilityFiring, tc.blocked)
				}
			}

			var st tsdb.AlertStatus
			if tc.blocked {
				st = waitAlertState(t, cl, "availability_burn", tsdb.StateFiring, 5*time.Second)
				if math.Abs(st.Value-500) > 1e-6 {
					t.Fatalf("availability_burn value %v, want 500", st.Value)
				}
			} else {
				st = waitAlertEval(t, cl, "availability_burn", done, 5*time.Second)
				if st.State != tsdb.StateInactive {
					t.Fatalf("availability_burn %s at the bound (value %v)", st.State, st.Value)
				}
			}

			// The window baselines read the very series /metrics exposes:
			// once a scrape has seen the final counts, the history's copy
			// equals the registry's.
			if got, want := ctl.sloCountsAt(time.Now()), ctl.metrics.sloCounts(); got != want || want.Timed != 2 {
				t.Fatalf("history counts %+v, registry counts %+v (want 2 timed)", got, want)
			}
		})
	}
}

// waitAlertEval polls /v1/alerts until the named rule has been
// evaluated after the given time.
func waitAlertEval(t *testing.T, cl *client.Client, rule string, after time.Time, deadline time.Duration) tsdb.AlertStatus {
	t.Helper()
	for end := time.Now().Add(deadline); time.Now().Before(end); time.Sleep(20 * time.Millisecond) {
		alerts, err := cl.Alerts(context.Background())
		if err != nil {
			t.Fatalf("GET /v1/alerts: %v", err)
		}
		for _, a := range alerts {
			if a.Rule.Name == rule && a.LastEval != nil && a.LastEval.After(after) {
				return a
			}
		}
	}
	t.Fatalf("rule %s not evaluated after %s", rule, after)
	return tsdb.AlertStatus{}
}

// TestSLOThresholdIsALatencyBucket: the latency SLI counts the
// observations above one histogram bucket, so its threshold must be a
// bucket bound.
func TestSLOThresholdIsALatencyBucket(t *testing.T) {
	if !slices.Contains(routeBucketsMicros, slo.LatencyThreshold.Microseconds()) {
		t.Fatalf("latency buckets %v lack the SLO threshold %v", routeBucketsMicros, slo.LatencyThreshold)
	}
}

// TestSpansEndpointFilters covers the /v1/debug/spans query surface.
func TestSpansEndpointFilters(t *testing.T) {
	ctl := newTestController(t, Config{
		Fabric: testParams(), Replicas: 1, Shards: 4,
		Spans: span.Config{SampleEvery: 1},
	})
	srv := httptest.NewServer(ctl.Handler())
	defer srv.Close()
	client := srv.Client()

	for _, conn := range []string{"0.0>4.0", "1.0>8.0", "2.0>12.0"} {
		if resp := postConnect(t, client, srv.URL, conn, "", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("connect %q: status %d", conn, resp.StatusCode)
		}
	}

	all := fetchSpans(t, client, srv.URL, "")
	if all.Kept < 3 || len(all.Traces) < 3 {
		t.Fatalf("kept %d traces, listing %d; want >= 3", all.Kept, len(all.Traces))
	}
	if got := fetchSpans(t, client, srv.URL, "?limit=2"); len(got.Traces) != 2 {
		t.Fatalf("?limit=2 returned %d traces", len(got.Traces))
	}
	if got := fetchSpans(t, client, srv.URL, "?blocked=1"); len(got.Traces) != 0 {
		t.Fatalf("?blocked=1 returned %d traces with zero blocking", len(got.Traces))
	}
	if got := fetchSpans(t, client, srv.URL, "?trace="+span.NewTraceID().String()); len(got.Traces) != 0 {
		t.Fatalf("unknown trace id matched %d traces", len(got.Traces))
	}
	resp, err := client.Get(srv.URL + "/v1/debug/spans?limit=x")
	if err != nil {
		t.Fatalf("GET ?limit=x: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("?limit=x: status %d, want 400", resp.StatusCode)
	}
}
