package switchd

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/span"
	"repro/internal/switchd/api"
	"repro/internal/wdm"
)

// TestPhaseTimerZeroAlloc is the acceptance gate for the phase plane:
// accumulating and observing phases without an exemplar trace id must
// not heap-allocate, so the instrumentation is free on the connect hot
// path (the bench path passes a stack timer and "" exactly like this).
func TestPhaseTimerZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	m := newMetrics(testParams(), 2)
	allocs := testing.AllocsPerRun(200, func() {
		var pt phaseTimer
		pt.add(phaseAdmission, 3*time.Microsecond)
		pt.add(phaseLockWait, 5*time.Microsecond)
		pt.add(phaseRouteSearch, 11*time.Microsecond)
		pt.add(phaseWALAppend, 7*time.Microsecond)
		pt.observe(m, "")
		pt.annotate(nil) // inactive span: no-op
	})
	if allocs != 0 {
		t.Fatalf("phase timer allocates %.1f objects per request on the hot path, want 0", allocs)
	}
}

// TestConnectPathZeroPhaseAllocs measures the full in-process connect +
// disconnect cycle with and without the stack phase timer: the timer
// must not add a single allocation.
func TestConnectPathZeroPhaseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	ctl := newTestController(t, Config{Fabric: testParams(), Replicas: 1, Spans: span.Config{Capacity: -1}})
	conn, err := wdm.ParseConnection("0.0>8.0")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cycle := func(pt *phaseTimer) {
		id, _, err := ctl.connect(ctx, pt, conn, 0)
		if err != nil {
			t.Fatalf("connect: %v", err)
		}
		if err := ctl.disconnect(ctx, pt, id); err != nil {
			t.Fatalf("disconnect: %v", err)
		}
	}
	base := testing.AllocsPerRun(100, func() { cycle(nil) })
	timed := testing.AllocsPerRun(100, func() {
		var pt phaseTimer
		cycle(&pt)
		pt.observe(ctl.metrics, "")
	})
	if timed > base {
		t.Fatalf("phase timing added allocations: %.1f with timer vs %.1f without", timed, base)
	}
}

// TestPhaseNamesComplete pins the name/attr tables to numPhases so a
// new phase cannot ship without its label.
func TestPhaseNamesComplete(t *testing.T) {
	for p := phase(0); p < numPhases; p++ {
		if phaseNames[p] == "" || phaseAttrs[p] == "" {
			t.Fatalf("phase %d missing name (%q) or attr (%q)", p, phaseNames[p], phaseAttrs[p])
		}
	}
}

// TestPhasesOnlyOnMetrics drives the HTTP path and asserts (a) the
// connect response carries no Server-Timing header — /metrics is the
// one place the phase split is published — and (b) /metrics exports
// wdm_phase_seconds histograms, which the strict parser accepts, with
// the connect's phases observed.
func TestPhasesOnlyOnMetrics(t *testing.T) {
	ctl := newTestController(t, Config{Fabric: testParams(), Replicas: 2,
		DataDir: t.TempDir(), SnapshotInterval: -1})
	srv := httptest.NewServer(ctl.Handler())
	defer srv.Close()

	body, err := json.Marshal(api.ConnectRequest{Connection: "0.0>8.0"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/v1/connect", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("connect: status %d", resp.StatusCode)
	}
	if st := resp.Header.Get("Server-Timing"); st != "" {
		t.Errorf("connect response carries Server-Timing %q; phases belong on /metrics only", st)
	}

	pm := scrapeProm(t, srv.Client(), srv.URL)
	if v, ok := pm.Value("wdm_phase_seconds_count", map[string]string{"phase": "route_search"}); !ok || v < 1 {
		t.Errorf("wdm_phase_seconds_count{phase=route_search} = %v, %v; want >= 1", v, ok)
	}
	if v, ok := pm.Value("wdm_phase_seconds_count", map[string]string{"phase": "wal_append"}); !ok || v < 1 {
		t.Errorf("wdm_phase_seconds_count{phase=wal_append} = %v, %v; want >= 1", v, ok)
	}
	// Runtime telemetry rides in the same exposition.
	if v, ok := pm.Value("wdm_go_goroutines", nil); !ok || v < 1 {
		t.Errorf("wdm_go_goroutines = %v, %v; want >= 1", v, ok)
	}
}

// TestVersionEndpointAndBuildInfo: /v1/version serves the build info
// and /metrics carries the matching wdm_build_info gauge.
func TestVersionEndpointAndBuildInfo(t *testing.T) {
	ctl := newTestController(t, Config{Fabric: testParams()})
	srv := httptest.NewServer(ctl.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/v1/version")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/version: status %d", resp.StatusCode)
	}
	var vi api.VersionInfo
	if err := json.NewDecoder(resp.Body).Decode(&vi); err != nil {
		t.Fatal(err)
	}
	if vi.Version != Version || vi.GoVersion == "" {
		t.Fatalf("version info = %+v, want version %q and a go version", vi, Version)
	}

	pm := scrapeProm(t, srv.Client(), srv.URL)
	if v, ok := pm.Value("wdm_build_info", map[string]string{"version": Version}); !ok || v != 1 {
		t.Errorf("wdm_build_info{version=%s} = %v, %v; want 1", Version, v, ok)
	}
}
