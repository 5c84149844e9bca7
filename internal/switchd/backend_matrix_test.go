package switchd

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/fabric/backend"
	"repro/internal/multistage"
	"repro/internal/switchd/api"
	"repro/internal/switchd/client"
	"repro/internal/wdm"
)

// matrixParams sizes each backend at its own default (bound-level)
// provisioning, mirroring the cross-backend conformance suite.
func matrixParams(name string) multistage.Params {
	if name == "mesh" {
		return multistage.Params{N: 12, K: 4, R: 3, Model: wdm.MSW}
	}
	return multistage.Params{N: 16, K: 2, R: 4, Model: wdm.MSW, Lite: true}
}

// matrixTraffic is a small per-backend serving script: a multicast
// session to grow by one branch, two unicasts (one released), and a
// failure unit that carries live routes but hosts no endpoint.
type matrixTraffic struct {
	first  string
	branch wdm.PortWave
	second string
	third  string
	failJ  int
}

func matrixTrafficFor(name string) matrixTraffic {
	if name == "mesh" {
		// N=12, MC nodes every 3rd. Node 4 is an interior hop for the
		// 0>6 walk but no session terminates there, so failing it forces
		// a live migration instead of a drop.
		return matrixTraffic{
			first:  "0.0>6.0",
			branch: wdm.PortWave{Port: 9, Wave: 0},
			second: "1.1>7.1",
			third:  "2.2>8.2",
			failJ:  4,
		}
	}
	return matrixTraffic{
		first:  "0.0>5.0,9.0",
		branch: wdm.PortWave{Port: 12, Wave: 0},
		second: "1.0>6.0",
		third:  "2.1>7.1",
		failJ:  0,
	}
}

// TestBackendMatrixServeRecoverMigrate drives every registered backend
// through the full serving contract behind one switchd: connect,
// branch, disconnect, middle/node failure with live migration, repair,
// and crash recovery that reproduces the session set byte for byte.
func TestBackendMatrixServeRecoverMigrate(t *testing.T) {
	for _, name := range backend.Names() {
		t.Run(name, func(t *testing.T) {
			cfg := Config{
				Backend:          name,
				Fabric:           matrixParams(name),
				Replicas:         2,
				DataDir:          t.TempDir(),
				SnapshotInterval: -1,
			}
			ctl := newTestController(t, cfg)
			ctx := context.Background()

			if got := ctl.Backend(); got != name {
				t.Fatalf("Backend() = %q, want %q", got, name)
			}
			if st := ctl.Status(); st.Backend != name {
				t.Fatalf("Status().Backend = %q, want %q", st.Backend, name)
			}

			script := matrixTrafficFor(name)
			id1 := mustConnect(t, ctl, script.first, 0)
			if err := ctl.AddBranch(ctx, id1, script.branch); err != nil {
				t.Fatalf("AddBranch: %v", err)
			}
			id2 := mustConnect(t, ctl, script.second, 1)
			mustConnect(t, ctl, script.third, 0)
			if err := ctl.Disconnect(ctx, id2); err != nil {
				t.Fatalf("Disconnect: %v", err)
			}

			// Fail a unit carrying live routes on plane 0: sessions must
			// survive by migration, then the repair must restore full
			// capacity.
			rep, err := ctl.FailMiddle(ctx, 0, script.failJ)
			if err != nil {
				t.Fatalf("FailMiddle(%d): %v", script.failJ, err)
			}
			if len(rep.Dropped) != 0 {
				t.Fatalf("FailMiddle dropped sessions %v, want none (no endpoint on the failed unit)", rep.Dropped)
			}
			if got := ctl.ActiveSessions(); got != 2 {
				t.Fatalf("ActiveSessions after failure = %d, want 2", got)
			}
			if _, err := ctl.RepairMiddle(ctx, 0, script.failJ); err != nil {
				t.Fatalf("RepairMiddle: %v", err)
			}

			before := sessionsJSON(t, ctl)
			ctl.Crash()

			ctl2 := newTestController(t, cfg)
			defer ctl2.Close()
			if got := ctl2.Backend(); got != name {
				t.Fatalf("recovered Backend() = %q, want %q", got, name)
			}
			after := sessionsJSON(t, ctl2)
			if !bytes.Equal(before, after) {
				t.Fatalf("recovered sessions diverge for %s:\nbefore %s\nafter  %s", name, before, after)
			}
			if got := ctl2.ActiveSessions(); got != 2 {
				t.Fatalf("recovered ActiveSessions = %d, want 2", got)
			}
		})
	}
}

// TestFabricsEndpoint exercises the capability-discovery surface
// through the typed client: GET /v1/fabrics lists every registered
// backend with its bound and error codes, flags the serving one, and
// agrees with /v1/status and /v1/version about which backend that is.
func TestFabricsEndpoint(t *testing.T) {
	ctl := newTestController(t, Config{Backend: "mesh", Fabric: matrixParams("mesh"), Replicas: 1})
	srv := httptest.NewServer(ctl.Handler())
	defer srv.Close()
	cl := client.New(srv.URL, client.WithHTTPClient(srv.Client()))

	fr, err := cl.Fabrics(context.Background())
	if err != nil {
		t.Fatalf("Fabrics: %v", err)
	}
	if fr.Current != "mesh" {
		t.Fatalf("fabrics.current = %q, want mesh", fr.Current)
	}
	if len(fr.Fabrics) != len(backend.Names()) {
		t.Fatalf("fabrics lists %d backends, want %d", len(fr.Fabrics), len(backend.Names()))
	}
	seen := map[string]api.FabricInfo{}
	for _, f := range fr.Fabrics {
		seen[f.Name] = f
		if f.Current != (f.Name == "mesh") {
			t.Fatalf("fabric %q current = %v, want %v", f.Name, f.Current, f.Name == "mesh")
		}
		if f.Bound == "" || f.Description == "" {
			t.Fatalf("fabric %q missing capability card: %+v", f.Name, f)
		}
	}
	if codes := seen["mesh"].ErrorCodes; len(codes) != 1 || codes[0] != api.CodeSplitIncapable {
		t.Fatalf("mesh error codes = %v, want [%s]", codes, api.CodeSplitIncapable)
	}
	if codes := seen["awg"].ErrorCodes; len(codes) != 1 || codes[0] != api.CodeWavelengthConflict {
		t.Fatalf("awg error codes = %v, want [%s]", codes, api.CodeWavelengthConflict)
	}

	// /v1/status and /v1/version agree on the serving backend.
	st, err := cl.Status(context.Background())
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st.Backend != "mesh" {
		t.Fatalf("status.backend = %q, want mesh", st.Backend)
	}
	vi, err := cl.Version(context.Background())
	if err != nil {
		t.Fatalf("Version: %v", err)
	}
	if vi.Backend != "mesh" {
		t.Fatalf("version.backend = %q, want mesh", vi.Backend)
	}
}

// TestBackendErrorCodeMapping proves the backend-specific block codes
// survive the whole path — fabric, error envelope, HTTP status, typed
// client classification.
func TestBackendErrorCodeMapping(t *testing.T) {
	t.Run("split_incapable", func(t *testing.T) {
		// X=1: no mesh node can branch, so a 2-destination multicast is
		// structurally unroutable.
		p := matrixParams("mesh")
		p.X = 1
		ctl := newTestController(t, Config{Backend: "mesh", Fabric: p, Replicas: 1})
		srv := httptest.NewServer(ctl.Handler())
		defer srv.Close()
		cl := client.New(srv.URL, client.WithHTTPClient(srv.Client()))
		_, err := cl.Connect(context.Background(), "0.0>2.0,4.0", -1)
		if got := api.CodeOf(err); got != api.CodeSplitIncapable {
			t.Fatalf("code = %q (err %v), want %s", got, err, api.CodeSplitIncapable)
		}
		if !client.IsBlocked(err) {
			t.Fatal("split_incapable not classified as blocked")
		}
		if !client.IsPermanent(err) {
			t.Fatal("split_incapable not classified as permanent")
		}
	})
	t.Run("wavelength_conflict", func(t *testing.T) {
		// One middle: the second session in the same (src module, class
		// wavelength) lane has nowhere to go under the grating law.
		p := matrixParams("awg")
		p.M = 1
		ctl := newTestController(t, Config{Backend: "awg", Fabric: p, Replicas: 1})
		srv := httptest.NewServer(ctl.Handler())
		defer srv.Close()
		cl := client.New(srv.URL, client.WithHTTPClient(srv.Client()))
		ctx := context.Background()
		if _, err := cl.Connect(ctx, "0.0>4.0", -1); err != nil {
			t.Fatalf("first connect: %v", err)
		}
		_, err := cl.Connect(ctx, "1.0>5.0", -1)
		if got := api.CodeOf(err); got != api.CodeWavelengthConflict {
			t.Fatalf("code = %q (err %v), want %s", got, err, api.CodeWavelengthConflict)
		}
		if !client.IsBlocked(err) {
			t.Fatal("wavelength_conflict not classified as blocked")
		}
		if client.IsPermanent(err) {
			t.Fatal("wavelength_conflict wrongly classified as permanent (a release can clear it)")
		}
	})
}
