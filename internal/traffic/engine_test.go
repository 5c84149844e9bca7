// Engine tests run against a real in-process switchd over HTTP — the
// same serving loop wdmload drives — so blocking counts, churn
// semantics, and the determinism guarantee are asserted end to end.
// Like the in-process tests they live in package traffic_test, so they
// reach the engine only through its exported API, as wdmload does.
package traffic_test

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/multistage"
	"repro/internal/switchd"
	"repro/internal/switchd/client"
	"repro/internal/traffic"
	"repro/internal/wdm"
)

// newTestServer serves the repo's standard small fabric (MSW N=16 k=2
// r=4); m = 0 means the Theorem 1 sufficient bound.
func newTestServer(t *testing.T, m, x, replicas int) (*switchd.Controller, *httptest.Server) {
	t.Helper()
	ctl, err := switchd.New(switchd.Config{
		Fabric: multistage.Params{
			N: 16, K: 2, R: 4, M: m, X: x,
			Model:        wdm.MSW,
			Construction: multistage.MSWDominant,
			Lite:         true,
		},
		Replicas: replicas,
		Shards:   4,
		// Below-bound runs block on purpose; keep warnings quiet.
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatalf("switchd.New: %v", err)
	}
	srv := httptest.NewServer(ctl.Handler())
	t.Cleanup(srv.Close)
	return ctl, srv
}

// TestErlangModeAtBound: the full dynamic workload — Poisson arrivals,
// exponential holding, churn growing and shrinking live sessions — at
// the sufficient bound must never block, and the engine must drain
// every session it admitted.
func TestErlangModeAtBound(t *testing.T) {
	ctl, srv := newTestServer(t, 0, 0, 1)
	eng, err := traffic.NewEngine(traffic.Config{
		Sink:             traffic.NewClientSink(client.New(srv.URL, client.WithHTTPClient(srv.Client()))),
		Seed:             7,
		Arrivals:         1200,
		WorkersPerFabric: 2,
		MaxFanout:        4,
		Erlangs:          4,
		Churn:            traffic.ChurnConfig{Rate: 0.3},
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	rep, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	s := rep.Stats
	if s.Connects+s.Unoffered != 1200 {
		t.Errorf("connects %d + unoffered %d != 1200 arrivals", s.Connects, s.Unoffered)
	}
	if s.BlockedTotal() != 0 {
		t.Errorf("blocked = %d (connects %d, branches %d) at the bound, want 0", s.BlockedTotal(), s.Blocked, s.BranchBlocked)
	}
	if s.Routed == 0 || s.Branches == 0 || s.Shrinks == 0 {
		t.Errorf("churn inactive: routed=%d branches=%d shrinks=%d, want all > 0", s.Routed, s.Branches, s.Shrinks)
	}
	// Every admitted session (connects and shrink re-admits) is torn
	// down exactly once; nothing lost without chaos.
	if s.Disconnects != s.Routed || s.Lost != 0 {
		t.Errorf("disconnects=%d lost=%d, want %d and 0", s.Disconnects, s.Lost, s.Routed)
	}
	if live := ctl.ActiveSessions(); live != 0 {
		t.Errorf("%d sessions leaked on the server after drain", live)
	}
}

// TestBlockingBelowBound is the control: the same dynamic traffic
// against a starved middle stage must produce genuine blocks — the
// zero at the bound is falsifiable.
func TestBlockingBelowBound(t *testing.T) {
	_, srv := newTestServer(t, 3, 1, 1)
	eng, err := traffic.NewEngine(traffic.Config{
		Sink:             traffic.NewClientSink(client.New(srv.URL, client.WithHTTPClient(srv.Client()))),
		Seed:             7,
		Arrivals:         2000,
		WorkersPerFabric: 2,
		MaxFanout:        4,
		Erlangs:          8,
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	rep, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Stats.BlockedTotal() == 0 {
		t.Fatalf("no blocking below the bound (stats: %+v)", rep.Stats)
	}
	if p := rep.Stats.PBlock(); p <= 0 || p >= 1 {
		t.Errorf("P_block = %g, want in (0, 1)", p)
	}
}

// TestDeterministicStream: two engines with identical configs and
// seeds, against two fresh identical servers, must emit byte-identical
// request streams — with every stochastic feature enabled at once
// (MMPP arrivals, Pareto holding, Zipf fanout, hotspot skew, churn).
func TestDeterministicStream(t *testing.T) {
	arrival, err := traffic.ParseArrival("mmpp:burst=6,duty=0.2,dwell=3")
	if err != nil {
		t.Fatal(err)
	}
	holding, err := traffic.ParseHolding("pareto:alpha=1.8")
	if err != nil {
		t.Fatal(err)
	}
	fanout, err := traffic.ParseFanout("zipf:s=1.5")
	if err != nil {
		t.Fatal(err)
	}
	run := func() string {
		_, srv := newTestServer(t, 0, 0, 1)
		var buf bytes.Buffer
		eng, err := traffic.NewEngine(traffic.Config{
			Sink:             traffic.NewClientSink(client.New(srv.URL, client.WithHTTPClient(srv.Client()))),
			Seed:             42,
			Arrivals:         400,
			WorkersPerFabric: 2,
			MaxFanout:        4,
			Erlangs:          3,
			Arrival:          arrival,
			Holding:          holding,
			Fanout:           fanout,
			Hotspot:          traffic.HotspotConfig{Fraction: 0.3, Ports: 2},
			Churn:            traffic.ChurnConfig{Rate: 0.5},
			StreamLog:        &buf,
		})
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		if _, err := eng.Run(context.Background()); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a == "" {
		t.Fatal("empty request stream")
	}
	if a != b {
		t.Fatalf("same seed produced different streams:\n--- run 1 (%d bytes)\n%.400s\n--- run 2 (%d bytes)\n%.400s",
			len(a), a, len(b), b)
	}
	if !strings.Contains(a, "# worker 1\n") {
		t.Errorf("stream missing per-worker sections:\n%.200s", a)
	}
}

// TestSweepAtBound runs a short three-point sweep — what `make
// curves-demo` does in CI — and checks the artifact: metadata filled
// from the live target, P_block pinned at zero with honest Wilson
// upper bounds, analytic overlays present, and the recorded specs
// replayable.
func TestSweepAtBound(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point serving sweep")
	}
	_, srv := newTestServer(t, 0, 0, 1)
	curves, err := traffic.Sweep(context.Background(), traffic.SweepConfig{
		Engine: traffic.Config{
			Sink:             traffic.NewClientSink(client.New(srv.URL, client.WithHTTPClient(srv.Client()))),
			Seed:             7,
			Arrivals:         600,
			WorkersPerFabric: 2,
			MaxFanout:        4,
			Churn:            traffic.ChurnConfig{Rate: 0.3},
			Hotspot:          traffic.HotspotConfig{Fraction: 0.2, Ports: 2},
		},
		Points: []float64{1, 2, 4},
	})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if curves.N != 16 || curves.K != 2 || curves.R != 4 || curves.Backend == "" || !strings.EqualFold(curves.Model, "msw") {
		t.Errorf("metadata not filled from target: %+v", curves)
	}
	if !curves.AtBound() {
		t.Errorf("m=%d bound=%d: AtBound() = false at the default m", curves.M, curves.SufficientM)
	}
	if curves.MaxPBlock() != 0 {
		t.Errorf("MaxPBlock = %g at the bound, want 0", curves.MaxPBlock())
	}
	if len(curves.Points) != 3 {
		t.Fatalf("got %d points, want 3", len(curves.Points))
	}
	for i, pt := range curves.Points {
		if pt.Offered == 0 || pt.Blocked != 0 {
			t.Errorf("point %d: offered=%d blocked=%d", i, pt.Offered, pt.Blocked)
		}
		if pt.WilsonLo != 0 || pt.WilsonHi <= 0 {
			t.Errorf("point %d: Wilson [%g, %g], want [0, >0]", i, pt.WilsonLo, pt.WilsonHi)
		}
		if pt.LeePredicted < 0 || pt.LeePredicted > 1 || pt.ErlangB < 0 || pt.ErlangB > 1 {
			t.Errorf("point %d: overlays lee=%g erlangB=%g outside [0,1]", i, pt.LeePredicted, pt.ErlangB)
		}
		if pt.MeanFanout < 1 {
			t.Errorf("point %d: mean fanout %g < 1", i, pt.MeanFanout)
		}
		// The phase means come from the target's own registry.
		for _, ph := range []string{"route_search", "admission_wait"} {
			if v := pt.ServerPhases[ph]; v <= 0 {
				t.Errorf("point %d: server_phase_mean_us[%s] = %g, want > 0 (phases %v)", i, ph, v, pt.ServerPhases)
			}
		}
	}
	// The artifact's spec strings round-trip, so -mode replay can
	// rebuild the exact workload.
	if _, err := traffic.ParseArrival(curves.Arrival); err != nil {
		t.Errorf("recorded arrival %q not replayable: %v", curves.Arrival, err)
	}
	if _, err := traffic.ParseHolding(curves.Holding); err != nil {
		t.Errorf("recorded holding %q not replayable: %v", curves.Holding, err)
	}
	if _, err := traffic.ParseFanout(curves.Fanout); err != nil {
		t.Errorf("recorded fanout %q not replayable: %v", curves.Fanout, err)
	}
	// Churn and hotspot must ride the artifact too — replay rebuilds
	// the engine from the record, and a churned sweep offers more than
	// Arrivals requests per point.
	if curves.Churn.Rate != 0.3 {
		t.Errorf("recorded churn %+v, want rate 0.3", curves.Churn)
	}
	if curves.Hotspot.Fraction != 0.2 || curves.Hotspot.Ports != 2 {
		t.Errorf("recorded hotspot %+v, want {0.2 2}", curves.Hotspot)
	}
}

// TestSinksAgree: one engine, two sinks. The same one-worker Erlang
// run against a live server and against a bare network of the same
// parameters must offer the same stream and draw the same answers —
// the HTTP path adds latency, never a different outcome.
func TestSinksAgree(t *testing.T) {
	for _, m := range []int{3, 0} {
		_, srv := newTestServer(t, m, 1, 1)
		p := multistage.Params{N: 16, K: 2, R: 4, M: m, X: 1, Model: wdm.MSW, Construction: multistage.MSWDominant, Lite: true}
		net, err := multistage.New(p)
		if err != nil {
			t.Fatal(err)
		}
		run := func(sink traffic.Sink) (traffic.Stats, string) {
			var log bytes.Buffer
			eng, err := traffic.NewEngine(traffic.Config{
				Sink: sink, Seed: 3, Arrivals: 600, Erlangs: 8, MaxFanout: 8,
				Churn: traffic.ChurnConfig{Rate: 0.3}, StreamLog: &log,
			})
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			rep, err := eng.Run(context.Background())
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			return rep.Stats, log.String()
		}
		live, liveLog := run(traffic.NewClientSink(client.New(srv.URL, client.WithHTTPClient(srv.Client()))))
		local, localLog := run(traffic.NewNetworkSink(net, net.Params()))
		if liveLog != localLog {
			t.Fatalf("m=%d: the sinks drew different streams (%d vs %d bytes)", m, len(liveLog), len(localLog))
		}
		if live.Offered() != local.Offered() || live.BlockedTotal() != local.BlockedTotal() || live.Routed != local.Routed {
			t.Errorf("m=%d: live %d/%d blocked, in process %d/%d", m, live.BlockedTotal(), live.Offered(), local.BlockedTotal(), local.Offered())
		}
		if m == 3 && local.BlockedTotal() == 0 {
			t.Errorf("m=3 run never blocked; the comparison is vacuous")
		}
	}

	// An in-process sweep has no registry to read: no phase means.
	p := multistage.Params{N: 16, K: 2, R: 4, X: 1, Model: wdm.MSW, Construction: multistage.MSWDominant, Lite: true}
	net, err := multistage.New(p)
	if err != nil {
		t.Fatal(err)
	}
	curves, err := traffic.Sweep(context.Background(), traffic.SweepConfig{
		Engine: traffic.Config{Sink: traffic.NewNetworkSink(net, net.Params()), Seed: 3, Arrivals: 200},
		Points: []float64{2, 4},
	})
	if err != nil {
		t.Fatalf("in-process Sweep: %v", err)
	}
	for i, pt := range curves.Points {
		if pt.ServerPhases != nil {
			t.Errorf("in-process point %d has server phases %v, want nil", i, pt.ServerPhases)
		}
	}
}
