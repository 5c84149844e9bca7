package switchd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/multistage"
	"repro/internal/obs"
	"repro/internal/switchd/api"
	"repro/internal/switchd/client"
	"repro/internal/traffic"
	"repro/internal/wdm"
	"repro/internal/workload"
)

// testParams is the small fabric most tests run against: MSW model,
// MSW-dominant construction, N=16 k=2 r=4, middle stage defaulted to
// the Theorem 1 sufficient bound.
func testParams() multistage.Params {
	return multistage.Params{
		N: 16, K: 2, R: 4,
		Model:        wdm.MSW,
		Construction: multistage.MSWDominant,
		Lite:         true,
	}
}

func newTestController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	if cfg.Logger == nil {
		// Below-bound tests block on purpose; keep the warnings out of
		// the test output.
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctl, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return ctl
}

func mustConnect(t *testing.T, ctl *Controller, conn string, pin int) uint64 {
	t.Helper()
	c, err := wdm.ParseConnection(conn)
	if err != nil {
		t.Fatalf("ParseConnection(%q): %v", conn, err)
	}
	id, _, err := ctl.Connect(context.Background(), c, pin)
	if err != nil {
		t.Fatalf("Connect(%q): %v", conn, err)
	}
	return id
}

func TestConnectBranchDisconnect(t *testing.T) {
	ctl := newTestController(t, Config{Fabric: testParams(), Replicas: 2})

	id := mustConnect(t, ctl, "0.0>5.0,9.0", -1)
	if got := ctl.ActiveSessions(); got != 1 {
		t.Fatalf("ActiveSessions = %d, want 1", got)
	}
	info, ok := ctl.Session(id)
	if !ok || info.Fanout != 2 {
		t.Fatalf("Session(%d) = %+v, %v; want fanout 2", id, info, ok)
	}

	// Grow by one receiver; the session keeps its id and reports the
	// enlarged fanout.
	if err := ctl.AddBranch(context.Background(), id, wdm.PortWave{Port: 12, Wave: 0}); err != nil {
		t.Fatalf("AddBranch: %v", err)
	}
	info, ok = ctl.Session(id)
	if !ok || info.Fanout != 3 || info.Branches != 1 {
		t.Fatalf("after branch: Session = %+v, %v; want fanout 3, 1 branch", info, ok)
	}

	// The freed slots are reusable after disconnect.
	if err := ctl.Disconnect(context.Background(), id); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	if got := ctl.ActiveSessions(); got != 0 {
		t.Fatalf("ActiveSessions after disconnect = %d, want 0", got)
	}
	mustConnect(t, ctl, "0.0>5.0,9.0,12.0", -1)

	if b := ctl.Metrics().Blocked(); b != 0 {
		t.Fatalf("blocked = %d, want 0", b)
	}
}

func TestConnectErrors(t *testing.T) {
	ctl := newTestController(t, Config{Fabric: testParams(), Replicas: 2})
	mustConnect(t, ctl, "0.0>5.0", 0)

	// Same source slot on the same plane: inadmissible, not blocked.
	c, _ := wdm.ParseConnection("0.0>7.0")
	if _, _, err := ctl.Connect(context.Background(), c, 0); err == nil || multistage.IsBlocked(err) {
		t.Fatalf("reusing busy source: err = %v, want inadmissible error", err)
	}
	// The same slots on the *other* plane are free: planes are
	// independent fabrics.
	if _, _, err := ctl.Connect(context.Background(), c, 1); err != nil {
		t.Fatalf("fresh plane rejected: %v", err)
	}

	// Out-of-range pin.
	if _, _, err := ctl.Connect(context.Background(), mustParse(t, "1.0>6.0"), 99); err == nil {
		t.Fatal("pin 99 accepted, want error")
	}

	if _, ok := ctl.Session(12345); ok {
		t.Fatal("Session(12345) reported ok for unknown id")
	}
	if err := ctl.Disconnect(context.Background(), 12345); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("Disconnect(12345) = %v, want ErrUnknownSession", err)
	}
	if err := ctl.AddBranch(context.Background(), 12345, wdm.PortWave{Port: 3, Wave: 0}); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("AddBranch(12345) = %v, want ErrUnknownSession", err)
	}
}

func mustParse(t *testing.T, s string) wdm.Connection {
	t.Helper()
	c, err := wdm.ParseConnection(s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAdmissionCap(t *testing.T) {
	ctl := newTestController(t, Config{Fabric: testParams(), Replicas: 1, MaxSessions: 2})
	mustConnect(t, ctl, "0.0>5.0", -1)
	mustConnect(t, ctl, "1.0>6.0", -1)
	_, _, err := ctl.Connect(context.Background(), mustParse(t, "2.0>7.0"), -1)
	if !errors.Is(err, ErrOverCapacity) {
		t.Fatalf("third connect = %v, want ErrOverCapacity", err)
	}
	if got := ctl.Metrics().Snapshot().CapRejects; got != 1 {
		t.Fatalf("CapRejects = %d, want 1", got)
	}
	// Capacity frees up with a disconnect; rejected requests must not
	// leak admission slots.
	sessions := collectSessions(ctl)
	if err := ctl.Disconnect(context.Background(), sessions[0]); err != nil {
		t.Fatal(err)
	}
	mustConnect(t, ctl, "2.0>7.0", -1)
}

func collectSessions(ctl *Controller) []uint64 {
	var ids []uint64
	for _, sh := range ctl.sessions.shards {
		sh.mu.Lock()
		for id := range sh.m {
			ids = append(ids, id)
		}
		sh.mu.Unlock()
	}
	return ids
}

func TestDrain(t *testing.T) {
	ctl := newTestController(t, Config{Fabric: testParams(), Replicas: 2})
	mustConnect(t, ctl, "0.0>5.0", -1)
	mustConnect(t, ctl, "1.0>6.0,7.0", -1)

	sum := ctl.Drain(context.Background())
	if sum.Released != 2 || sum.Errors != 0 {
		t.Fatalf("Drain = %+v, want 2 released, 0 errors", sum)
	}
	if got := ctl.ActiveSessions(); got != 0 {
		t.Fatalf("ActiveSessions after drain = %d, want 0", got)
	}
	if _, _, err := ctl.Connect(context.Background(), mustParse(t, "0.0>5.0"), -1); !errors.Is(err, ErrDraining) {
		t.Fatalf("connect while draining = %v, want ErrDraining", err)
	}
	// Idempotent.
	if sum := ctl.Drain(context.Background()); sum.Released != 0 {
		t.Fatalf("second Drain released %d, want 0", sum.Released)
	}
}

// TestDrainRacesWithConnect fires Drain while Connect traffic is still
// arriving and asserts Drain's contract regardless of interleaving:
// when it returns, every routed session has been released and none can
// appear afterwards — including sessions routed by Connects that
// passed the draining check just before it flipped.
func TestDrainRacesWithConnect(t *testing.T) {
	for round := 0; round < 10; round++ {
		ctl := newTestController(t, Config{Fabric: testParams(), Replicas: 2, Shards: 4})
		// One private source/dest port pair per goroutine, so every
		// request is admissible whenever its previous session is gone.
		conns := make([]wdm.Connection, 8)
		for g := range conns {
			conns[g] = mustParse(t, fmt.Sprintf("%d.0>%d.0", 2*g, 2*g+1))
		}
		var wg sync.WaitGroup
		for g := 0; g < len(conns); g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					id, _, err := ctl.Connect(context.Background(), conns[g], g%2)
					if errors.Is(err, ErrDraining) {
						return
					}
					if err == nil && i%2 == 0 {
						_ = ctl.Disconnect(context.Background(), id)
					}
				}
			}(g)
		}
		time.Sleep(500 * time.Microsecond) // let traffic build up
		sum := ctl.Drain(context.Background())
		wg.Wait()
		if sum.Errors != 0 {
			t.Fatalf("round %d: Drain errors = %d", round, sum.Errors)
		}
		if n := ctl.sessions.len(); n != 0 {
			t.Fatalf("round %d: %d sessions live after Drain", round, n)
		}
		if n := ctl.ActiveSessions(); n != 0 {
			t.Fatalf("round %d: ActiveSessions = %d after Drain", round, n)
		}
		for _, f := range ctl.Status().Fabrics {
			if f.Active != 0 {
				t.Fatalf("round %d: fabric %d holds %d routed connections after Drain",
					round, f.Replica, f.Active)
			}
		}
	}
}

// TestConcurrentConnectDisconnect drives 16 goroutines (4 per fabric
// plane, each owning a disjoint slice of the port space so every
// request is admissible) through repeated Connect/AddBranch/Disconnect
// cycles. With m at the sufficient bound nothing may block, and the
// final state must be empty. Run under -race this is the package's
// data-race probe.
func TestConcurrentConnectDisconnect(t *testing.T) {
	const (
		replicas   = 4
		perFabric  = 4
		iterations = 150
	)
	ctl := newTestController(t, Config{Fabric: testParams(), Replicas: replicas, Shards: 8})
	p := ctl.Params()
	dim := wdm.Dim{N: p.N, K: p.K}

	var wg sync.WaitGroup
	errs := make([]error, replicas*perFabric)
	for g := 0; g < replicas*perFabric; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = concurrentWorker(ctl, dim, g/perFabric, g%perFabric, perFabric, iterations, int64(g))
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", g, err)
		}
	}
	if got := ctl.ActiveSessions(); got != 0 {
		t.Fatalf("ActiveSessions = %d, want 0", got)
	}
	if got := ctl.sessions.len(); got != 0 {
		t.Fatalf("session table holds %d entries, want 0", got)
	}
	snap := ctl.Metrics().Snapshot()
	if snap.Blocked != 0 {
		t.Fatalf("blocked = %d at the sufficient bound, want 0", snap.Blocked)
	}
	for i, f := range snap.PerFabric {
		if f.Active != 0 {
			t.Fatalf("fabric %d reports %d active, want 0", i, f.Active)
		}
	}
}

// concurrentWorker cycles admissible sessions within its private port
// slice (ports congruent to part mod perFabric) on one pinned plane.
func concurrentWorker(ctl *Controller, dim wdm.Dim, plane, part, perFabric, iterations int, seed int64) error {
	gen := workload.NewGenerator(seed, wdm.MSW, dim)
	rng := rand.New(rand.NewSource(seed + 1000))
	var ports []int
	for p := part; p < dim.N; p += perFabric {
		ports = append(ports, p)
	}
	freeSrc := traffic.NewSlotPool(ports, dim.K)
	freeDst := traffic.NewSlotPool(ports, dim.K)

	type live struct {
		id   uint64
		conn wdm.Connection
	}
	var sessions []live
	release := func() error {
		s := sessions[0]
		sessions = sessions[1:]
		if err := ctl.Disconnect(context.Background(), s.id); err != nil {
			return err
		}
		freeSrc.Put(s.conn.Source)
		for _, d := range s.conn.Dests {
			freeDst.Put(d)
		}
		return nil
	}

	for i := 0; i < iterations; i++ {
		for len(sessions) >= 3 {
			if err := release(); err != nil {
				return err
			}
		}
		c, ok := gen.Connection(freeSrc.Slots(), freeDst.Slots(), gen.Fanout(len(ports)))
		if !ok {
			if len(sessions) == 0 {
				return fmt.Errorf("starved with no live sessions")
			}
			if err := release(); err != nil {
				return err
			}
			continue
		}
		id, _, err := ctl.Connect(context.Background(), c, plane)
		if err != nil {
			return fmt.Errorf("Connect(%v): %w", c, err)
		}
		freeSrc.Take(c.Source)
		for _, d := range c.Dests {
			freeDst.Take(d)
		}
		sessions = append(sessions, live{id: id, conn: c})

		// Occasionally grow a random live session by a free slot on the
		// session's wavelength (MSW).
		if rng.Intn(4) == 0 && len(sessions) > 0 {
			s := &sessions[rng.Intn(len(sessions))]
			if d, ok := pickGrowSlot(freeDst, s.conn); ok {
				switch err := ctl.AddBranch(context.Background(), s.id, d); {
				case err == nil:
					freeDst.Take(d)
					s.conn.Dests = append(s.conn.Dests, d)
				case multistage.IsBlocked(err):
					return fmt.Errorf("AddBranch blocked at the sufficient bound: %w", err)
				default:
					return fmt.Errorf("AddBranch(%d, %v): %w", s.id, d, err)
				}
			}
		}
	}
	for len(sessions) > 0 {
		if err := release(); err != nil {
			return err
		}
	}
	return nil
}

// pickGrowSlot finds a free destination slot on the connection's
// wavelength at a port the connection does not already reach.
func pickGrowSlot(free *traffic.SlotPool, c wdm.Connection) (wdm.PortWave, bool) {
	used := make(map[wdm.Port]bool, len(c.Dests))
	for _, d := range c.Dests {
		used[d.Port] = true
	}
	for _, s := range free.Slots() {
		if s.Wave == c.Source.Wave && !used[s.Port] {
			return s, true
		}
	}
	return wdm.PortWave{}, false
}

// runLoad drives the traffic engine — the closed loop wdmload runs —
// against srv through the typed client and returns the run's report.
// cfg must set Erlangs; a nil Sink defaults to clientSink(srv).
func runLoad(t *testing.T, srv *httptest.Server, cfg traffic.Config) traffic.Report {
	t.Helper()
	if cfg.Sink == nil {
		cfg.Sink = clientSink(srv)
	}
	eng, err := traffic.NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	rep, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

// clientSink drives srv through the typed /v1 client.
func clientSink(srv *httptest.Server) traffic.Sink {
	return traffic.NewClientSink(client.New(srv.URL, client.WithHTTPClient(srv.Client())))
}

// TestNonblockingInvariantAtBound runs the full serving loop — HTTP
// server, concurrent load-generator workers, metrics endpoint — with
// every fabric at the Theorem 1 sufficient bound and asserts the
// paper's claim as served: >= 10k requests, zero blocked.
func TestNonblockingInvariantAtBound(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-request serving run")
	}
	ctl := newTestController(t, Config{Fabric: testParams(), Replicas: 2, Shards: 8})
	srv := httptest.NewServer(ctl.Handler())
	defer srv.Close()

	// Two workers interleave on each plane at 8 Erlangs. At that load a
	// worker's free-slot pool sometimes runs dry and the arrival goes
	// unoffered client-side, so the budget leaves headroom above 10k.
	const arrivals = 11000
	s := runLoad(t, srv, traffic.Config{
		Seed:             7,
		Arrivals:         arrivals,
		WorkersPerFabric: 2,
		Erlangs:          8,
	}).Stats
	if s.Connects+s.Unoffered != arrivals {
		t.Fatalf("connects %d + unoffered %d != %d arrivals", s.Connects, s.Unoffered, arrivals)
	}
	if s.Connects < 10000 {
		t.Fatalf("only %d connects offered (%d unoffered), want >= 10000", s.Connects, s.Unoffered)
	}
	snap := ctl.Metrics().Snapshot()
	if s.Blocked != 0 || snap.Blocked != 0 {
		t.Fatalf("blocked: client=%d server=%d at the sufficient bound, want 0", s.Blocked, snap.Blocked)
	}
	if snap.ConnectOK != int64(s.Routed) {
		t.Fatalf("server connect_ok=%d != client routed=%d", snap.ConnectOK, s.Routed)
	}
	if ctl.ActiveSessions() != 0 {
		t.Fatalf("sessions leaked: %d live after the run", ctl.ActiveSessions())
	}
	// The Prometheus exposition must agree: zero blocked over the whole
	// run, with the routed totals matching the registry snapshot.
	pm := scrapeProm(t, srv.Client(), srv.URL)
	if v, ok := pm.Value("wdm_blocked_total", nil); !ok || v != 0 {
		t.Fatalf("/metrics wdm_blocked_total = %v, %v; want 0 at the bound", v, ok)
	}
	if v, ok := pm.Value("wdm_connect_total", nil); !ok || v != float64(snap.ConnectOK) {
		t.Fatalf("/metrics wdm_connect_total = %v, %v; want %d", v, ok, snap.ConnectOK)
	}
}

// scrapeProm fetches and strictly parses the Prometheus exposition.
func scrapeProm(t *testing.T, client *http.Client, baseURL string) obs.Metrics {
	t.Helper()
	resp, err := client.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.ContentType)
	}
	pm, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	return pm
}

// TestBlockingObservableBelowBound is the control experiment: with the
// middle stage well below the bound the same offered load (8 Erlangs,
// two workers per plane) must produce blocked > 0, visible on the
// metrics endpoint — the invariant is falsifiable, not vacuously true.
func TestBlockingObservableBelowBound(t *testing.T) {
	p := testParams()
	p.M = 3 // Theorem 1 sufficient bound for n=4, r=4 is far higher
	p.X = 1
	ctl := newTestController(t, Config{Fabric: p, Replicas: 1, Shards: 4})
	srv := httptest.NewServer(ctl.Handler())
	defer srv.Close()

	s := runLoad(t, srv, traffic.Config{
		Seed:             7,
		Arrivals:         3000,
		WorkersPerFabric: 2,
		Erlangs:          8,
	}).Stats
	server := ctl.Metrics().Blocked()
	if server == 0 {
		t.Fatalf("no blocking observed below the bound (%d connects, %d routed)", s.Connects, s.Routed)
	}
	if s.Blocked != int(server) {
		t.Fatalf("client saw %d blocks, server counted %d", s.Blocked, server)
	}
	if s.Outcomes[api.CodeBlocked] != s.Blocked {
		t.Fatalf("outcomes[blocked] = %d, want %d", s.Outcomes[api.CodeBlocked], s.Blocked)
	}
	pm := scrapeProm(t, srv.Client(), srv.URL)
	if v, ok := pm.Value("wdm_blocked_total", nil); !ok || v != float64(server) {
		t.Fatalf("/metrics wdm_blocked_total = %v, %v; want %d", v, ok, server)
	}
}
