// Cross-backend conformance suite: every registered fabric backend
// must (1) route a full admissible load with zero blocks at its own
// default (bound-level) provisioning, (2) return to a fresh network's
// utilization once everything is released, (3) reproduce routes
// exactly through the RouteRecord/Reinstall durability path, (4) stay
// race-clean under concurrent churn (shared instance behind a mutex,
// per the Backend contract, plus independent per-goroutine instances),
// and (5) count only the caller's operations in Stats. `make race`
// runs this suite with -race -short.
package backend_test

import (
	"flag"
	"reflect"
	"sync"
	"testing"

	"repro/internal/fabric/backend"
	"repro/internal/multistage"
	"repro/internal/wdm"
)

// -conformance.backend restricts the suite to one backend — the CI
// matrix runs one job per registered name.
var backendFilter = flag.String("conformance.backend", "", "run the conformance suite against this backend only (empty = all registered backends)")

// conformanceParams sizes each backend so Normalize provisions it at
// exactly its own nonblocking bound (M = 0 resolves to the bound).
func conformanceParams(name string) multistage.Params {
	if name == "mesh" {
		return multistage.Params{N: 12, K: 4, R: 3, Model: wdm.MSW}
	}
	return multistage.Params{N: 16, K: 2, R: 4, Model: wdm.MSW, Lite: true}
}

// fillConnections builds a maximal admissible load for the backend:
// for the Clos constructions the full shifted permutation — every
// (port, wavelength) source slot carries a session to the matching
// slot one port over, N*k sessions in total; for the mesh, k
// half-ring unicasts (one per wavelength the ring carries, the load
// its bound guarantees).
func fillConnections(name string, p multistage.Params) []wdm.Connection {
	var conns []wdm.Connection
	if name == "mesh" {
		for j := 0; j < p.K; j++ {
			conns = append(conns, wdm.Connection{
				Source: wdm.PortWave{Port: wdm.Port(j)},
				Dests:  []wdm.PortWave{{Port: wdm.Port((j + p.N/2) % p.N)}},
			})
		}
		return conns
	}
	for port := 0; port < p.N; port++ {
		for w := 0; w < p.K; w++ {
			conns = append(conns, wdm.Connection{
				Source: wdm.PortWave{Port: wdm.Port(port), Wave: wdm.Wavelength(w)},
				Dests:  []wdm.PortWave{{Port: wdm.Port((port + 1) % p.N), Wave: wdm.Wavelength(w)}},
			})
		}
	}
	return conns
}

// eachBackend runs fn as a subtest per registered backend, honoring
// -conformance.backend.
func eachBackend(t *testing.T, fn func(t *testing.T, d backend.Descriptor, p multistage.Params)) {
	t.Helper()
	matched := false
	for _, d := range backend.All() {
		if *backendFilter != "" && d.Name != *backendFilter {
			continue
		}
		matched = true
		d := d
		t.Run(d.Name, func(t *testing.T) {
			p, err := d.Normalize(conformanceParams(d.Name))
			if err != nil {
				t.Fatalf("Normalize: %v", err)
			}
			fn(t, d, p)
		})
	}
	if !matched {
		t.Fatalf("no backend matches -conformance.backend=%q (have %v)", *backendFilter, backend.Names())
	}
}

func mustNew(t *testing.T, d backend.Descriptor, p multistage.Params) backend.Backend {
	t.Helper()
	net, err := d.New(p)
	if err != nil {
		t.Fatalf("New(%s): %v", d.Name, err)
	}
	return net
}

// TestConformanceFillAtBoundBlockedZero routes each backend's full
// admissible load at default provisioning: the backend's own
// nonblocking condition says no request may block.
func TestConformanceFillAtBoundBlockedZero(t *testing.T) {
	eachBackend(t, func(t *testing.T, d backend.Descriptor, p multistage.Params) {
		net := mustNew(t, d, p)
		conns := fillConnections(d.Name, p)
		for _, c := range conns {
			if _, err := net.Add(c); err != nil {
				t.Fatalf("Add(%v) blocked at the backend's own bound (m=%d): %v", c, p.M, err)
			}
		}
		if routed, blocked := net.Stats(); blocked != 0 || routed != int64(len(conns)) {
			t.Fatalf("stats = (%d routed, %d blocked), want (%d, 0)", routed, blocked, len(conns))
		}
		if net.Len() != len(conns) {
			t.Fatalf("Len = %d, want %d", net.Len(), len(conns))
		}
	})
}

// TestConformanceStatsCountLogicalOperations requires Stats to count
// the caller's operations, not the backend's internal re-routes: a
// failure migration neither routes nor blocks anew, and a plane rebuilt
// from route records has routed nothing.
func TestConformanceStatsCountLogicalOperations(t *testing.T) {
	eachBackend(t, func(t *testing.T, d backend.Descriptor, p multistage.Params) {
		net := mustNew(t, d, p)
		// The Clos backends fail the middle carrying the first session,
		// which migrates. On the mesh two unicasts cross: the first
		// passes through the second's source node, which fails, so the
		// first migrates and the second drops.
		conns := fillConnections(d.Name, p)[:4]
		if d.Name == "mesh" {
			q := p.N / 4
			conns = []wdm.Connection{
				{Source: wdm.PortWave{Port: 0}, Dests: []wdm.PortWave{{Port: wdm.Port(2 * q)}}},
				{Source: wdm.PortWave{Port: wdm.Port(q)}, Dests: []wdm.PortWave{{Port: wdm.Port(3 * q)}}},
			}
		}
		var ids []int
		for _, c := range conns {
			id, err := net.Add(c)
			if err != nil {
				t.Fatalf("Add(%v): %v", c, err)
			}
			ids = append(ids, id)
		}
		victim := int(conns[1].Source.Port)
		if d.Name != "mesh" {
			rec, _ := net.RouteRecord(ids[0])
			victim = rec.In[0].Middle
		}
		routed0, blocked0 := net.Stats()
		if err := net.FailMiddle(victim); err != nil {
			t.Fatalf("FailMiddle(%d): %v", victim, err)
		}
		migrated, dropped, err := net.RerouteAroundReport(victim)
		if err != nil {
			t.Fatalf("RerouteAroundReport(%d): %v", victim, err)
		}
		if len(migrated) == 0 || (d.Name == "mesh" && len(dropped) == 0) {
			t.Fatalf("failing %d migrated %v and dropped %v: the case needs a migration (and a drop, on the mesh)", victim, migrated, dropped)
		}
		if r, b := net.Stats(); r != routed0 || b != blocked0 {
			t.Errorf("Stats after %d migrations and %d drops = (%d routed, %d blocked), want (%d, %d)", len(migrated), len(dropped), r, b, routed0, blocked0)
		}

		replay := mustNew(t, d, p)
		for _, id := range ids {
			rec, ok := net.RouteRecord(id)
			if !ok {
				continue // dropped by the failure
			}
			if _, err := replay.Reinstall(rec); err != nil {
				t.Fatalf("Reinstall(%+v): %v", rec, err)
			}
		}
		if replay.Len() != net.Len() {
			t.Fatalf("replayed plane holds %d sessions, want %d", replay.Len(), net.Len())
		}
		if r, b := replay.Stats(); r != 0 || b != 0 {
			t.Errorf("Stats of a plane rebuilt by Reinstall = (%d routed, %d blocked), want (0, 0)", r, b)
		}
	})
}

// TestConformanceReleaseRestoresZeroUtilization fills, releases
// everything, and requires the plane to be indistinguishable from a
// fresh one: zero sessions and identical utilization gauges.
func TestConformanceReleaseRestoresZeroUtilization(t *testing.T) {
	eachBackend(t, func(t *testing.T, d backend.Descriptor, p multistage.Params) {
		net := mustNew(t, d, p)
		fresh := mustNew(t, d, p)
		var ids []int
		for _, c := range fillConnections(d.Name, p) {
			id, err := net.Add(c)
			if err != nil {
				t.Fatalf("Add(%v): %v", c, err)
			}
			ids = append(ids, id)
		}
		for _, id := range ids {
			if err := net.Release(id); err != nil {
				t.Fatalf("Release(%d): %v", id, err)
			}
		}
		if net.Len() != 0 {
			t.Fatalf("Len after full release = %d, want 0", net.Len())
		}
		if got, want := net.Utilization(), fresh.Utilization(); !reflect.DeepEqual(got, want) {
			t.Fatalf("utilization after full release = %+v, want fresh %+v", got, want)
		}
	})
}

// TestConformanceReinstallEqualsRoute replays every route record onto
// a fresh plane — the WAL-recovery and standby-apply path — and
// requires the replayed plane to carry byte-identical records and
// identical utilization.
func TestConformanceReinstallEqualsRoute(t *testing.T) {
	eachBackend(t, func(t *testing.T, d backend.Descriptor, p multistage.Params) {
		orig := mustNew(t, d, p)
		var recs []multistage.RouteRecord
		for _, c := range fillConnections(d.Name, p) {
			id, err := orig.Add(c)
			if err != nil {
				t.Fatalf("Add(%v): %v", c, err)
			}
			rec, ok := orig.RouteRecord(id)
			if !ok {
				t.Fatalf("RouteRecord(%d) missing for live session", id)
			}
			recs = append(recs, rec)
		}
		replay := mustNew(t, d, p)
		for _, rec := range recs {
			id, err := replay.Reinstall(rec)
			if err != nil {
				t.Fatalf("Reinstall(%s): %v", rec.Conn, err)
			}
			got, ok := replay.RouteRecord(id)
			if !ok {
				t.Fatalf("RouteRecord(%d) missing after Reinstall", id)
			}
			if !reflect.DeepEqual(got, rec) {
				t.Fatalf("replayed record differs for %s:\n got %+v\nwant %+v", rec.Conn, got, rec)
			}
		}
		if got, want := replay.Utilization(), orig.Utilization(); !reflect.DeepEqual(got, want) {
			t.Fatalf("replayed utilization = %+v, want %+v", got, want)
		}
	})
}

// TestConformanceChurnRaceClean hammers each backend from concurrent
// goroutines: a shared instance serialized by a mutex (the documented
// contract — switchd holds one mutex per plane) interleaving
// add/branch/release with fail/repair cycles, plus fully independent
// per-goroutine instances. Blocked rejections are legitimate under
// induced failures; anything else fails. Run under `make race`.
func TestConformanceChurnRaceClean(t *testing.T) {
	const goroutines = 4
	iters := 100
	if testing.Short() {
		iters = 25
	}
	eachBackend(t, func(t *testing.T, d backend.Descriptor, p multistage.Params) {
		portsPer := p.N / goroutines
		conn := func(g, i int) wdm.Connection {
			src := g*portsPer + i%portsPer
			dst := g*portsPer + (i+1)%portsPer
			return wdm.Connection{
				Source: wdm.PortWave{Port: wdm.Port(src), Wave: wdm.Wavelength(i % p.K)},
				Dests:  []wdm.PortWave{{Port: wdm.Port(dst), Wave: wdm.Wavelength(i % p.K)}},
			}
		}

		t.Run("shared", func(t *testing.T) {
			shared := mustNew(t, d, p)
			var mu sync.Mutex
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						mu.Lock()
						if g == 0 && i%8 == 4 {
							// Cycle a failure unit through the churn so
							// fail/repair races with routing.
							_ = shared.FailMiddle(p.N % shared.Params().M)
							_ = shared.RepairMiddle(p.N % shared.Params().M)
						}
						id, err := shared.Add(conn(g, i))
						if err == nil {
							err = shared.Release(id)
						} else if multistage.IsBlocked(err) {
							err = nil
						}
						mu.Unlock()
						if err != nil {
							errs <- err
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatalf("shared churn: %v", err)
			}
			if shared.Len() != 0 {
				t.Fatalf("Len after churn = %d, want 0", shared.Len())
			}
		})

		t.Run("independent", func(t *testing.T) {
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					own, err := d.New(p)
					if err != nil {
						errs <- err
						return
					}
					for i := 0; i < iters; i++ {
						id, err := own.Add(conn(g, i))
						if err != nil {
							if multistage.IsBlocked(err) {
								continue
							}
							errs <- err
							return
						}
						if err := own.Release(id); err != nil {
							errs <- err
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatalf("independent churn: %v", err)
			}
		})
	})
}
