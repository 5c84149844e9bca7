package switchd

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/multistage"
	"repro/internal/switchd/api"
	"repro/internal/switchd/client"
	"repro/internal/wdm"
)

// boundFor computes the construction's sufficient nonblocking bound for
// a parameter set, the reference point for the fault-tolerance margin.
func boundFor(p multistage.Params) int {
	m, _ := multistage.SufficientMinM(p.Construction, p.Model, p.N/p.R, p.R, p.K)
	return m
}

// churn runs workers that cycle connect/disconnect on private unicast
// lanes (always admissible, no slot contention) against the typed
// client until stop is closed. Any error a worker sees fails the test:
// under chaos at m = bound + f spares, every request must still
// succeed.
func churn(t *testing.T, cl *client.Client, lanes [][2]int, plane int, stop <-chan struct{}) (*sync.WaitGroup, *atomic.Int64) {
	t.Helper()
	var wg sync.WaitGroup
	var cycles atomic.Int64
	for _, lane := range lanes {
		wg.Add(1)
		go func(src, dst int) {
			defer wg.Done()
			conn := fmt.Sprintf("%d.0>%d.0", src, dst)
			for {
				select {
				case <-stop:
					return
				default:
				}
				cr, err := cl.Connect(context.Background(), conn, plane)
				if err != nil {
					t.Errorf("churn connect %q: %v", conn, err)
					return
				}
				if _, err := cl.Disconnect(context.Background(), cr.Session); err != nil {
					t.Errorf("churn disconnect %d: %v", cr.Session, err)
					return
				}
				cycles.Add(1)
			}
		}(lane[0], lane[1])
	}
	return &wg, &cycles
}

// TestChaosFailMigrateRepair is the end-to-end chaos acceptance test:
// at m = bound + 2 spares, failing two middle modules under live load
// migrates every riding session in place — zero drops, zero blocks,
// session ids stable — and health walks ok -> degraded -> ok across the
// repair. Run it under -race: the failure plane, the churn workers, and
// the admission path all interleave here.
func TestChaosFailMigrateRepair(t *testing.T) {
	p := testParams()
	p.M = boundFor(p) + 2
	ctl := newTestController(t, Config{Fabric: p, Replicas: 2, Shards: 4})
	srv := httptest.NewServer(ctl.Handler())
	defer srv.Close()
	cl := client.New(srv.URL,
		client.WithHTTPClient(srv.Client()),
		client.WithRetry(client.RetryPolicy{MaxAttempts: 4}))
	ctx := context.Background()

	// Long-lived sessions on plane 0, routed while the fabric is empty:
	// the router prefers low-indexed middles, so failing middle 0 is
	// guaranteed to hit at least one of them.
	held := make(map[uint64]string)
	for _, lane := range [][2]int{{0, 8}, {2, 10}, {4, 12}, {6, 14}} {
		conn := fmt.Sprintf("%d.0>%d.0", lane[0], lane[1])
		cr, err := cl.Connect(ctx, conn, 0)
		if err != nil {
			t.Fatalf("held connect %q: %v", conn, err)
		}
		held[cr.Session] = conn
	}

	stop := make(chan struct{})
	wg, cycles := churn(t, cl, [][2]int{{1, 9}, {3, 11}, {5, 13}, {7, 15}}, 0, stop)

	// Let the churn establish itself, then fail two middles on plane 0.
	waitForCycles(t, cycles, 20)
	var migrated int64
	for _, mid := range []int{0, 1} {
		rep, err := cl.Fail(ctx, 0, mid)
		if err != nil {
			t.Fatalf("Fail(0, %d): %v", mid, err)
		}
		if len(rep.Dropped) != 0 {
			t.Fatalf("Fail(0, %d) dropped %v with %d spare middles", mid, rep.Dropped, 2)
		}
		migrated += int64(len(rep.Migrated))
	}
	if migrated == 0 {
		t.Fatal("failing middles 0 and 1 migrated no sessions; held sessions should ride low middles")
	}

	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if h.Status != api.HealthDegraded || !h.Degraded || h.FailedMiddles != 2 {
		t.Fatalf("health after 2 failures = %+v, want degraded with 2 failed middles", h)
	}

	// Keep churning on the weakened plane, then repair both modules.
	waitForCycles(t, cycles, cycles.Load()+20)
	for _, mid := range []int{0, 1} {
		if _, err := cl.Repair(ctx, 0, mid); err != nil {
			t.Fatalf("Repair(0, %d): %v", mid, err)
		}
	}
	if h, err = cl.Health(ctx); err != nil || h.Status != api.HealthOK || h.FailedMiddles != 0 {
		t.Fatalf("health after repair = %+v (err %v), want ok", h, err)
	}

	close(stop)
	wg.Wait()

	// Every held session survived the chaos under its original id, with
	// the migration(s) on the record.
	migRecorded := 0
	for id, conn := range held {
		info, err := cl.Session(ctx, id)
		if err != nil {
			t.Fatalf("held session %d (%s) lost: %v", id, conn, err)
		}
		migRecorded += info.Migrations
		if _, err := cl.Disconnect(ctx, id); err != nil {
			t.Fatalf("disconnect held %d: %v", id, err)
		}
	}
	if migRecorded == 0 {
		t.Fatal("no held session records a migration")
	}

	snap := ctl.Metrics().Snapshot()
	if snap.Blocked != 0 {
		t.Fatalf("blocked %d times at m = bound + 2 with 2 failures", snap.Blocked)
	}
	if snap.DroppedSessions != 0 {
		t.Fatalf("dropped %d sessions with spare capacity available", snap.DroppedSessions)
	}
	if snap.MigratedSessions != migrated {
		t.Fatalf("snapshot migrated %d, fail reports said %d", snap.MigratedSessions, migrated)
	}
	if cl.Retries() != 0 {
		t.Fatalf("client retried %d times; nothing should 429/503 in this test", cl.Retries())
	}
}

// waitForCycles blocks until the churn counter passes target (the
// workers are live and routing), failing the test after a deadline.
func waitForCycles(t *testing.T, cycles *atomic.Int64, target int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for cycles.Load() < target {
		if time.Now().After(deadline) {
			t.Fatalf("churn stalled at %d cycles waiting for %d", cycles.Load(), target)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDegradedAdmissionDerates: at m = bound exactly there are no
// spares, so one failure bites into the nonblocking guarantee and the
// controller derates the admission cap — the overload surfaces as
// admission_full (429), not as blocking (409).
func TestDegradedAdmissionDerates(t *testing.T) {
	const maxSessions = 8
	ctl := newTestController(t, Config{Fabric: testParams(), Replicas: 2, MaxSessions: maxSessions})
	srv := httptest.NewServer(ctl.Handler())
	defer srv.Close()
	cl := client.New(srv.URL,
		client.WithHTTPClient(srv.Client()),
		client.WithRetry(client.RetryPolicy{MaxAttempts: 1})) // 429 must surface, not retry
	ctx := context.Background()

	rep, err := cl.Fail(ctx, 0, 0)
	if err != nil {
		t.Fatalf("Fail(0, 0): %v", err)
	}
	if rep.Health.Status != api.HealthDegraded {
		t.Fatalf("health after failure = %q, want degraded", rep.Health.Status)
	}
	derated := rep.Health.EffectiveMaxSessions
	if derated <= 0 || derated >= maxSessions {
		t.Fatalf("effective cap = %d, want derated strictly below %d", derated, maxSessions)
	}

	// Fill exactly to the derated cap with disjoint unicast lanes; the
	// next connect must draw admission_full, not blocked.
	var ids []uint64
	for i := 0; i < derated; i++ {
		cr, err := cl.Connect(ctx, fmt.Sprintf("%d.0>%d.0", 2*i, 2*i+1), -1)
		if err != nil {
			t.Fatalf("fill connect %d/%d: %v", i+1, derated, err)
		}
		ids = append(ids, cr.Session)
	}
	over := fmt.Sprintf("%d.0>%d.0", 2*derated, 2*derated+1)
	if _, err := cl.Connect(ctx, over, -1); !api.IsCode(err, api.CodeAdmissionFull) {
		t.Fatalf("connect over derated cap: err %v, want code %q", err, api.CodeAdmissionFull)
	}

	// Repair lifts the derating: the same connect now succeeds.
	rrep, err := cl.Repair(ctx, 0, 0)
	if err != nil {
		t.Fatalf("Repair(0, 0): %v", err)
	}
	if rrep.Health.Status != api.HealthOK || rrep.Health.EffectiveMaxSessions != maxSessions {
		t.Fatalf("health after repair = %+v, want ok with cap %d restored", rrep.Health, maxSessions)
	}
	cr, err := cl.Connect(ctx, over, -1)
	if err != nil {
		t.Fatalf("connect after repair: %v", err)
	}
	for _, id := range append(ids, cr.Session) {
		if _, err := cl.Disconnect(ctx, id); err != nil {
			t.Fatalf("disconnect %d: %v", id, err)
		}
	}
}

// TestFabricFailedCritical: failing every middle module of the only
// plane turns health critical (503 with a body) and connects draw
// fabric_failed; one repair brings the plane back.
func TestFabricFailedCritical(t *testing.T) {
	p := testParams()
	ctl := newTestController(t, Config{Fabric: p, Replicas: 1})
	srv := httptest.NewServer(ctl.Handler())
	defer srv.Close()
	cl := client.New(srv.URL,
		client.WithHTTPClient(srv.Client()),
		client.WithRetry(client.RetryPolicy{MaxAttempts: 1})) // 503 must surface, not retry
	ctx := context.Background()

	m := ctl.Params().M
	for mid := 0; mid < m; mid++ {
		if _, err := cl.Fail(ctx, 0, mid); err != nil {
			t.Fatalf("Fail(0, %d): %v", mid, err)
		}
	}
	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatalf("Health on critical plane: %v", err)
	}
	if h.Status != api.HealthCritical || h.FailedMiddles != m {
		t.Fatalf("health = %+v, want critical with all %d middles failed", h, m)
	}
	if _, err := cl.Connect(ctx, "0.0>4.0", -1); !api.IsCode(err, api.CodeFabricFailed) {
		t.Fatalf("connect on dead fabric: err %v, want code %q", err, api.CodeFabricFailed)
	}

	// Unknown plane and unknown module are not_found, not 5xx.
	if _, err := cl.Fail(ctx, 9, 0); !api.IsCode(err, api.CodeNotFound) {
		t.Fatalf("Fail(9, 0): err %v, want code %q", err, api.CodeNotFound)
	}
	if _, err := cl.Fail(ctx, 0, m+5); !api.IsCode(err, api.CodeNotFound) {
		t.Fatalf("Fail(0, %d): err %v, want code %q", m+5, err, api.CodeNotFound)
	}

	if _, err := cl.Repair(ctx, 0, 0); err != nil {
		t.Fatalf("Repair(0, 0): %v", err)
	}
	if h, err = cl.Health(ctx); err != nil || h.Status != api.HealthDegraded {
		t.Fatalf("health after partial repair = %+v (err %v), want degraded", h, err)
	}
	if _, err := cl.Connect(ctx, "0.0>4.0", -1); err != nil {
		t.Fatalf("connect on revived fabric: %v", err)
	}
}

// TestSpareMarginProperty is the property behind the whole failure
// plane: with m = bound + f, failing ANY f middle modules — chosen at
// random, injected while connect/disconnect churn is in flight — drops
// zero sessions and blocks zero requests. The margin over the Theorem
// 1/2 bound is exactly the number of survivable failures.
func TestSpareMarginProperty(t *testing.T) {
	trials := 4
	if testing.Short() {
		trials = 1
	}
	for _, f := range []int{1, 2, 3} {
		f := f
		t.Run(fmt.Sprintf("f=%d", f), func(t *testing.T) {
			for trial := 0; trial < trials; trial++ {
				p := testParams()
				p.M = boundFor(p) + f
				ctl := newTestController(t, Config{Fabric: p, Replicas: 1, Shards: 4})
				rng := rand.New(rand.NewSource(int64(1000*f + trial)))

				// Long-lived sessions so the failed middles carry state.
				var held []uint64
				for _, lane := range [][2]int{{0, 8}, {2, 10}, {4, 12}, {6, 14}} {
					held = append(held, mustConnect(t, ctl, fmt.Sprintf("%d.0>%d.0", lane[0], lane[1]), 0))
				}

				stop := make(chan struct{})
				var wg sync.WaitGroup
				for _, lane := range [][2]int{{1, 9}, {5, 13}} {
					wg.Add(1)
					go func(src, dst int) {
						defer wg.Done()
						conn := mustParse(t, fmt.Sprintf("%d.0>%d.0", src, dst))
						for {
							select {
							case <-stop:
								return
							default:
							}
							id, _, err := ctl.Connect(context.Background(), conn, 0)
							if err != nil {
								t.Errorf("churn connect: %v", err)
								return
							}
							if err := ctl.Disconnect(context.Background(), id); err != nil {
								t.Errorf("churn disconnect: %v", err)
								return
							}
						}
					}(lane[0], lane[1])
				}

				// Fail f distinct random middles while the churn runs.
				failed := rng.Perm(p.M)[:f]
				for _, mid := range failed {
					rep, err := ctl.FailMiddle(context.Background(), 0, mid)
					if err != nil {
						t.Fatalf("FailMiddle(0, %d): %v", mid, err)
					}
					if len(rep.Dropped) != 0 {
						t.Fatalf("FailMiddle(0, %d) dropped %v; m = bound + %d must absorb %v",
							mid, rep.Dropped, f, failed)
					}
				}
				close(stop)
				wg.Wait()

				if b := ctl.Metrics().Blocked(); b != 0 {
					t.Fatalf("blocked %d times failing %v at m = bound + %d", b, failed, f)
				}
				if d := ctl.Metrics().DroppedSessions(); d != 0 {
					t.Fatalf("dropped %d sessions failing %v at m = bound + %d", d, failed, f)
				}
				for _, id := range held {
					if _, ok := ctl.Session(id); !ok {
						t.Fatalf("held session %d lost failing %v", id, failed)
					}
					if err := ctl.Disconnect(context.Background(), id); err != nil {
						t.Fatalf("disconnect held %d: %v", id, err)
					}
				}
				for _, mid := range failed {
					if _, err := ctl.RepairMiddle(context.Background(), 0, mid); err != nil {
						t.Fatalf("RepairMiddle(0, %d): %v", mid, err)
					}
				}
				if h := ctl.Health(); h.Status != api.HealthOK {
					t.Fatalf("health after full repair = %+v, want ok", h)
				}
			}
		})
	}
}

// TestPublishAfterRouteDropped drives, step by step, the window
// between a connect's route (under the fabric lock) and its publish
// (under the session shard lock). FailMiddle runs inside it with no
// spare middle left (m = 1) and drops the fresh route; its table sweep
// cannot see the unpublished session, so the publish itself must
// refuse. In memory and durable alike, every listed session must be
// releasable afterwards and none may stay active.
func TestPublishAfterRouteDropped(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			p := testParams()
			p.M, p.X = 1, 1
			cfg := Config{Fabric: p, Replicas: 1}
			if durable {
				cfg.DataDir, cfg.SnapshotInterval = t.TempDir(), -1
			}
			ctl := newTestController(t, cfg)
			defer ctl.Close()
			ctx := context.Background()
			conn, err := wdm.ParseConnection("0.0>4.0")
			if err != nil {
				t.Fatal(err)
			}

			// The route half of connect.
			f := ctl.fabrics[0]
			f.mu.Lock()
			connID, err := f.net.Add(conn)
			f.mu.Unlock()
			if err != nil {
				t.Fatalf("route: %v", err)
			}
			// The failure plane, inside the window.
			rep, err := ctl.FailMiddle(ctx, 0, 0)
			if err != nil {
				t.Fatalf("FailMiddle: %v", err)
			}
			if rep.Affected != 1 || len(rep.Migrated)+len(rep.Dropped) != 0 {
				t.Fatalf("FailMiddle report %+v, want the unpublished route affected and nothing listed", rep)
			}
			// The publish half of connect.
			s := &session{ID: ctl.nextSession.Add(1), Fabric: 0, ConnID: connID, Conn: conn.Normalize()}
			if err := ctl.commitConnect(nil, nil, f, 0, s); err == nil {
				ctl.active.Add(1)
				t.Errorf("publish of a dropped route succeeded")
			} else if !errors.Is(err, ErrFabricFailed) {
				t.Errorf("publish of a dropped route: %v, want ErrFabricFailed", err)
			}

			for _, info := range ctl.Sessions() {
				if err := ctl.Disconnect(ctx, info.ID); err != nil {
					t.Errorf("listed session %d cannot be disconnected: %v", info.ID, err)
				}
			}
			if n := ctl.ActiveSessions(); n != 0 {
				t.Errorf("ActiveSessions() = %d after disconnecting every listed session, want 0", n)
			}
		})
	}
}
