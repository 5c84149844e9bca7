package switchd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/durable"
	"repro/internal/multistage"
	"repro/internal/switchd/api"
	"repro/internal/traffic"
	"repro/internal/wdm"
	"repro/internal/workload"
)

// durableConfig is the standard durable test setup: no background
// snapshotter, so every test controls its checkpoints explicitly.
func durableConfig(dir string, replicas int) Config {
	return Config{
		Fabric:           testParams(),
		Replicas:         replicas,
		DataDir:          dir,
		SnapshotInterval: -1,
	}
}

// sessionsJSON renders the sorted session listing as canonical bytes
// for before/after-crash comparison. SessionInfo carries no volatile
// fields (connection ids are internal), so a recovered controller must
// reproduce it byte for byte.
func sessionsJSON(t *testing.T, ctl *Controller) []byte {
	t.Helper()
	b, err := json.Marshal(ctl.Sessions())
	if err != nil {
		t.Fatalf("marshaling sessions: %v", err)
	}
	return b
}

// TestDurableRecoverAfterCrash walks one of every mutation through the
// log — connect, branch, disconnect, middle failure with live
// migration — hard-stops without drain, and requires the recovered
// controller to be indistinguishable: same sessions under the same
// ids, same failed middles, same id high-water mark, and a log that
// verifies clean.
func TestDurableRecoverAfterCrash(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir, 2)
	ctl := newTestController(t, cfg)
	ctx := context.Background()

	id1 := mustConnect(t, ctl, "0.0>5.0,9.0", 0)
	if err := ctl.AddBranch(ctx, id1, wdm.PortWave{Port: 12, Wave: 0}); err != nil {
		t.Fatalf("AddBranch: %v", err)
	}
	id2 := mustConnect(t, ctl, "1.0>6.0", 1)
	id3 := mustConnect(t, ctl, "2.1>7.1", 0)
	if err := ctl.Disconnect(ctx, id2); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	// Fail a middle on plane 0: live sessions routed through it are
	// migrated in place, and the failure plus post-migration routes are
	// journaled in one record.
	if _, err := ctl.FailMiddle(ctx, 0, 0); err != nil {
		t.Fatalf("FailMiddle: %v", err)
	}

	before := sessionsJSON(t, ctl)
	beforeHealth := ctl.Health()
	ctl.Crash()

	ctl2 := newTestController(t, cfg)
	defer ctl2.Close()
	rec := ctl2.Recovery()
	if rec == nil || len(rec.Sessions) != 2 {
		t.Fatalf("Recovery = %+v, want 2 sessions", rec)
	}
	if rec.Sealed {
		t.Fatal("crash recovery reported a sealed log")
	}
	after := sessionsJSON(t, ctl2)
	if !bytes.Equal(before, after) {
		t.Fatalf("recovered sessions diverge:\n before %s\n after  %s", before, after)
	}
	if got := ctl2.ActiveSessions(); got != 2 {
		t.Fatalf("ActiveSessions after recovery = %d, want 2", got)
	}

	// Failed middles survive: plane 0 still reports middle 0 down.
	h := ctl2.Health()
	if h.FailedMiddles != beforeHealth.FailedMiddles || h.FailedMiddles != 1 {
		t.Fatalf("FailedMiddles after recovery = %d, want %d", h.FailedMiddles, beforeHealth.FailedMiddles)
	}
	if len(h.Fabrics) != 2 || len(h.Fabrics[0].FailedMiddles) != 1 || h.Fabrics[0].FailedMiddles[0] != 0 {
		t.Fatalf("plane 0 failed middles = %+v, want [0]", h.Fabrics)
	}
	if h.Durability == nil || !h.Durability.Enabled || !h.Durability.Healthy {
		t.Fatalf("durability health = %+v, want enabled and healthy", h.Durability)
	}
	if h.Durability.RecoveredSessions != 2 {
		t.Fatalf("durability reports %d recovered sessions, want 2", h.Durability.RecoveredSessions)
	}

	// The session-id counter resumes past the pre-crash high-water
	// mark: a disconnected id is never reissued.
	id4 := mustConnect(t, ctl2, "3.0>8.0", 1)
	if id4 <= id3 {
		t.Fatalf("post-recovery id %d not above pre-crash high-water %d", id4, id3)
	}
	// Recovered sessions stay fully operational: grow one.
	if err := ctl2.AddBranch(ctx, id1, wdm.PortWave{Port: 14, Wave: 0}); err != nil {
		t.Fatalf("AddBranch on recovered session: %v", err)
	}
	info, ok := ctl2.Session(id1)
	if !ok || info.Fanout != 4 || info.Branches != 2 {
		t.Fatalf("recovered session after branch = %+v, %v; want fanout 4", info, ok)
	}

	if err := ctl2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rep, err := durable.Verify(dir)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !rep.Clean {
		t.Fatalf("log dirty after crash+recovery: %+v", rep.Truncated)
	}
}

// TestStatusCountsMatchRegistry holds /v1/status's per-plane routed and
// blocked counts to the registry's, which /metrics exports: live
// migrations re-route sessions without routing new ones, and recovery
// reinstalls sessions it counts as routed.
func TestStatusCountsMatchRegistry(t *testing.T) {
	cfg := durableConfig(t.TempDir(), 1)
	agree := func(ctl *Controller, when string) {
		t.Helper()
		st, snap := ctl.Status().Fabrics[0], ctl.Metrics().Snapshot().PerFabric[0]
		if st.Routed != snap.Routed || st.Blocked != snap.Blocked {
			t.Fatalf("%s: status routed=%d blocked=%d, registry routed=%d blocked=%d",
				when, st.Routed, st.Blocked, snap.Routed, snap.Blocked)
		}
		if snap.Routed != 2 {
			t.Fatalf("%s: registry routed=%d, want 2", when, snap.Routed)
		}
	}
	ctl := newTestController(t, cfg)
	mustConnect(t, ctl, "0.0>5.0", 0)
	mustConnect(t, ctl, "1.0>6.0", 0)
	migrated := 0
	for middle := 0; middle < 2; middle++ {
		rep, err := ctl.FailMiddle(context.Background(), 0, middle)
		if err != nil {
			t.Fatalf("FailMiddle(%d): %v", middle, err)
		}
		migrated += len(rep.Migrated)
	}
	if migrated < 2 {
		t.Fatalf("%d migrations, want at least 2", migrated)
	}
	agree(ctl, "after migrations")
	ctl.Crash()

	ctl2 := newTestController(t, cfg)
	defer ctl2.Close()
	agree(ctl2, "after restart")
}

// TestDurableDrainSealsLog checks the clean-shutdown path: Drain
// journals every disconnect, seals the log, and a reopen recovers an
// explicitly empty, sealed state that accepts fresh traffic.
func TestDurableDrainSealsLog(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir, 2)
	ctl := newTestController(t, cfg)

	mustConnect(t, ctl, "0.0>5.0,9.0", 0)
	mustConnect(t, ctl, "1.0>6.0", 1)
	sum := ctl.Drain(context.Background())
	if sum.Released != 2 || sum.Errors != 0 || sum.StorageError != "" {
		t.Fatalf("Drain = %+v, want 2 clean releases", sum)
	}

	rep, err := durable.Verify(dir)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !rep.Clean || !rep.Sealed || rep.Sessions != 0 {
		t.Fatalf("after drain: clean=%v sealed=%v sessions=%d, want clean sealed empty",
			rep.Clean, rep.Sealed, rep.Sessions)
	}

	ctl2 := newTestController(t, cfg)
	defer ctl2.Close()
	rec := ctl2.Recovery()
	if rec == nil || !rec.Sealed || len(rec.Sessions) != 0 {
		t.Fatalf("Recovery after sealed drain = %+v, want sealed and empty", rec)
	}
	// A sealed log is a checkpoint, not a tombstone: new work unseals it.
	mustConnect(t, ctl2, "0.0>5.0", 0)
	if st := ctl2.WAL().Stats(); st.Sealed {
		t.Fatal("log still sealed after new connect")
	}
}

// TestStorageFailedPropagation poisons the write-ahead log under a
// running controller and checks the fail-stop contract: every mutation
// is refused with ErrStorageFailed (storage_failed over HTTP, 503),
// reads keep serving, acknowledged state is never silently dropped,
// and health flags the plane.
func TestStorageFailedPropagation(t *testing.T) {
	dir := t.TempDir()
	ctl := newTestController(t, durableConfig(dir, 2))
	ctx := context.Background()

	id1 := mustConnect(t, ctl, "0.0>5.0,9.0", 0)
	mustConnect(t, ctl, "1.0>6.0", 1)

	// Simulate the backing store dying mid-flight.
	ctl.WAL().Crash()

	// Connect: refused and rolled back — the route must not survive in
	// the fabric or the table.
	c := mustParse(t, "2.0>7.0")
	if _, _, err := ctl.Connect(ctx, c, 0); !errors.Is(err, ErrStorageFailed) {
		t.Fatalf("Connect on poisoned log: %v, want ErrStorageFailed", err)
	}
	if got := ctl.ActiveSessions(); got != 2 {
		t.Fatalf("ActiveSessions after refused connect = %d, want 2", got)
	}
	if err := ctl.AddBranch(ctx, id1, wdm.PortWave{Port: 12, Wave: 0}); !errors.Is(err, ErrStorageFailed) {
		t.Fatalf("AddBranch on poisoned log: %v, want ErrStorageFailed", err)
	}
	if _, err := ctl.FailMiddle(ctx, 0, 0); !errors.Is(err, ErrStorageFailed) {
		t.Fatalf("FailMiddle on poisoned log: %v, want ErrStorageFailed", err)
	}

	// Reads keep serving.
	if _, ok := ctl.Session(id1); !ok {
		t.Fatal("read path refused while storage is down")
	}

	// The /v1 envelope carries the stable code under a 503 status line.
	req := httptest.NewRequest("POST", "/v1/connect", strings.NewReader(`{"connection": "3.0>8.0"}`))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	ctl.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("POST /v1/connect = %d, want 503; body %s", w.Code, w.Body.String())
	}
	var env api.Envelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error == nil || env.Error.Code != api.CodeStorageFailed {
		t.Fatalf("error envelope = %s, want code %q", w.Body.String(), api.CodeStorageFailed)
	}

	// Health exposes the poisoned plane and degrades the instance.
	h := ctl.Health()
	if h.Durability == nil || h.Durability.Healthy || h.Durability.Error == "" {
		t.Fatalf("durability health = %+v, want unhealthy with error", h.Durability)
	}
	if h.Status == api.HealthOK {
		t.Fatalf("health status %q with poisoned log, want degraded", h.Status)
	}

	// Drain cannot journal its disconnects: the sessions stay in the
	// table (visible divergence beats silent loss) and the summary
	// carries the storage error.
	sum := ctl.Drain(ctx)
	if sum.StorageError == "" || sum.Errors == 0 {
		t.Fatalf("Drain on poisoned log = %+v, want storage error", sum)
	}
	if got := ctl.ActiveSessions(); got != 2 {
		t.Fatalf("sessions dropped without journaling: %d live, want 2", got)
	}
}

// TestCrashRecoveryUnderChurn is the kill-and-recover drill: workers
// churn connect/branch/disconnect traffic against every plane with
// group commit enabled, a snapshot lands mid-history (so recovery
// exercises snapshot-plus-tail replay, not just replay), and the
// process hard-stops with live sessions and no drain. The reopened
// controller must reproduce the exact session set and fabric
// utilization, then route to the nonblocking bound with zero blocked —
// recovery spends no routing capacity.
func TestCrashRecoveryUnderChurn(t *testing.T) {
	const (
		replicas   = 2
		perPlane   = 2
		iterations = 40
	)
	dir := t.TempDir()
	cfg := durableConfig(dir, replicas)
	cfg.Shards = 8
	ctl := newTestController(t, cfg)
	p := ctl.Params()
	dim := wdm.Dim{N: p.N, K: p.K}
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make([]error, replicas*perPlane)
	for g := 0; g < replicas*perPlane; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = churnWorker(ctl, dim, g/perPlane, g%perPlane, perPlane, iterations, int64(g+1))
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", g, err)
		}
	}

	// Checkpoint mid-history, then keep mutating so the log tail is
	// non-empty: recovery must compose snapshot and tail.
	if err := ctl.WriteSnapshot(); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	live := ctl.Sessions()
	if len(live) == 0 {
		t.Fatal("churn left no live sessions to crash with")
	}
	if err := ctl.Disconnect(ctx, live[0].ID); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}

	before := sessionsJSON(t, ctl)
	beforeStatus := ctl.Status()
	ctl.Crash()

	ctl2 := newTestController(t, cfg)
	defer ctl2.Close()
	rec := ctl2.Recovery()
	if rec == nil {
		t.Fatal("no recovery report on reopen")
	}
	if rec.SnapshotSeq == 0 {
		t.Fatal("recovery ignored the snapshot (SnapshotSeq = 0)")
	}
	after := sessionsJSON(t, ctl2)
	if !bytes.Equal(before, after) {
		t.Fatalf("recovered session set diverges:\n before %s\n after  %s", before, after)
	}
	afterStatus := ctl2.Status()
	if afterStatus.Active != beforeStatus.Active {
		t.Fatalf("active after recovery = %d, want %d", afterStatus.Active, beforeStatus.Active)
	}
	for i := range beforeStatus.Fabrics {
		b, a := beforeStatus.Fabrics[i], afterStatus.Fabrics[i]
		if a.Active != b.Active || a.Utilization != b.Utilization {
			t.Fatalf("fabric %d state diverges: before %+v after %+v", i, b, a)
		}
	}

	// Fill every plane to the slot bound: with m at the Theorem 1
	// sufficient value, every admissible fanout-1 connect over the
	// remaining free slots must route. A single block here means
	// recovery burned middle-stage capacity it did not before the
	// crash.
	fillToBound(t, ctl2, replicas, dim)
	if b := ctl2.Metrics().Blocked(); b != 0 {
		t.Fatalf("blocked = %d at the sufficient bound after recovery, want 0", b)
	}

	if err := ctl2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rep, err := durable.Verify(dir)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !rep.Clean {
		t.Fatalf("log dirty after churn crash: %+v", rep.Truncated)
	}
}

// churnWorker drives random admissible traffic on one plane within its
// private port slice (ports congruent to part mod perPlane) and — the
// point of the drill — returns with its remaining sessions still live.
func churnWorker(ctl *Controller, dim wdm.Dim, plane, part, perPlane, iterations int, seed int64) error {
	gen := workload.NewGenerator(seed, wdm.MSW, dim)
	rng := rand.New(rand.NewSource(seed + 500))
	var ports []int
	for p := part; p < dim.N; p += perPlane {
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
	// Hard stop: live sessions stay behind for the crash.
	return nil
}

// fillToBound computes each plane's free slots from the live session
// listing and issues a same-wavelength fanout-1 connect for every
// pairable source/destination slot. Every request is admissible, so at
// the sufficient bound every one must route.
func fillToBound(t *testing.T, ctl *Controller, replicas int, dim wdm.Dim) {
	t.Helper()
	usedSrc := make([]map[wdm.PortWave]bool, replicas)
	usedDst := make([]map[wdm.PortWave]bool, replicas)
	for i := range usedSrc {
		usedSrc[i] = make(map[wdm.PortWave]bool)
		usedDst[i] = make(map[wdm.PortWave]bool)
	}
	for _, si := range ctl.Sessions() {
		c, err := wdm.ParseConnection(si.Conn)
		if err != nil {
			t.Fatalf("ParseConnection(%q): %v", si.Conn, err)
		}
		usedSrc[si.Fabric][c.Source] = true
		for _, d := range c.Dests {
			usedDst[si.Fabric][d] = true
		}
	}
	filled := 0
	for plane := 0; plane < replicas; plane++ {
		for w := 0; w < dim.K; w++ {
			var srcFree, dstFree []wdm.PortWave
			for p := 0; p < dim.N; p++ {
				s := wdm.PortWave{Port: wdm.Port(p), Wave: wdm.Wavelength(w)}
				if !usedSrc[plane][s] {
					srcFree = append(srcFree, s)
				}
				if !usedDst[plane][s] {
					dstFree = append(dstFree, s)
				}
			}
			for i := 0; i < min(len(srcFree), len(dstFree)); i++ {
				c := wdm.Connection{Source: srcFree[i], Dests: []wdm.PortWave{dstFree[i]}}
				if _, _, err := ctl.Connect(context.Background(), c, plane); err != nil {
					t.Fatalf("fill connect %v on plane %d: %v", c, plane, err)
				}
				filled++
			}
		}
	}
	if filled == 0 {
		t.Fatal("fill phase found no free slots; churn left the fabric saturated")
	}
}
