package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/multistage"
	"repro/internal/obs/span"
	"repro/internal/switchd"
	"repro/internal/switchd/api"
	"repro/internal/switchd/client"
	"repro/internal/wdm"
)

func testParams() multistage.Params {
	return multistage.Params{
		N: 16, K: 2, R: 4,
		Model:        wdm.MSW,
		Construction: multistage.MSWDominant,
		Lite:         true,
	}
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// primaryNode is one shard primary under test: controller, replication
// server, and HTTP frontend, with the semi-sync committer wired.
type primaryNode struct {
	ctl  *switchd.Controller
	srv  *Server
	ln   net.Listener
	http *httptest.Server
}

func startPrimary(t testing.TB, dir string, sc ServerConfig) *primaryNode {
	t.Helper()
	sc.Logger = quietLogger()
	srv := NewServer(sc)
	ctl, err := switchd.New(switchd.Config{
		Fabric:           testParams(),
		Replicas:         2,
		DataDir:          dir,
		SnapshotInterval: -1,
		WALCommitter:     srv.Commit,
		Logger:           quietLogger(),
	})
	if err != nil {
		t.Fatalf("primary switchd.New: %v", err)
	}
	if err := srv.Attach(ctl); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("replication listener: %v", err)
	}
	go srv.Serve(ln)
	return &primaryNode{ctl: ctl, srv: srv, ln: ln, http: httptest.NewServer(ctl.Handler())}
}

func standbyServing() switchd.Config {
	return switchd.Config{
		Fabric:           testParams(),
		Replicas:         2,
		SnapshotInterval: -1,
		Logger:           quietLogger(),
	}
}

func waitFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func fetchBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return string(b)
}

func blockedTotal(st api.Status) int64 {
	var n int64
	for _, f := range st.Fabrics {
		n += f.Blocked
	}
	return n
}

// TestClusterFailoverZeroLoss is the acceptance drill: kill a shard
// primary under live churn, promote the standby by admin request, and
// prove that (a) the churn rides over the flip through the
// ShardedClient, (b) every session acknowledged before the kill is
// either still present on the new primary with a byte-identical durable
// route or was explicitly disconnected afterwards, (c) nothing blocked,
// and (d) both roles exported replication lag metrics.
func TestClusterFailoverZeroLoss(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	p := startPrimary(t, dir1, ServerConfig{Shard: 0, SyncTimeout: 5 * time.Second, Heartbeat: 25 * time.Millisecond})
	sb, err := NewStandby(StandbyConfig{
		Shard:     0,
		Primary:   p.ln.Addr().String(),
		DataDir:   dir2,
		Serving:   standbyServing(),
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

	// Both roles must export the replication metrics before anything
	// dramatic happens.
	for _, u := range []string{p.http.URL + "/metrics", sbHTTP.URL + "/metrics"} {
		body := fetchBody(t, u)
		if !strings.Contains(body, "wdm_replication_lag_seconds") || !strings.Contains(body, "wdm_replication_seq") {
			t.Fatalf("%s missing replication series:\n%s", u, body)
		}
	}

	sc, err := client.NewSharded(
		[]client.ShardEndpoints{{Primary: p.http.URL, Standby: sbHTTP.URL}},
		client.WithRetry(client.RetryPolicy{MaxAttempts: 60, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond}),
	)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}

	// Ledger of what the cluster acknowledged to clients. A session in
	// ackedLive without a later acknowledged disconnect must survive the
	// failover; gone records acknowledged disconnects (including ones
	// resolved as not_found after the flip: the disconnect applied, the
	// ack was lost with the primary).
	var (
		ledgerMu  sync.Mutex
		ackedLive = map[uint64]string{}
		gone      = map[uint64]bool{}
	)
	ctx := context.Background()

	// Held sessions live through the whole drill: acknowledged before the
	// kill, never torn down, they MUST come back on the new primary.
	for i := 0; i < 4; i++ {
		_, cr, err := sc.Connect(ctx, fmt.Sprintf("held-%d", i), fmt.Sprintf("%d.0>%d.0", 8+i, i), -1)
		if err != nil {
			t.Fatalf("held connect %d: %v", i, err)
		}
		ackedLive[cr.Session] = fmt.Sprintf("%d.0>%d.0", 8+i, i)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// 4 workers, 2 disjoint unicast lanes each (slots 0 and 1 of disjoint
	// module pairs): always admissible, no cross-worker contention. A lane
	// is abandoned if a kill-window orphan (applied but unacknowledged
	// connect) holds its slots.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lanes := []string{
				fmt.Sprintf("%d.0>%d.0", w, w+8),
				fmt.Sprintf("%d.1>%d.1", w+4, w+12),
			}
			dead := make([]bool, len(lanes))
			for i := 0; ; i = (i + 1) % len(lanes) {
				select {
				case <-stop:
					return
				default:
				}
				if dead[i] {
					if dead[0] && dead[1] {
						return
					}
					continue
				}
				_, cr, err := sc.Connect(ctx, fmt.Sprintf("worker-%d", w), lanes[i], -1)
				if err != nil {
					if api.CodeOf(err) == api.CodeBadRequest {
						// Orphan from the kill window occupies the lane.
						dead[i] = true
						continue
					}
					t.Errorf("worker %d connect %q: %v", w, lanes[i], err)
					return
				}
				ledgerMu.Lock()
				ackedLive[cr.Session] = lanes[i]
				ledgerMu.Unlock()
				_, err = sc.Disconnect(ctx, 0, cr.Session)
				if err != nil && api.CodeOf(err) != api.CodeNotFound {
					t.Errorf("worker %d disconnect %d: %v", w, cr.Session, err)
					return
				}
				// Success or not_found: either way the teardown applied.
				ledgerMu.Lock()
				gone[cr.Session] = true
				ledgerMu.Unlock()
			}
		}(w)
	}

	time.Sleep(300 * time.Millisecond)

	// Capture what was acknowledged so far, then kill the primary
	// mid-churn: hard-stop the WAL, the HTTP frontend, and the
	// replication stream.
	ledgerMu.Lock()
	ackedAtKill := make(map[uint64]string, len(ackedLive))
	for id, lane := range ackedLive {
		ackedAtKill[id] = lane
	}
	ledgerMu.Unlock()

	preKillStatus, err := sc.Status(ctx, 0)
	if err != nil {
		t.Fatalf("pre-kill status: %v", err)
	}
	if blockedTotal(preKillStatus) != 0 {
		t.Fatalf("primary blocked %d requests before the kill", blockedTotal(preKillStatus))
	}

	p.ctl.Crash()
	p.srv.Close()
	p.http.Close()

	// Promote by admin request; the churn is still running and failing
	// over while this happens.
	resp, err := http.Post(sbHTTP.URL+"/v1/admin/promote", "application/json", nil)
	if err != nil {
		t.Fatalf("POST promote: %v", err)
	}
	var pr api.PromoteResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatalf("decode promote response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !pr.Promoted {
		t.Fatalf("promote: status %d, response %+v", resp.StatusCode, pr)
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	ctl2 := sb.Controller()
	if ctl2 == nil {
		t.Fatal("standby promoted but Controller() is nil")
	}

	// Zero acknowledged loss: every pre-kill acknowledged session is on
	// the new primary unless its teardown was acknowledged too.
	survivors := 0
	for id, lane := range ackedAtKill {
		ledgerMu.Lock()
		g := gone[id]
		ledgerMu.Unlock()
		if g {
			continue
		}
		survivors++
		si, err := sc.Session(ctx, 0, id)
		if err != nil {
			t.Fatalf("acked session %d (lane %s) lost in failover: %v", id, lane, err)
		}
		if si.Conn != lane {
			t.Fatalf("session %d came back as %q, was acknowledged as %q", id, si.Conn, lane)
		}
	}
	if len(ackedAtKill) == 0 {
		t.Fatal("churn acknowledged no sessions before the kill; test proved nothing")
	}
	if survivors < 4 {
		t.Fatalf("%d survivors verified; the 4 held sessions alone should survive", survivors)
	}

	st2, err := sc.Status(ctx, 0)
	if err != nil {
		t.Fatalf("post-failover status: %v", err)
	}
	if blockedTotal(st2) != 0 {
		t.Fatalf("new primary blocked %d requests", blockedTotal(st2))
	}
	if got := fetchBody(t, sbHTTP.URL+"/metrics"); !strings.Contains(got, "wdm_replication_lag_seconds") {
		t.Fatal("promoted node stopped exporting wdm_replication_lag_seconds")
	}
	if n := p.srv.SyncTimeouts(); n != 0 {
		t.Fatalf("primary degraded to async replication %d times during a healthy run", n)
	}

	// Byte-identical durable state: close the promoted node, read both
	// logs back, and compare every surviving acknowledged session's
	// recorded route between the dead primary's log and the replica's.
	if err := sb.Close(); err != nil {
		t.Fatalf("closing promoted node: %v", err)
	}
	st1read, _, _, err := durable.ReadState(dir1, nil)
	if err != nil {
		t.Fatalf("ReadState(primary): %v", err)
	}
	st2read, _, _, err := durable.ReadState(dir2, nil)
	if err != nil {
		t.Fatalf("ReadState(replica): %v", err)
	}
	compared := 0
	for id := range ackedAtKill {
		ledgerMu.Lock()
		g := gone[id]
		ledgerMu.Unlock()
		if g {
			continue
		}
		a, okA := st1read.Sessions[id]
		b, okB := st2read.Sessions[id]
		if !okA || !okB {
			t.Fatalf("acked session %d missing from durable state (primary %v, replica %v)", id, okA, okB)
		}
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if !bytes.Equal(ja, jb) {
			t.Fatalf("session %d diverged:\nprimary: %s\nreplica: %s", id, ja, jb)
		}
		compared++
	}
	if compared != survivors {
		t.Fatalf("compared %d sessions, expected %d", compared, survivors)
	}
	t.Logf("failover drill: %d acked at kill, %d survivors verified byte-identical, promote took %dms",
		len(ackedAtKill), survivors, pr.Millis)
}

// TestStandbyTornFrameResume cuts the replication stream mid-frame with
// a byte-limited proxy: the standby must treat the torn frame as a
// dropped connection, reconnect, resume from its durable high-water
// mark, and converge on the primary's exact session set with no
// duplicates (AppendReplica enforces contiguity, so a replayed or
// skipped record would fail loudly).
func TestStandbyTornFrameResume(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	p := startPrimary(t, dir1, ServerConfig{Shard: 0, SyncTimeout: 100 * time.Millisecond, Heartbeat: 20 * time.Millisecond})
	defer p.http.Close()
	defer p.srv.Close()
	defer p.ctl.Close()

	// Proxy: first downstream connection is cut 9 bytes in (mid-frame:
	// every frame is at least 5 header bytes plus payload); later
	// connections pass through untouched.
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy listener: %v", err)
	}
	defer pln.Close()
	var first atomic.Bool
	first.Store(true)
	go func() {
		for {
			down, err := pln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", p.ln.Addr().String())
			if err != nil {
				down.Close()
				continue
			}
			go func() { io.Copy(up, down); up.Close() }()
			go func() {
				if first.Swap(false) {
					io.CopyN(down, up, 9)
				} else {
					io.Copy(down, up)
				}
				down.Close()
				up.Close()
			}()
		}
	}()

	sb, err := NewStandby(StandbyConfig{
		Shard:       0,
		Primary:     pln.Addr().String(),
		DataDir:     dir2,
		Serving:     standbyServing(),
		Reconnect:   20 * time.Millisecond,
		DialTimeout: time.Second,
		Logger:      quietLogger(),
	})
	if err != nil {
		t.Fatalf("NewStandby: %v", err)
	}
	sb.Start()
	defer sb.Close()

	cl := client.New(p.http.URL, client.WithHTTPClient(p.http.Client()))
	for i := 0; i < 5; i++ {
		if _, err := cl.Connect(context.Background(), fmt.Sprintf("%d.0>%d.0", i, i+8), -1); err != nil {
			t.Fatalf("connect %d: %v", i, err)
		}
	}

	target := p.ctl.WAL().SyncedSeq()
	waitFor(t, 5*time.Second, "standby to resume past the torn frame", func() bool {
		return sb.AppliedSeq() >= target
	})
	if sb.Reconnects() == 0 {
		t.Fatal("stream was never cut; the torn-frame path did not run")
	}

	p.ctl.Close()
	sb.Close()
	st1, _, _, err := durable.ReadState(dir1, nil)
	if err != nil {
		t.Fatalf("ReadState(primary): %v", err)
	}
	st2, _, _, err := durable.ReadState(dir2, nil)
	if err != nil {
		t.Fatalf("ReadState(replica): %v", err)
	}
	if len(st1.Sessions) != 5 || len(st2.Sessions) != len(st1.Sessions) {
		t.Fatalf("session sets diverged: primary %d, replica %d", len(st1.Sessions), len(st2.Sessions))
	}
	for id, a := range st1.Sessions {
		b, ok := st2.Sessions[id]
		if !ok {
			t.Fatalf("session %d missing on replica", id)
		}
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if !bytes.Equal(ja, jb) {
			t.Fatalf("session %d diverged:\n%s\n%s", id, ja, jb)
		}
	}
}

// TestStandbyAutoPromoteOnHeartbeatLoss arms the watchdog and
// hard-stops the primary: the standby must notice the silent stream and
// promote itself with the full replicated session set.
func TestStandbyAutoPromoteOnHeartbeatLoss(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	p := startPrimary(t, dir1, ServerConfig{Shard: 0, SyncTimeout: 2 * time.Second, Heartbeat: 20 * time.Millisecond})
	defer p.http.Close()

	sb, err := NewStandby(StandbyConfig{
		Shard:         0,
		Primary:       p.ln.Addr().String(),
		DataDir:       dir2,
		Serving:       standbyServing(),
		Reconnect:     20 * time.Millisecond,
		FailoverAfter: 250 * time.Millisecond,
		Logger:        quietLogger(),
	})
	if err != nil {
		t.Fatalf("NewStandby: %v", err)
	}
	sb.Start()
	defer sb.Close()
	waitFor(t, 5*time.Second, "standby to connect", func() bool { return p.srv.Standbys() == 1 })

	cl := client.New(p.http.URL, client.WithHTTPClient(p.http.Client()))
	want := map[uint64]string{}
	for i := 0; i < 3; i++ {
		conn := fmt.Sprintf("%d.0>%d.0", i, i+8)
		cr, err := cl.Connect(context.Background(), conn, -1)
		if err != nil {
			t.Fatalf("connect %d: %v", i, err)
		}
		want[cr.Session] = conn
	}

	p.ctl.Crash()
	p.srv.Close()
	p.http.Close()

	waitFor(t, 5*time.Second, "watchdog promotion", sb.Promoted)
	ctl2 := sb.Controller()
	if ctl2 == nil {
		t.Fatal("promoted without a controller")
	}
	st := ctl2.Status()
	if st.Active != int64(len(want)) {
		t.Fatalf("promoted with %d sessions, want %d", st.Active, len(want))
	}
	h := ctl2.Health()
	if h.Replication == nil || h.Replication.Role != api.RolePrimary || !h.Replication.Promoted {
		t.Fatalf("promoted health replication row wrong: %+v", h.Replication)
	}
}

// TestStandbySnapshotBootstrap joins a standby after the primary pruned
// the log prefix the standby would need: the primary must ship a full
// state snapshot and stream the tail from there.
func TestStandbySnapshotBootstrap(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	srv := NewServer(ServerConfig{Shard: 0, SyncTimeout: time.Second, Heartbeat: 20 * time.Millisecond, Logger: quietLogger()})
	ctl, err := switchd.New(switchd.Config{
		Fabric:           testParams(),
		Replicas:         2,
		DataDir:          dir1,
		WALSegmentBytes:  600,
		SnapshotInterval: -1,
		WALCommitter:     srv.Commit,
		Logger:           quietLogger(),
	})
	if err != nil {
		t.Fatalf("switchd.New: %v", err)
	}
	if err := srv.Attach(ctl); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listener: %v", err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	defer ctl.Close()
	hsrv := httptest.NewServer(ctl.Handler())
	defer hsrv.Close()

	// Enough churn to span several 600-byte segments, two snapshots to
	// prune the early ones, then a held session the snapshot must carry.
	cl := client.New(hsrv.URL, client.WithHTTPClient(hsrv.Client()))
	ctx := context.Background()
	for i := 0; i < 30; i++ {
		cr, err := cl.Connect(ctx, "0.0>8.0", -1)
		if err != nil {
			t.Fatalf("cycle connect %d: %v", i, err)
		}
		if _, err := cl.Disconnect(ctx, cr.Session); err != nil {
			t.Fatalf("cycle disconnect %d: %v", i, err)
		}
	}
	heldResp, err := cl.Connect(ctx, "1.0>9.0", -1)
	if err != nil {
		t.Fatalf("held connect: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := ctl.WriteSnapshot(); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
	}
	segs, err := filepath.Glob(filepath.Join(dir1, "wal-*.log"))
	if err != nil {
		t.Fatalf("listing segments: %v", err)
	}
	if len(segs) > 2 {
		t.Skipf("pruning left %d segments; compaction did not trigger", len(segs))
	}

	sb, err := NewStandby(StandbyConfig{
		Shard:     0,
		Primary:   ln.Addr().String(),
		DataDir:   dir2,
		Serving:   standbyServing(),
		Reconnect: 20 * time.Millisecond,
		Logger:    quietLogger(),
	})
	if err != nil {
		t.Fatalf("NewStandby: %v", err)
	}
	sb.Start()
	defer sb.Close()

	target := ctl.WAL().SyncedSeq()
	waitFor(t, 5*time.Second, "standby to bootstrap and catch up", func() bool {
		return sb.AppliedSeq() >= target
	})
	rh := sb.ReplicationHealth()
	if rh.Snapshots == 0 {
		t.Fatal("standby caught up without a snapshot bootstrap; the compacted path did not run")
	}

	// Post-bootstrap records still apply: one more live mutation must
	// reach the standby.
	cr, err := cl.Connect(ctx, "2.0>10.0", -1)
	if err != nil {
		t.Fatalf("post-bootstrap connect: %v", err)
	}
	target = ctl.WAL().SyncedSeq()
	waitFor(t, 5*time.Second, "tail record to replicate", func() bool {
		return sb.AppliedSeq() >= target
	})

	ctl.Close()
	sb.Close()
	st1, _, _, err := durable.ReadState(dir1, nil)
	if err != nil {
		t.Fatalf("ReadState(primary): %v", err)
	}
	st2, _, _, err := durable.ReadState(dir2, nil)
	if err != nil {
		t.Fatalf("ReadState(replica): %v", err)
	}
	for _, id := range []uint64{heldResp.Session, cr.Session} {
		a, okA := st1.Sessions[id]
		b, okB := st2.Sessions[id]
		if !okA || !okB {
			t.Fatalf("session %d missing (primary %v, replica %v)", id, okA, okB)
		}
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if !bytes.Equal(ja, jb) {
			t.Fatalf("session %d diverged:\n%s\n%s", id, ja, jb)
		}
	}
	if len(st2.Sessions) != len(st1.Sessions) {
		t.Fatalf("session sets diverged: primary %d, replica %d", len(st1.Sessions), len(st2.Sessions))
	}
}

// TestServerRejectsDivergentStandby: a standby whose resume point is
// ahead of the primary's log followed a different history (semi-sync
// never lets a real standby get ahead), so the handshake must be
// refused rather than splicing two logs at a coincidentally-matching
// sequence number. Regression for an orphaned standby from a previous
// cluster incarnation dialing a freshly-initialised primary.
func TestServerRejectsDivergentStandby(t *testing.T) {
	p := startPrimary(t, t.TempDir(), ServerConfig{Shard: 0})
	defer p.http.Close()
	defer p.srv.Close()
	defer p.ctl.Close()

	c, br, _, err := dialAndHandshake(p.ln.Addr().String(), time.Second, handshakeMsg{
		Shard:   0,
		HaveSeq: p.ctl.WAL().LastSeq() + 100,
		Meta:    p.ctl.WAL().Meta(),
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	typ, payload, err := readFrame(br)
	if err != nil {
		t.Fatalf("reading handshake response: %v", err)
	}
	if typ != frameReject {
		t.Fatalf("frame type = %d, want frameReject", typ)
	}
	var rej rejectMsg
	if err := json.Unmarshal(payload, &rej); err != nil {
		t.Fatalf("decoding reject: %v", err)
	}
	if !strings.Contains(rej.Reason, "divergent history") {
		t.Fatalf("reject reason %q, want divergent-history refusal", rej.Reason)
	}

	// An equal resume point is the normal fully-caught-up case and must
	// still be admitted.
	c2, br2, _, err := dialAndHandshake(p.ln.Addr().String(), time.Second, handshakeMsg{
		Shard:   0,
		HaveSeq: p.ctl.WAL().LastSeq(),
		Meta:    p.ctl.WAL().Meta(),
	})
	if err != nil {
		t.Fatalf("dial (caught-up): %v", err)
	}
	defer c2.Close()
	typ2, _, err := readFrame(br2)
	if err != nil {
		t.Fatalf("reading first frame on caught-up stream: %v", err)
	}
	if typ2 == frameReject {
		t.Fatal("caught-up standby was rejected")
	}
}

// TestStandbyLogHoldsPrimaryBytes: the standby frames each record's
// payload exactly as the primary's appender wrote it, so the two logs
// hold byte-identical record frames — for every record kind, a traced
// one included, and although small segments rotate at different points
// on the two sides.
func TestStandbyLogHoldsPrimaryBytes(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	srv := NewServer(ServerConfig{Shard: 0, SyncTimeout: 5 * time.Second, Heartbeat: 20 * time.Millisecond, Logger: quietLogger()})
	ctl, err := switchd.New(switchd.Config{
		Fabric:           testParams(),
		Replicas:         2,
		DataDir:          dir1,
		SnapshotInterval: -1,
		WALSegmentBytes:  1024,
		WALCommitter:     srv.Commit,
		Logger:           quietLogger(),
	})
	if err != nil {
		t.Fatalf("primary switchd.New: %v", err)
	}
	defer ctl.Close()
	if err := srv.Attach(ctl); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("replication listener: %v", err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	serving := standbyServing()
	serving.WALSegmentBytes = 1024
	sb, err := NewStandby(StandbyConfig{
		Shard:     0,
		Primary:   ln.Addr().String(),
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
	waitFor(t, 5*time.Second, "standby to connect", func() bool { return srv.Standbys() == 1 })

	ctx := context.Background()
	connect := func(ctx context.Context, s string) (uint64, int) {
		t.Helper()
		c, err := wdm.ParseConnection(s)
		if err != nil {
			t.Fatal(err)
		}
		id, plane, err := ctl.Connect(ctx, c, -1)
		if err != nil {
			t.Fatalf("connect %s: %v", s, err)
		}
		return id, plane
	}
	id, plane := connect(ctx, "0.0>4.0,9.0")
	if err := ctl.AddBranch(ctx, id, wdm.PortWave{Port: 12}); err != nil {
		t.Fatalf("branch: %v", err)
	}
	for i := 0; i < 8; i++ {
		gone, _ := connect(ctx, "1.0>6.0")
		if err := ctl.Disconnect(ctx, gone); err != nil {
			t.Fatalf("disconnect: %v", err)
		}
	}
	if _, err := ctl.FailMiddle(ctx, plane, 0); err != nil {
		t.Fatalf("fail: %v", err)
	}
	if _, err := ctl.RepairMiddle(ctx, plane, 0); err != nil {
		t.Fatalf("repair: %v", err)
	}
	root := span.NewTracer(span.Config{SampleEvery: 1}).Root("test", "")
	connect(span.ContextWith(ctx, root), "2.0>8.0")
	root.End()

	last := ctl.WAL().LastSeq()
	waitFor(t, 5*time.Second, "standby to apply the log", func() bool { return sb.AppliedSeq() >= last })

	primary, segs1 := recordFrames(t, dir1)
	standby, segs2 := recordFrames(t, dir2)
	if segs1 < 2 || segs2 < 2 {
		t.Fatalf("segments: primary %d, standby %d; want rotation on both sides", segs1, segs2)
	}
	for _, kind := range []string{`"op":"meta"`, `"op":"connect"`, `"op":"branch"`, `"op":"disconnect"`, `"op":"fail"`, `"op":"repair"`, `"tp":"`} {
		if !bytes.Contains(primary, []byte(kind)) {
			t.Errorf("primary log holds no %s record", kind)
		}
	}
	if !bytes.Equal(primary, standby) {
		t.Errorf("record frames differ: primary %d bytes, standby %d bytes", len(primary), len(standby))
	}
}

// TestStandbyHandoffUnderLoad: while several goroutines connect and
// disconnect, a standby joins from empty, and later rejoins from a
// mid-log resume point after the primary has rotated segments past it.
// Each time a Follower catches it up from the segment files and hands
// the stream to the group-commit leader. A proxy checks that the
// primary sends every record after the resume point exactly once and
// in order, across both hand-offs. Then the primary closes while the
// appenders are still running: Close waits out the in-flight leader,
// ships its final batch after it, and returns only once the standby
// holds it. The two logs end byte-identical, and no batch was
// acknowledged without the standby.
func TestStandbyHandoffUnderLoad(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	srv := NewServer(ServerConfig{Shard: 0, SyncTimeout: 5 * time.Second, Heartbeat: 20 * time.Millisecond, Logger: quietLogger()})
	ctl, err := switchd.New(switchd.Config{
		Fabric:           testParams(),
		Replicas:         2,
		DataDir:          dir1,
		SnapshotInterval: -1,
		WALSegmentBytes:  2048,
		WALCommitter:     srv.Commit,
		Logger:           quietLogger(),
	})
	if err != nil {
		t.Fatalf("primary switchd.New: %v", err)
	}
	defer ctl.Close()
	if err := srv.Attach(ctl); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("replication listener: %v", err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	proxy, violations := seqCheckingProxy(t, ln.Addr().String())

	var (
		closing atomic.Bool
		wg      sync.WaitGroup
	)
	ctx := context.Background()
	for g := 0; g < 4; g++ {
		c, err := wdm.ParseConnection(fmt.Sprintf("%d.0>%d.0", g, g+8))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				id, _, err := ctl.Connect(ctx, c, -1)
				if err == nil {
					err = ctl.Disconnect(ctx, id)
				}
				if err != nil {
					if !closing.Load() {
						t.Errorf("appender %v: %v", c, err)
					}
					return
				}
			}
		}()
	}
	defer wg.Wait()
	grow := func(records uint64) {
		t.Helper()
		target := ctl.WAL().LastSeq() + records
		waitFor(t, 10*time.Second, "the log to grow", func() bool { return ctl.WAL().LastSeq() >= target })
	}
	follow := func() *Standby {
		t.Helper()
		serving := standbyServing()
		serving.WALSegmentBytes = 2048
		sb, err := NewStandby(StandbyConfig{Shard: 0, Primary: proxy, DataDir: dir2, Serving: serving, Reconnect: 20 * time.Millisecond, Logger: quietLogger()})
		if err != nil {
			t.Fatalf("NewStandby: %v", err)
		}
		sb.Start()
		target := ctl.WAL().LastSeq()
		waitFor(t, 10*time.Second, "the standby to catch up under load", func() bool { return sb.AppliedSeq() >= target })
		grow(50) // served by the leaders now
		return sb
	}

	grow(100)
	sb := follow() // from empty
	if err := sb.Close(); err != nil {
		t.Fatalf("standby Close: %v", err)
	}
	segs := ctl.WAL().Stats().Segments
	grow(100)
	if ctl.WAL().Stats().Segments < segs+2 {
		t.Fatalf("segments %d -> %d: the resume point is not behind a rotation", segs, ctl.WAL().Stats().Segments)
	}
	sb = follow() // mid-log resume
	defer sb.Close()

	closing.Store(true)
	if err := ctl.Close(); err != nil {
		t.Fatalf("primary Close: %v", err)
	}
	last := ctl.WAL().LastSeq()
	if got := sb.AppliedSeq(); got != last {
		t.Errorf("primary Close returned with the standby at seq %d, want its last seq %d", got, last)
	}
	wg.Wait()
	if n := srv.SyncTimeouts(); n != 0 {
		t.Errorf("%d batches acknowledged without the standby", n)
	}
	for _, v := range violations() {
		t.Error(v)
	}
	primary, _ := recordFrames(t, dir1)
	standby, _ := recordFrames(t, dir2)
	if !bytes.Equal(primary, standby) {
		t.Errorf("record frames differ: primary %d bytes, standby %d bytes", len(primary), len(standby))
	}
}

// seqCheckingProxy relays standby connections to the primary at
// upstream. On each it reads the standby's resume point from the
// handshake and checks that the record frames the primary sends carry
// every later sequence exactly once, in order; violations returns what
// it found.
func seqCheckingProxy(t *testing.T, upstream string) (string, func() []string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy listener: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	var (
		mu    sync.Mutex
		found []string
	)
	report := func(format string, args ...any) {
		mu.Lock()
		found = append(found, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	relay := func(down net.Conn) {
		defer down.Close()
		up, err := net.Dial("tcp", upstream)
		if err != nil {
			return
		}
		defer up.Close()
		dr := bufio.NewReader(down)
		typ, payload, err := readFrame(dr)
		if err != nil || typ != frameHandshake {
			return
		}
		var hs handshakeMsg
		if err := json.Unmarshal(payload, &hs); err != nil {
			report("proxy: handshake: %v", err)
			return
		}
		uw := bufio.NewWriter(up)
		if writePayload(uw, typ, payload) != nil || uw.Flush() != nil {
			return
		}
		go func() {
			io.Copy(up, dr) // acks
			up.Close()
		}()
		ur, dw := bufio.NewReader(up), bufio.NewWriter(down)
		next := hs.HaveSeq + 1
		for {
			typ, payload, err := readFrame(ur)
			if err != nil {
				return
			}
			if typ == frameRecord {
				var rec struct {
					Seq uint64 `json:"seq"`
				}
				if err := json.Unmarshal(payload, &rec); err != nil || rec.Seq != next {
					report("resume after %d: record frame with seq %d (%v), want %d", hs.HaveSeq, rec.Seq, err, next)
					return
				}
				next++
			}
			if writePayload(dw, typ, payload) != nil {
				return
			}
			if ur.Buffered() == 0 && dw.Flush() != nil {
				return
			}
		}
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go relay(c)
		}
	}()
	return ln.Addr().String(), func() []string {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(found)
	}
}

// recordFrames concatenates the record frames of every log segment in
// dir, in sequence order, with each segment's magic stripped.
func recordFrames(t *testing.T, dir string) ([]byte, int) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs) // fixed-width hex first sequences
	const magic = "WDMWAL1\n"
	var frames []byte
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, []byte(magic)) {
			t.Fatalf("%s: no segment magic", seg)
		}
		frames = append(frames, b[len(magic):]...)
	}
	return frames, len(segs)
}
