package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/multistage"
	"repro/internal/switchd"
	"repro/internal/switchd/client"
	"repro/internal/wdm"
)

// TestStandbyApplyAcrossBackends proves log-shipping replication is
// backend-agnostic: a primary serving the mesh or AWG-Clos fabric
// ships its WAL to a standby whose log carries the same backend in its
// durable metadata and every record. The two data directories must end
// byte-identical per session.
func TestStandbyApplyAcrossBackends(t *testing.T) {
	cases := []struct {
		name   string
		params multistage.Params
		conns  []string
		churn  string
	}{
		{"mesh", multistage.Params{N: 12, K: 4, R: 3, Model: wdm.MSW},
			[]string{"0.0>6.0", "1.1>7.1,10.1"}, "2.2>8.2"},
		{"awg", multistage.Params{N: 16, K: 2, R: 4, Model: wdm.MSW, Lite: true},
			[]string{"0.0>5.0", "1.1>6.1,9.1"}, "2.0>7.0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir1, dir2 := t.TempDir(), t.TempDir()
			srv := NewServer(ServerConfig{Shard: 0, SyncTimeout: time.Second, Heartbeat: 20 * time.Millisecond, Logger: quietLogger()})
			ctl, err := switchd.New(switchd.Config{
				Backend:          tc.name,
				Fabric:           tc.params,
				Replicas:         2,
				DataDir:          dir1,
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

			sb, err := NewStandby(StandbyConfig{
				Shard:   0,
				Primary: ln.Addr().String(),
				DataDir: dir2,
				Serving: switchd.Config{
					Backend:          tc.name,
					Fabric:           tc.params,
					Replicas:         2,
					SnapshotInterval: -1,
					Logger:           quietLogger(),
				},
				Reconnect: 20 * time.Millisecond,
				Logger:    quietLogger(),
			})
			if err != nil {
				t.Fatalf("NewStandby: %v", err)
			}
			sb.Start()
			defer sb.Close()
			waitFor(t, 5*time.Second, "standby to connect", func() bool { return srv.Standbys() == 1 })

			cl := client.New(hsrv.URL, client.WithHTTPClient(hsrv.Client()))
			ctx := context.Background()
			var held []uint64
			for _, c := range tc.conns {
				cr, err := cl.Connect(ctx, c, -1)
				if err != nil {
					t.Fatalf("Connect(%q): %v", c, err)
				}
				held = append(held, cr.Session)
			}
			// One full churn cycle so the standby logs a release too.
			cr, err := cl.Connect(ctx, tc.churn, -1)
			if err != nil {
				t.Fatalf("churn connect: %v", err)
			}
			if _, err := cl.Disconnect(ctx, cr.Session); err != nil {
				t.Fatalf("churn disconnect: %v", err)
			}

			target := ctl.WAL().SyncedSeq()
			waitFor(t, 5*time.Second, "standby to catch up", func() bool {
				return sb.AppliedSeq() >= target
			})

			ctl.Close()
			sb.Close()
			st1, meta1, _, err := durable.ReadState(dir1, nil)
			if err != nil {
				t.Fatalf("ReadState(primary): %v", err)
			}
			st2, meta2, _, err := durable.ReadState(dir2, nil)
			if err != nil {
				t.Fatalf("ReadState(standby): %v", err)
			}
			if meta1.BackendName() != tc.name || meta2.BackendName() != tc.name {
				t.Fatalf("durable backend = %q / %q, want %q", meta1.BackendName(), meta2.BackendName(), tc.name)
			}
			if len(st2.Sessions) != len(st1.Sessions) {
				t.Fatalf("session sets diverged: primary %d, standby %d", len(st1.Sessions), len(st2.Sessions))
			}
			for _, id := range held {
				a, okA := st1.Sessions[id]
				b, okB := st2.Sessions[id]
				if !okA || !okB {
					t.Fatalf("session %d missing (primary %v, standby %v)", id, okA, okB)
				}
				ja, _ := json.Marshal(a)
				jb, _ := json.Marshal(b)
				if !bytes.Equal(ja, jb) {
					t.Fatalf("session %d diverged:\n%s\n%s", id, ja, jb)
				}
			}
		})
	}
}
