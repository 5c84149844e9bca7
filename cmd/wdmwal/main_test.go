package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/multistage"
	"repro/internal/switchd"
	"repro/internal/wdm"
)

// TestReplayMeshLog: replay builds replicas of the fabric the log
// records. A mesh route record names ring hops a Clos network of the
// same parameters does not have, so a Clos replay of this log fails.
func TestReplayMeshLog(t *testing.T) {
	dir := t.TempDir()
	ctl, err := switchd.New(switchd.Config{
		Backend:          "mesh",
		Fabric:           multistage.Params{N: 12, K: 4, R: 3, Model: wdm.MSW},
		DataDir:          dir,
		SnapshotInterval: -1,
		Logger:           slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"0.0>5.0,9.0", "1.0>4.0", "2.0>7.0"} {
		c, err := wdm.ParseConnection(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ctl.Connect(context.Background(), c, -1); err != nil {
			t.Fatalf("connect %s: %v", s, err)
		}
	}
	live := ctl.Status().Fabrics[0].Utilization
	if err := ctl.Close(); err != nil {
		t.Fatal(err)
	}

	state, meta, _, err := durable.ReadState(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := replay(state, meta)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if out.Sessions != 3 || len(out.Fabrics) != 1 || out.Fabrics[0].Sessions != 3 {
		t.Fatalf("replayed %+v, want 3 sessions on one fabric", out)
	}
	if got := out.Fabrics[0].Utilization; got != live {
		t.Errorf("replayed utilization %+v, live %+v", got, live)
	}
}

// TestReplayRefusesRouteOnFailedMiddle: a log whose fold leaves a
// session on a failed middle — a fail record migrating session 1 off
// middle 0, then session 1's connect record through middle 0 — does not
// replay, and the error names the session and the middle.
func TestReplayRefusesRouteOnFailedMiddle(t *testing.T) {
	meta, err := switchd.Config{Fabric: multistage.Params{N: 16, K: 2, R: 4, Model: wdm.MSW}}.DurableMeta()
	if err != nil {
		t.Fatal(err)
	}
	net, err := multistage.New(meta.Params)
	if err != nil {
		t.Fatal(err)
	}
	c, err := wdm.ParseConnection("0.0>5.0")
	if err != nil {
		t.Fatal(err)
	}
	id, err := net.Add(c)
	if err != nil {
		t.Fatal(err)
	}
	route, _ := net.RouteRecord(id)
	state := durable.NewState()
	state.Apply(&durable.Record{Op: durable.OpFail, Middle: route.In[0].Middle})
	state.Apply(&durable.Record{Op: durable.OpConnect, Session: 1, Route: &route})
	_, err = replay(state, &meta)
	want := fmt.Sprintf("failed middle %d", route.In[0].Middle)
	if err == nil || !strings.Contains(err.Error(), "session 1") || !strings.Contains(err.Error(), want) {
		t.Fatalf("replay of a route on a failed middle: %v, want an error naming session 1 and %s", err, want)
	}
}
