package main

import (
	"context"
	"io"
	"log/slog"
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
