package repro

import (
	"context"
	"strings"
	"testing"

	"repro/internal/benes"
	"repro/internal/core"
	"repro/internal/crossbar"
	"repro/internal/multistage"
	"repro/internal/schedule"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/wdm"
	"repro/internal/workload"
)

// TestScheduledRoundsRouteOnRealSwitches closes the loop between the
// scheduler and the hardware models: every round the scheduler emits
// must be simultaneously realizable on the gate-level crossbar of the
// same model — installed, optically verified, and torn down round by
// round, like a real time-slotted controller would.
func TestScheduledRoundsRouteOnRealSwitches(t *testing.T) {
	dim := wdm.Dim{N: 6, K: 2}
	reqs := []schedule.Request{
		{Source: 0, Dests: []wdm.Port{2, 3, 4}},
		{Source: 1, Dests: []wdm.Port{2, 3}},
		{Source: 2, Dests: []wdm.Port{0, 5}},
		{Source: 0, Dests: []wdm.Port{1, 5}},
		{Source: 3, Dests: []wdm.Port{2}},
		{Source: 4, Dests: []wdm.Port{2, 3, 5}},
		{Source: 5, Dests: []wdm.Port{0, 1, 2, 3}},
	}
	for _, model := range wdm.Models {
		plan, err := schedule.Schedule(model, dim, reqs)
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		sw := crossbar.New(model, dim)
		for i, round := range plan.Rounds {
			ids, err := sw.AddAssignment(round.Assignment)
			if err != nil {
				t.Fatalf("%v round %d does not fit the switch: %v", model, i, err)
			}
			if _, err := sw.Verify(); err != nil {
				t.Fatalf("%v round %d optical fault: %v", model, i, err)
			}
			for _, id := range ids {
				if err := sw.Release(id); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestBenesAgreesWithCrossbar routes the same unicast MSW assignment on
// the rearrangeable Beneš baseline and on the strictly nonblocking
// crossbar: both must deliver identical input->output maps.
func TestBenesAgreesWithCrossbar(t *testing.T) {
	const n, k = 8, 2
	gen := workload.NewGenerator(19, wdm.MSW, wdm.Dim{N: n, K: k})
	// Build a unicast-only MSW assignment from a full random one by
	// keeping only fanout-1 connections.
	var unicast wdm.Assignment
	for _, c := range gen.Assignment(true, 0) {
		if c.Fanout() == 1 {
			unicast = append(unicast, c)
		}
	}
	if len(unicast) < 4 {
		t.Fatalf("only %d unicasts drawn", len(unicast))
	}

	w, err := benes.NewWDM(n, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RouteAssignment(unicast); err != nil {
		t.Fatal(err)
	}
	sw := crossbar.New(wdm.MSW, wdm.Dim{N: n, K: k})
	if _, err := sw.AddAssignment(unicast); err != nil {
		t.Fatal(err)
	}
	res, err := sw.Verify()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range unicast {
		want := c.Dests[0]
		if got := w.Output(c.Source); got != want {
			t.Errorf("Beneš delivers %v to %v, want %v", c.Source, got, want)
		}
		if sig, ok := res.Arrived[want]; !ok || sig.ID < 0 {
			t.Errorf("crossbar did not deliver to %v", want)
		}
	}
}

// TestIncidentWorkflow drives the full operational loop: a design from
// core, dynamic traffic from the in-process traffic engine recorded by
// trace, and a replay of the incident on an upgraded network showing
// the blocks vanish.
func TestIncidentWorkflow(t *testing.T) {
	build := func(m int) *multistage.Network {
		net, err := multistage.New(multistage.Params{
			N: 16, K: 2, R: 4, M: m, X: 2, Model: wdm.MAW,
			Construction: multistage.MAWDominant, Lite: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	undersized := build(3)
	rec := trace.NewRecorder(undersized, multistage.IsBlocked)
	eng, err := traffic.NewEngine(traffic.Config{
		Sink: traffic.NewNetworkSink(rec, undersized.Params()),
		Seed: 33, Arrivals: 1200, Erlangs: 10, MaxFanout: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res := run.Stats
	if res.Blocked == 0 {
		t.Fatal("undersized network never blocked; workflow test needs an incident")
	}

	// Serialize and re-read the incident (exercises the codec end to
	// end on a sizeable trace).
	var b strings.Builder
	if err := rec.Trace().Write(&b); err != nil {
		t.Fatal(err)
	}
	parsed, err := trace.Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Events) != len(rec.Trace().Events) {
		t.Fatalf("codec dropped events: %d vs %d", len(parsed.Events), len(rec.Trace().Events))
	}

	// Replay at the sufficient bound: every blocked add must diverge
	// (now route) and no routed add may fail.
	suffM, _ := multistage.SufficientMinM(multistage.MAWDominant, wdm.MAW, 4, 4, 2)
	rep, err := parsed.Replay(build(suffM), multistage.IsBlocked)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Divergence) != res.Blocked {
		t.Errorf("replay divergences %d != recorded blocks %d", len(rep.Divergence), res.Blocked)
	}
	for _, i := range rep.Divergence {
		if parsed.Events[i].Outcome != trace.Blocked {
			t.Errorf("event %d diverged but was not a recorded block", i)
		}
	}
}

// TestDesignedNetworkSurvivesPatterns runs every deterministic traffic
// pattern through the design core.Best recommends for a mid-size
// network, at gate level, with optical verification.
func TestDesignedNetworkSurvivesPatterns(t *testing.T) {
	best, err := core.Best(16, 2, wdm.MSW, core.DefaultWeights)
	if err != nil {
		t.Fatal(err)
	}
	spec := best.Spec
	net, err := core.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	d := wdm.Dim{N: 16, K: 2}
	for _, pat := range []struct {
		p      workload.Pattern
		stride int
	}{
		{workload.Shift, 1}, {workload.Shift, 5}, {workload.Transpose, 3},
		{workload.Hotspot, 4}, {workload.Broadcast, 0},
	} {
		a, err := workload.PatternAssignment(pat.p, d, pat.stride)
		if err != nil {
			t.Fatal(err)
		}
		var ids []int
		for _, c := range a {
			id, err := net.Add(c)
			if err != nil {
				t.Fatalf("%v stride %d on %s: %v", pat.p, pat.stride, best.Describe(), err)
			}
			ids = append(ids, id)
		}
		if err := net.Verify(); err != nil {
			t.Fatalf("%v: %v", pat.p, err)
		}
		for _, id := range ids {
			if err := net.Release(id); err != nil {
				t.Fatal(err)
			}
		}
	}
}
