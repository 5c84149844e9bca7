package mesh

import (
	"reflect"
	"testing"

	"repro/internal/multistage"
	"repro/internal/wdm"
)

func pw(p, w int) wdm.PortWave {
	return wdm.PortWave{Port: wdm.Port(p), Wave: wdm.Wavelength(w)}
}

func mustNew(t *testing.T, n, k, r, x int) *Network {
	t.Helper()
	net, err := New(multistage.Params{
		N: n, K: k, R: r, X: x, Model: wdm.MSW, Construction: multistage.MSWDominant,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return net
}

func TestNormalizeRejections(t *testing.T) {
	base := multistage.Params{N: 12, K: 2, R: 3, Model: wdm.MSW}
	cases := []struct {
		name   string
		mutate func(*multistage.Params)
	}{
		{"tiny ring", func(p *multistage.Params) { p.N = 2 }},
		{"no wavelengths", func(p *multistage.Params) { p.K = 0 }},
		{"R not dividing N", func(p *multistage.Params) { p.R = 5 }},
		{"M not N", func(p *multistage.Params) { p.M = 7 }},
		{"bad depth", func(p *multistage.Params) { p.Depth = 5 }},
	}
	for _, tc := range cases {
		p := base
		tc.mutate(&p)
		if _, err := Normalize(p); err == nil {
			t.Errorf("%s: Normalize accepted %+v", tc.name, p)
		}
	}
	p, err := Normalize(base)
	if err != nil {
		t.Fatalf("Normalize(%+v): %v", base, err)
	}
	if p.M != 12 || p.X != 2 || p.Depth != 3 {
		t.Errorf("Normalize defaults: M=%d X=%d Depth=%d, want 12 2 3", p.M, p.X, p.Depth)
	}
}

func TestUnicastRouteAndRelease(t *testing.T) {
	net := mustNew(t, 12, 2, 3, 2)
	id, err := net.Add(wdm.Connection{Source: pw(0, 0), Dests: []wdm.PortWave{pw(5, 0)}})
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	u := net.Utilization()
	if u.InBusy != 5 || u.OutBusy != 0 {
		t.Errorf("unicast 0->5 should hold 5 clockwise edges, got in=%d out=%d", u.InBusy, u.OutBusy)
	}
	nodes, ok := net.middlesUsed(id)
	if !ok || !reflect.DeepEqual(nodes, []int{0, 1, 2, 3, 4, 5}) {
		t.Errorf("middlesUsed = %v %v", nodes, ok)
	}
	if err := net.Release(id); err != nil {
		t.Fatalf("Release: %v", err)
	}
	u = net.Utilization()
	if u.InBusy != 0 || u.OutBusy != 0 || net.Len() != 0 {
		t.Errorf("after release: in=%d out=%d len=%d", u.InBusy, u.OutBusy, net.Len())
	}
}

func TestMulticastSpurForMIDestination(t *testing.T) {
	// MC nodes are 0,3,6,9. Destination 4 is MI mid-walk, so it must be
	// served by a spur hosted at MC node 6 (the first MC node beyond it),
	// doubling back 6->5->4 on counter-clockwise edges.
	net := mustNew(t, 12, 2, 3, 2)
	id, err := net.Add(wdm.Connection{Source: pw(0, 0), Dests: []wdm.PortWave{pw(4, 0), pw(6, 0)}})
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	u := net.Utilization()
	if u.InBusy != 6 || u.OutBusy != 2 {
		t.Errorf("walk+spur should hold 6 cw + 2 ccw edges, got in=%d out=%d", u.InBusy, u.OutBusy)
	}
	rec, ok := net.RouteRecord(id)
	if !ok {
		t.Fatal("RouteRecord missing")
	}
	if len(rec.In) != 0 || len(rec.Out) != 8 {
		t.Errorf("record: %d in-legs %d hops, want 0 and 8", len(rec.In), len(rec.Out))
	}
	spur := rec.Out[len(rec.Out)-2:]
	if spur[0].Middle != 6 || spur[0].Out != 5 || spur[1].Middle != 5 || spur[1].Out != 4 {
		t.Errorf("spur hops = %+v, want 6->5->4", spur)
	}
}

func TestDropAndContinueAtMCDestination(t *testing.T) {
	// Destination 3 is MC: drop-and-continue, no spur, no extra edges.
	net := mustNew(t, 12, 2, 3, 2)
	if _, err := net.Add(wdm.Connection{Source: pw(0, 0), Dests: []wdm.PortWave{pw(3, 0), pw(6, 0)}}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	u := net.Utilization()
	if u.InBusy != 6 || u.OutBusy != 0 {
		t.Errorf("drop-and-continue should hold 6 cw edges only, got in=%d out=%d", u.InBusy, u.OutBusy)
	}
}

func TestSplitIncapableCode(t *testing.T) {
	// X=1: no node can branch at all, so any multicast with two off-node
	// destinations is structurally unroutable — the stable code fires.
	net := mustNew(t, 12, 2, 3, 1)
	_, err := net.Add(wdm.Connection{Source: pw(0, 0), Dests: []wdm.PortWave{pw(2, 0), pw(4, 0)}})
	if !multistage.IsBlocked(err) {
		t.Fatalf("want blocked, got %v", err)
	}
	if code := multistage.BlockedCode(err); code != multistage.CodeSplitIncapable {
		t.Errorf("BlockedCode = %q, want %q", code, multistage.CodeSplitIncapable)
	}
	rep, ok := multistage.AsBlockReport(err)
	if !ok || rep.SrcModule != 0 {
		t.Errorf("block report = %+v", rep)
	}
	if _, blocked := net.Stats(); blocked != 1 {
		t.Errorf("blocked count = %d, want 1", blocked)
	}
}

func TestOccupancyBlockIsGeneric(t *testing.T) {
	// N=6, k=1, all nodes MC. Fill the whole clockwise ring and the
	// counter-clockwise edge 2->1, then ask for 2->5: both orientations
	// are busy, but an idle ring would route it — the block must NOT
	// carry the structural split_incapable code.
	net := mustNew(t, 6, 1, 1, 2)
	for _, c := range []wdm.Connection{
		{Source: pw(0, 0), Dests: []wdm.PortWave{pw(3, 0)}}, // cw 0,1,2
		{Source: pw(3, 0), Dests: []wdm.PortWave{pw(0, 0)}}, // cw 3,4,5
		{Source: pw(1, 0), Dests: []wdm.PortWave{pw(4, 0)}}, // ccw 1->0->5->4
		{Source: pw(4, 0), Dests: []wdm.PortWave{pw(1, 0)}}, // ccw 4->3->2->1
	} {
		if _, err := net.Add(c); err != nil {
			t.Fatalf("setup Add(%v): %v", c, err)
		}
	}
	_, err := net.Add(wdm.Connection{Source: pw(2, 0), Dests: []wdm.PortWave{pw(5, 0)}})
	if !multistage.IsBlocked(err) {
		t.Fatalf("want blocked, got %v", err)
	}
	if code := multistage.BlockedCode(err); code != "" {
		t.Errorf("occupancy block carries code %q, want none", code)
	}
}

func TestWavelengthContinuityFirstFit(t *testing.T) {
	// Two sessions over the same span must land on different wavelengths.
	net := mustNew(t, 6, 2, 1, 2)
	if _, err := net.Add(wdm.Connection{Source: pw(0, 0), Dests: []wdm.PortWave{pw(2, 0)}}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	id2, err := net.Add(wdm.Connection{Source: pw(0, 1), Dests: []wdm.PortWave{pw(2, 1)}})
	if err != nil {
		t.Fatalf("Add second: %v", err)
	}
	rec, _ := net.RouteRecord(id2)
	// Both ring orientations are free on λ1 for the second session, but
	// first-fit should have packed λ0 cw first, pushing this one to λ1
	// or to the reverse orientation on λ0.
	for _, h := range rec.Out {
		if h.Wave == 0 && ((h.Middle+1)%6 == h.Out) {
			t.Errorf("second session reuses a busy cw λ0 edge: %+v", h)
		}
	}
}

func TestReinstallRoundTrip(t *testing.T) {
	net := mustNew(t, 12, 2, 3, 2)
	c := wdm.Connection{Source: pw(0, 0), Dests: []wdm.PortWave{pw(4, 0), pw(6, 0)}}
	id, err := net.Add(c)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	rec, _ := net.RouteRecord(id)
	before := net.Utilization()
	if err := net.Release(id); err != nil {
		t.Fatalf("Release: %v", err)
	}
	id2, err := net.Reinstall(rec)
	if err != nil {
		t.Fatalf("Reinstall: %v", err)
	}
	rec2, _ := net.RouteRecord(id2)
	if !reflect.DeepEqual(rec, rec2) {
		t.Errorf("reinstalled record differs:\n  %+v\n  %+v", rec, rec2)
	}
	if after := net.Utilization(); !reflect.DeepEqual(before, after) {
		t.Errorf("utilization differs after reinstall: %+v vs %+v", before, after)
	}
	// Double reinstall must refuse: the slots are busy again.
	if _, err := net.Reinstall(rec); err == nil {
		t.Error("Reinstall over a live session succeeded")
	}
}

func TestReinstallRejectsCorruptRecords(t *testing.T) {
	net := mustNew(t, 12, 2, 3, 2)
	id, err := net.Add(wdm.Connection{Source: pw(0, 0), Dests: []wdm.PortWave{pw(3, 0)}})
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	rec, _ := net.RouteRecord(id)
	if err := net.Release(id); err != nil {
		t.Fatalf("Release: %v", err)
	}

	chord := rec
	chord.Out = append([]multistage.RouteHop(nil), rec.Out...)
	chord.Out[1].Out = 7 // 1->7 is not a ring edge
	if _, err := net.Reinstall(chord); err == nil {
		t.Error("Reinstall accepted a non-ring edge")
	}
	jump := rec
	jump.Out = append([]multistage.RouteHop(nil), rec.Out...)
	jump.Out[2].Wave = 1 // breaks wavelength continuity
	if _, err := net.Reinstall(jump); err == nil {
		t.Error("Reinstall accepted a wavelength discontinuity")
	}
	legs := rec
	legs.In = []multistage.RouteLeg{{Middle: 0}}
	if _, err := net.Reinstall(legs); err == nil {
		t.Error("Reinstall accepted input-stage legs")
	}
}

func TestFailureRerouteOtherDirection(t *testing.T) {
	net := mustNew(t, 6, 1, 1, 2)
	id, err := net.Add(wdm.Connection{Source: pw(0, 0), Dests: []wdm.PortWave{pw(2, 0)}})
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := net.FailMiddle(1); err != nil {
		t.Fatalf("FailMiddle: %v", err)
	}
	if got := net.affectedBy(1); !reflect.DeepEqual(got, []int{id}) {
		t.Fatalf("affectedBy = %v", got)
	}
	migrated, dropped, err := net.RerouteAroundReport(1)
	if err != nil || len(dropped) != 0 || len(migrated) != 1 {
		t.Fatalf("reroute: migrated=%v dropped=%v err=%v", migrated, dropped, err)
	}
	if migrated[0].ID != id {
		t.Errorf("id changed across reroute: %+v", migrated[0])
	}
	nodes, _ := net.middlesUsed(id)
	for _, j := range nodes {
		if j == 1 {
			t.Errorf("rerouted session still touches failed node: %v", nodes)
		}
	}
	if err := net.RepairMiddle(1); err != nil {
		t.Fatalf("RepairMiddle: %v", err)
	}
	if got := net.FailedMiddles(); len(got) != 0 {
		t.Errorf("FailedMiddles after repair = %v", got)
	}
}

func TestFailureAtEndpointDrops(t *testing.T) {
	net := mustNew(t, 6, 1, 1, 2)
	id, err := net.Add(wdm.Connection{Source: pw(0, 0), Dests: []wdm.PortWave{pw(2, 0)}})
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := net.FailMiddle(2); err != nil {
		t.Fatalf("FailMiddle: %v", err)
	}
	migrated, dropped, err := net.RerouteAroundReport(2)
	if err != nil || len(migrated) != 0 || !reflect.DeepEqual(dropped, []int{id}) {
		t.Fatalf("endpoint failure: migrated=%v dropped=%v err=%v", migrated, dropped, err)
	}
	if net.Len() != 0 {
		t.Errorf("dropped session still live")
	}
}

func TestAddBranchGrowAndRestore(t *testing.T) {
	net := mustNew(t, 12, 2, 3, 2)
	id, err := net.Add(wdm.Connection{Source: pw(0, 0), Dests: []wdm.PortWave{pw(3, 0)}})
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := net.AddBranch(id, pw(6, 0)); err != nil {
		t.Fatalf("AddBranch: %v", err)
	}
	c, ok := net.Connection(id)
	if !ok || len(c.Dests) != 2 {
		t.Fatalf("grown connection = %+v %v", c, ok)
	}
	routedN, blockedN := net.Stats()
	if routedN != 1 || blockedN != 0 {
		t.Errorf("stats after grow = %d/%d, want 1/0", routedN, blockedN)
	}

	// A grow the splitters cannot place must restore the original.
	tight := mustNew(t, 12, 2, 3, 1)
	tid, err := tight.Add(wdm.Connection{Source: pw(0, 0), Dests: []wdm.PortWave{pw(2, 0)}})
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	before := tight.Utilization()
	err = tight.AddBranch(tid, pw(4, 0))
	if !multistage.IsBlocked(err) {
		t.Fatalf("want blocked grow, got %v", err)
	}
	if rep, ok := multistage.AsBlockReport(err); !ok || rep.Op != "branch" {
		t.Errorf("report = %+v, want Op=branch", rep)
	}
	c, _ = tight.Connection(tid)
	if len(c.Dests) != 1 {
		t.Errorf("original not restored: %+v", c)
	}
	if after := tight.Utilization(); !reflect.DeepEqual(before, after) {
		t.Errorf("utilization changed across failed grow: %+v vs %+v", before, after)
	}
	routedN, blockedN = tight.Stats()
	if routedN != 1 || blockedN != 1 {
		t.Errorf("stats after failed grow = %d/%d, want 1/1", routedN, blockedN)
	}
}

func TestSourceLocalSession(t *testing.T) {
	// All destination slots on the source node: no edges claimed.
	net := mustNew(t, 6, 2, 1, 2)
	id, err := net.Add(wdm.Connection{Source: pw(3, 0), Dests: []wdm.PortWave{pw(3, 0)}})
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if u := net.Utilization(); u.InBusy != 0 || u.OutBusy != 0 {
		t.Errorf("source-local session claims edges: %+v", u)
	}
	rec, _ := net.RouteRecord(id)
	if len(rec.Out) != 0 {
		t.Errorf("source-local record has hops: %+v", rec)
	}
	if err := net.Release(id); err != nil {
		t.Fatalf("Release: %v", err)
	}
	id2, err := net.Reinstall(rec)
	if err != nil {
		t.Fatalf("Reinstall source-local: %v", err)
	}
	_ = id2
}

func TestResetAndStats(t *testing.T) {
	net := mustNew(t, 12, 2, 3, 2)
	var ids []int
	for i := 0; i < 3; i++ {
		id, err := net.Add(wdm.Connection{Source: pw(i, 0), Dests: []wdm.PortWave{pw(i+6, 0)}})
		if err != nil {
			t.Fatalf("Add %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if err := net.Release(id); err != nil {
			t.Fatalf("Release %d: %v", id, err)
		}
	}
	if net.Len() != 0 {
		t.Errorf("Len after releasing every session = %d", net.Len())
	}
	if u := net.Utilization(); u.InBusy != 0 || u.OutBusy != 0 {
		t.Errorf("edges busy after releasing every session: %+v", u)
	}
}

func TestObserverSeesAttempts(t *testing.T) {
	net := mustNew(t, 12, 2, 3, 2)
	var steps []multistage.RouteStep
	net.SetRouteObserver(func(s multistage.RouteStep) { steps = append(steps, s) })
	if _, err := net.Add(wdm.Connection{Source: pw(0, 0), Dests: []wdm.PortWave{pw(4, 0)}}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if len(steps) != 1 || steps[0].State != multistage.MiddleSelected {
		t.Errorf("observer steps = %+v", steps)
	}
}
