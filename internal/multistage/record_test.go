package multistage

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"repro/internal/wdm"
	"repro/internal/workload"
)

// TestRouteRecordRoundTrip loads a network, exports every live route,
// replays the records into an empty network of the same parameters, and
// checks the replayed fabric carries identical connections and routes.
// This is the crash-recovery primitive: replay must never search, so it
// must never block.
func TestRouteRecordRoundTrip(t *testing.T) {
	p := Params{N: 16, K: 2, R: 4, Model: wdm.MSW, Lite: true}
	net := mustNetwork(t, p)

	d := wdm.Dim{N: 16, K: 2}
	gen := workload.NewGenerator(5, wdm.MSW, d)
	freeSrc, freeDst := allSlots(d), allSlots(d)
	var ids []int
	for i := 0; i < 12; i++ {
		c, ok := gen.Connection(freeSrc, freeDst, gen.Fanout(5))
		if !ok {
			break
		}
		ids = append(ids, mustAdd(t, net, c))
		freeSrc = remove(freeSrc, c.Source)
		for _, dd := range c.Normalize().Dests {
			freeDst = remove(freeDst, dd)
		}
	}
	if len(ids) < 8 {
		t.Fatalf("generator produced only %d connections", len(ids))
	}

	records := make(map[int]RouteRecord, len(ids))
	for _, id := range ids {
		rec, ok := net.RouteRecord(id)
		if !ok {
			t.Fatalf("RouteRecord(%d) missing", id)
		}
		records[id] = rec
	}
	if _, ok := net.RouteRecord(99999); ok {
		t.Error("RouteRecord invented a record for an unknown id")
	}

	replay := mustNetwork(t, p)
	newIDs := make(map[int]int, len(ids))
	for _, id := range ids {
		nid, err := replay.Reinstall(records[id])
		if err != nil {
			t.Fatalf("Reinstall(%d): %v", id, err)
		}
		newIDs[id] = nid
	}
	for _, id := range ids {
		want, _ := net.Connection(id)
		got, ok := replay.Connection(newIDs[id])
		if !ok {
			t.Fatalf("replayed connection %d vanished", id)
		}
		if !reflect.DeepEqual(want.Normalize(), got.Normalize()) {
			t.Errorf("connection %d: replayed %v, want %v", id, got, want)
		}
		rec, _ := replay.RouteRecord(newIDs[id])
		if !reflect.DeepEqual(rec, records[id]) {
			t.Errorf("connection %d: replayed route %+v, want %+v", id, rec, records[id])
		}
	}

	// Replayed routes are live: release one and its slots free up.
	if err := replay.Release(newIDs[ids[0]]); err != nil {
		t.Fatalf("Release replayed connection: %v", err)
	}
	if _, err := replay.Reinstall(records[ids[0]]); err != nil {
		t.Errorf("re-reinstall after release: %v", err)
	}
}

func TestReinstallConflictsDetected(t *testing.T) {
	p := Params{N: 4, K: 1, R: 2, M: 2, X: 1, Model: wdm.MSW, Lite: true}
	net := mustNetwork(t, p)
	id := mustAdd(t, net, conn(pw(0, 0), pw(2, 0)))
	rec, _ := net.RouteRecord(id)
	// Same record into the same network: source slot busy.
	if _, err := net.Reinstall(rec); err == nil {
		t.Fatal("Reinstall over a busy source slot succeeded")
	}
}

func TestRouteRecordDecodeValidation(t *testing.T) {
	k1 := Params{N: 4, K: 1, R: 2, M: 2, X: 1, Model: wdm.MSW, Lite: true}
	k2 := Params{N: 4, K: 2, R: 2, M: 2, X: 1, Model: wdm.MSW, Lite: true}
	leg := func(j, w int) RouteLeg { return RouteLeg{Middle: j, Wave: wdm.Wavelength(w)} }
	hop := func(j, p, w int) RouteHop { return RouteHop{Middle: j, Out: p, Wave: wdm.Wavelength(w)} }
	bad := []struct {
		p   Params
		rec RouteRecord
	}{
		{k1, RouteRecord{Conn: "not a connection"}},
		{k1, RouteRecord{Conn: "0.0>2.0"}}, // no input legs
		{k1, RouteRecord{Conn: "0.0>2.0", In: []RouteLeg{leg(9, 0)}}},
		{k1, RouteRecord{Conn: "0.0>2.0", In: []RouteLeg{leg(0, 5)}}},
		{k1, RouteRecord{Conn: "0.0>2.0", In: []RouteLeg{leg(0, 0), leg(0, 0)}}},
		{k1, RouteRecord{Conn: "0.0>2.0", In: []RouteLeg{leg(0, 0)},
			Out: []RouteHop{hop(1, 1, 0)}}}, // hop with no leg
		{k1, RouteRecord{Conn: "0.0>2.0", In: []RouteLeg{leg(0, 0)},
			Out: []RouteHop{hop(0, 7, 0)}}}, // out module range
		// Never delivers to 1.0: no hop reaches output module 0.
		{k1, RouteRecord{Conn: "0.0>1.0,2.0", In: []RouteLeg{leg(0, 0)},
			Out: []RouteHop{hop(0, 1, 0)}}},
		// An MSW-dominant input module cannot retune λ0 to λ1.
		{k2, RouteRecord{Conn: "0.0>2.0", In: []RouteLeg{leg(0, 1)},
			Out: []RouteHop{hop(0, 1, 1)}}},
		// Middle 1's leg feeds no hop.
		{k1, RouteRecord{Conn: "0.0>2.0", In: []RouteLeg{leg(0, 0), leg(1, 0)},
			Out: []RouteHop{hop(0, 1, 0)}}},
		// Output module 0 holds no destination.
		{k1, RouteRecord{Conn: "0.0>2.0", In: []RouteLeg{leg(0, 0)},
			Out: []RouteHop{hop(0, 0, 0), hop(0, 1, 0)}}},
		// Output module 1 reached from two middles.
		{k1, RouteRecord{Conn: "0.0>2.0", In: []RouteLeg{leg(0, 0), leg(1, 0)},
			Out: []RouteHop{hop(0, 1, 0), hop(1, 1, 0)}}},
	}
	// AWG-Clos: a grating carries 0->1 on λ1 only, and serves one
	// output module per middle.
	awg := Params{N: 4, K: 2, R: 2, M: 3, X: 2, Model: wdm.MAW, Construction: AWGClos}
	bad = append(bad, []struct {
		p   Params
		rec RouteRecord
	}{
		{awg, RouteRecord{Conn: "0.0>2.0", In: []RouteLeg{leg(0, 0)},
			Out: []RouteHop{hop(0, 1, 0)}}}, // λ0, not the class λ1
		{awg, RouteRecord{Conn: "0.0>2.0", In: []RouteLeg{leg(0, 0)},
			Out: []RouteHop{hop(0, 1, 1)}}}, // leg off λ1
		// Output modules 0 and 2 share class λ0 from input module 0, but
		// one grating port cannot feed both.
		{Params{N: 8, K: 2, R: 4, M: 4, X: 4, Model: wdm.MAW, Construction: AWGClos},
			RouteRecord{Conn: "0.0>1.0,4.0", In: []RouteLeg{leg(0, 0)},
				Out: []RouteHop{hop(0, 0, 0), hop(0, 2, 0)}}},
	}...)
	for i, tc := range bad {
		net := mustNetwork(t, tc.p)
		if _, err := net.Reinstall(tc.rec); err == nil {
			t.Errorf("case %d: bad record %+v reinstalled", i, tc.rec)
		}
	}
}

// FuzzReinstall decodes arbitrary bytes as a route record and reinstalls
// it into an empty gate-level network of every construction: the record
// must be refused, or install cleanly (Verify passes) and release
// without a trace (no live connection, no busy link, Verify passes).
// A record that installs must then be refused by a network with exactly
// one failed middle if and only if its route rides that middle.
func FuzzReinstall(f *testing.F) {
	for _, seed := range []string{
		`{"conn":"0.0>1.0,2.0","in":[{"middle":0,"wave":0}],"out":[{"middle":0,"out":1,"wave":0}]}`,
		`{"conn":"0.0>2.0","in":[{"middle":0,"wave":1}],"out":[{"middle":0,"out":1,"wave":1}]}`,
		`{"conn":"0.0>2.0","in":[{"middle":0,"wave":0},{"middle":1,"wave":0}],"out":[{"middle":0,"out":1,"wave":0}]}`,
		`{"conn":"0.0>2.0","in":[{"middle":0,"wave":0}],"out":[{"middle":0,"out":0,"wave":0},{"middle":0,"out":1,"wave":0}]}`,
		`{"conn":"0.0>2.0","in":[{"middle":0,"wave":0},{"middle":1,"wave":0}],"out":[{"middle":0,"out":1,"wave":0},{"middle":1,"out":1,"wave":0}]}`,
		`{"conn":"0.0>1.0,2.0","in":[{"middle":0,"wave":0}],"out":[{"middle":0,"out":0,"wave":0},{"middle":0,"out":1,"wave":0}]}`,
		`{"conn":"1.1>0.0,3.1","in":[{"middle":2,"wave":1}],"out":[{"middle":2,"out":0,"wave":1},{"middle":2,"out":1,"wave":0}]}`,
		// AWG-Clos routes 0->1 on λ1 only: this record must be refused there.
		`{"conn":"0.0>2.0","in":[{"middle":0,"wave":0}],"out":[{"middle":0,"out":1,"wave":0}]}`,
		// Rides middles 1 and 2: refused while either has failed.
		`{"conn":"0.0>1.0,2.0","in":[{"middle":1,"wave":0},{"middle":2,"wave":0}],"out":[{"middle":1,"out":0,"wave":0},{"middle":2,"out":1,"wave":0}]}`,
	} {
		f.Add([]byte(seed))
	}
	var nets []Params
	for _, model := range wdm.Models {
		nets = append(nets,
			Params{N: 4, K: 2, R: 2, M: 3, X: 2, Model: model, Construction: MSWDominant},
			Params{N: 4, K: 2, R: 2, M: 3, X: 2, Model: model, Construction: MAWDominant})
	}
	nets = append(nets, Params{N: 4, K: 2, R: 2, M: 3, X: 2, Model: wdm.MAW, Construction: AWGClos})
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec RouteRecord
		if json.Unmarshal(data, &rec) != nil {
			return
		}
		for _, p := range nets {
			net := mustNetwork(t, p)
			id, err := net.Reinstall(rec)
			if err != nil {
				continue
			}
			if err := net.Verify(); err != nil {
				t.Fatalf("%v/%v: reinstalled %+v fails Verify: %v", p.Construction, p.Model, rec, err)
			}
			used, _ := net.MiddlesUsed(id)
			for j := 0; j < p.M; j++ {
				failed := mustNetwork(t, p)
				if err := failed.FailMiddle(j); err != nil {
					t.Fatal(err)
				}
				_, err := failed.Reinstall(rec)
				if rides := slices.Contains(used, j); rides != (err != nil) {
					t.Fatalf("%v/%v: route on middles %v, middle %d failed: Reinstall err %v", p.Construction, p.Model, used, j, err)
				}
			}
			if err := net.Release(id); err != nil {
				t.Fatalf("%v/%v: release: %v", p.Construction, p.Model, err)
			}
			if u := net.Utilization(); net.Len() != 0 || u.InBusy != 0 || u.OutBusy != 0 {
				t.Fatalf("%v/%v: after release: %d live, %d+%d busy link wavelengths", p.Construction, p.Model, net.Len(), u.InBusy, u.OutBusy)
			}
			if err := net.Verify(); err != nil {
				t.Fatalf("%v/%v: Verify after release: %v", p.Construction, p.Model, err)
			}
		}
	})
}

func remove(slots []wdm.PortWave, s wdm.PortWave) []wdm.PortWave {
	out := slots[:0]
	for _, x := range slots {
		if x != s {
			out = append(out, x)
		}
	}
	return out
}
