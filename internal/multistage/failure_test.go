package multistage

import (
	"fmt"
	"testing"

	"repro/internal/wdm"
	"repro/internal/workload"
)

func TestFailMiddleExcludedFromRouting(t *testing.T) {
	net := mustNetwork(t, Params{N: 4, K: 1, R: 2, M: 2, X: 1, Model: wdm.MSW, Lite: true})
	if err := net.FailMiddle(0); err != nil {
		t.Fatal(err)
	}
	id := mustAdd(t, net, conn(pw(0, 0), pw(2, 0)))
	if _, uses := net.conns[id].leg(0); uses {
		t.Error("connection routed through a failed middle module")
	}
	if got := net.FailedMiddles(); len(got) != 1 || got[0] != 0 {
		t.Errorf("FailedMiddles = %v", got)
	}
	// With both middles down, everything blocks.
	if err := net.FailMiddle(1); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Add(conn(pw(1, 0), pw(3, 0))); !IsBlocked(err) {
		t.Errorf("want blocked with all middles failed, got %v", err)
	}
	// Repair middle 0: the second request routes through it (middle 1's
	// λ0 link from input module 0 is held by the first connection).
	if err := net.RepairMiddle(0); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, net, conn(pw(1, 0), pw(3, 0)))
}

func TestFailMiddleValidation(t *testing.T) {
	net := mustNetwork(t, Params{N: 4, K: 1, R: 2, M: 2, Model: wdm.MSW, Lite: true})
	if err := net.FailMiddle(99); err == nil {
		t.Error("failed nonexistent module")
	}
	if err := net.RepairMiddle(-1); err == nil {
		t.Error("repaired nonexistent module")
	}
}

func TestRerouteAroundFailure(t *testing.T) {
	// Provision one spare above the sufficient bound, load the network,
	// fail a carrying middle, re-route: everything must be restored with
	// ids intact and the network verifying cleanly.
	suffM, _ := SufficientMinM(MSWDominant, wdm.MSW, 4, 4, 2)
	net := mustNetwork(t, Params{N: 16, K: 2, R: 4, M: suffM + 1, Model: wdm.MSW, Lite: true})

	d := wdm.Dim{N: 16, K: 2}
	gen := workload.NewGenerator(14, wdm.MSW, d)
	freeSrc, freeDst := allSlots(d), allSlots(d)
	var ids []int
	for i := 0; i < 10; i++ {
		c, ok := gen.Connection(freeSrc, freeDst, gen.Fanout(6))
		if !ok {
			break
		}
		id, err := net.Add(c)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		freeSrc = removeSlot(freeSrc, c.Source)
		for _, dd := range c.Normalize().Dests {
			freeDst = removeSlot(freeDst, dd)
		}
	}

	// Fail the busiest middle.
	busiest, most := -1, -1
	for j := range net.params.M {
		if n := len(net.AffectedBy(j)); n > most {
			busiest, most = j, n
		}
	}
	if most == 0 {
		t.Fatal("no middle module carries traffic")
	}
	if err := net.FailMiddle(busiest); err != nil {
		t.Fatal(err)
	}
	restored, dropped, err := net.RerouteAround(busiest)
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 0 {
		t.Fatalf("dropped %v despite a spare middle module", dropped)
	}
	if len(restored) != most {
		t.Errorf("restored %d of %d affected", len(restored), most)
	}
	if got := net.AffectedBy(busiest); len(got) != 0 {
		t.Errorf("connections still on the failed module: %v", got)
	}
	// All original ids still live and releasable.
	for _, id := range ids {
		if _, ok := net.Connection(id); !ok {
			t.Errorf("connection %d lost in re-route", id)
		}
	}
	mustVerify(t, net)
}

// TestRerouteAroundReportBookkeeping checks the migration records a
// control plane consumes: every restored connection reports the failed
// module in From, never in To, and To matches the live route.
func TestRerouteAroundReportBookkeeping(t *testing.T) {
	suffM, _ := SufficientMinM(MSWDominant, wdm.MSW, 4, 4, 2)
	net := mustNetwork(t, Params{N: 16, K: 2, R: 4, M: suffM + 1, Model: wdm.MSW, Lite: true})

	d := wdm.Dim{N: 16, K: 2}
	gen := workload.NewGenerator(23, wdm.MSW, d)
	freeSrc, freeDst := allSlots(d), allSlots(d)
	for i := 0; i < 8; i++ {
		c, ok := gen.Connection(freeSrc, freeDst, gen.Fanout(5))
		if !ok {
			break
		}
		if _, err := net.Add(c); err != nil {
			t.Fatal(err)
		}
		freeSrc = removeSlot(freeSrc, c.Source)
		for _, dd := range c.Normalize().Dests {
			freeDst = removeSlot(freeDst, dd)
		}
	}
	busiest, most := -1, -1
	for j := range net.params.M {
		if n := len(net.AffectedBy(j)); n > most {
			busiest, most = j, n
		}
	}
	if most == 0 {
		t.Fatal("no middle module carries traffic")
	}
	if err := net.FailMiddle(busiest); err != nil {
		t.Fatal(err)
	}
	migrated, dropped, err := net.RerouteAroundReport(busiest)
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 0 || len(migrated) != most {
		t.Fatalf("migrated %d dropped %v, want %d/none", len(migrated), dropped, most)
	}
	for _, mig := range migrated {
		if !containsInt(mig.From, busiest) {
			t.Errorf("migration %d: From %v misses failed module %d", mig.ID, mig.From, busiest)
		}
		if containsInt(mig.To, busiest) {
			t.Errorf("migration %d: To %v still rides failed module %d", mig.ID, mig.To, busiest)
		}
		live, ok := net.MiddlesUsed(mig.ID)
		if !ok {
			t.Fatalf("migration %d: connection not live", mig.ID)
		}
		if fmt.Sprint(live) != fmt.Sprint(mig.To) {
			t.Errorf("migration %d: To %v != live route %v", mig.ID, mig.To, live)
		}
	}
	if _, ok := net.MiddlesUsed(99999); ok {
		t.Error("MiddlesUsed reported ok for an unknown id")
	}
	mustVerify(t, net)
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// TestFailureMarginComposes: m = bound + f tolerates f failures under
// dynamic traffic with zero blocking.
func TestFailureMarginComposes(t *testing.T) {
	const f = 2
	suffM, _ := SufficientMinM(MSWDominant, wdm.MSW, 4, 4, 2)
	net := mustNetwork(t, Params{N: 16, K: 2, R: 4, M: suffM + f, Model: wdm.MSW, Lite: true})
	if err := net.FailMiddle(0); err != nil {
		t.Fatal(err)
	}
	if err := net.FailMiddle(5); err != nil {
		t.Fatal(err)
	}

	d := wdm.Dim{N: 16, K: 2}
	gen := workload.NewGenerator(15, wdm.MSW, d)
	freeSrc, freeDst := allSlots(d), allSlots(d)
	type live struct {
		id   int
		conn wdm.Connection
	}
	var held []live
	for i := 0; i < 1000; i++ {
		if len(held) > 2 && i%3 == 0 {
			v := held[0]
			held = held[1:]
			if err := net.Release(v.id); err != nil {
				t.Fatal(err)
			}
			freeSrc = append(freeSrc, v.conn.Source)
			freeDst = append(freeDst, v.conn.Dests...)
		}
		c, ok := gen.Connection(freeSrc, freeDst, gen.Fanout(8))
		if !ok {
			continue
		}
		id, err := net.Add(c)
		if err != nil {
			t.Fatalf("step %d: blocked with f=%d failures at m=bound+%d: %v", i, f, f, err)
		}
		held = append(held, live{id: id, conn: c.Normalize()})
		freeSrc = removeSlot(freeSrc, c.Source)
		for _, dd := range c.Normalize().Dests {
			freeDst = removeSlot(freeDst, dd)
		}
	}
	mustVerify(t, net)
}
