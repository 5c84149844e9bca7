package multistage

import (
	"math/rand"
	"testing"

	"repro/internal/wdm"
	"repro/internal/workload"
)

// TestRepackRecoversBlockedRequests runs random traffic on a network
// with half the sufficient middle-stage count: plain Add must block
// somewhere, and AddWithRepack must recover at least some of those
// blocks (rearrangeable operation beats strict-sense on the same
// hardware). After every repack the network must verify cleanly.
func TestRepackRecoversBlockedRequests(t *testing.T) {
	suffM, _ := SufficientMinM(MSWDominant, wdm.MSW, 4, 4, 2)
	net := mustNetwork(t, Params{
		N: 16, K: 2, R: 4, M: suffM / 2, Model: wdm.MSW, Lite: true,
	})
	d := wdm.Dim{N: 16, K: 2}
	gen := workload.NewGenerator(9, wdm.MSW, d)
	rng := rand.New(rand.NewSource(10))

	freeSrc := allSlots(d)
	freeDst := allSlots(d)
	type live struct {
		id   int
		conn wdm.Connection
	}
	var held []live
	blocked, repacked := 0, 0
	for i := 0; i < 1200; i++ {
		// Random departures keep occupancy moderate.
		if len(held) > 0 && rng.Intn(3) == 0 {
			v := held[rng.Intn(len(held))]
			if err := net.Release(v.id); err != nil {
				t.Fatal(err)
			}
			for j := range held {
				if held[j].id == v.id {
					held = append(held[:j], held[j+1:]...)
					break
				}
			}
			freeSrc = append(freeSrc, v.conn.Source)
			freeDst = append(freeDst, v.conn.Dests...)
		}
		c, ok := gen.Connection(freeSrc, freeDst, gen.Fanout(8))
		if !ok {
			continue
		}
		id, did, err := net.AddWithRepack(c)
		if err != nil {
			if !IsBlocked(err) {
				t.Fatalf("step %d: non-blocking failure: %v", i, err)
			}
			blocked++
			continue
		}
		if did {
			repacked++
			if err := net.Verify(); err != nil {
				t.Fatalf("step %d: verify after repack: %v", i, err)
			}
		}
		held = append(held, live{id: id, conn: c})
		freeSrc = removeSlot(freeSrc, c.Source)
		for _, dd := range c.Dests {
			freeDst = removeSlot(freeDst, dd)
		}
	}
	if repacked == 0 {
		t.Error("repacking never triggered — test scenario too easy")
	}
	t.Logf("repacked %d requests; %d remained blocked even with rearrangement", repacked, blocked)
}

// TestRepackDeterministicScenario is a hand-derived blocked-but-
// rearrangeable state (N=6, k=1, r=3 modules of 2 ports, m=2, x=1):
//
//	A: 1->5 rides mid0 (links in0->m0, m0->out2)
//	D: 4->0 rides mid0 (in2->m0, m0->out0)
//	B: 5->2 rides mid1 (in2->m1, m1->out1; mid0's in-link was taken by D)
//	C: 0->3 then finds mid0's input link taken by A and mid1's output
//	        link to module 1 taken by B: strict-sense BLOCKED,
//
// yet the per-plane bipartite demand has maximum degree 2 = m, so a
// 2-coloring exists (König): rearrangement must route all four. Existing
// connections must keep their ids and remain individually releasable.
func TestRepackDeterministicScenario(t *testing.T) {
	net := mustNetwork(t, Params{N: 6, K: 1, R: 3, M: 2, X: 1, Model: wdm.MSW, Lite: true})
	idA := mustAdd(t, net, conn(pw(1, 0), pw(5, 0)))
	idD := mustAdd(t, net, conn(pw(4, 0), pw(0, 0)))
	idB := mustAdd(t, net, conn(pw(5, 0), pw(2, 0)))

	c := conn(pw(0, 0), pw(3, 0))
	if _, err := net.Add(c); !IsBlocked(err) {
		t.Fatalf("plain Add should block, got %v", err)
	}
	routed0, blocked0 := net.Stats()
	id, did, err := net.AddWithRepack(c)
	if err != nil {
		t.Fatalf("repack failed on a König-colorable demand: %v", err)
	}
	if !did {
		t.Fatal("repack path not taken")
	}
	// One call, one outcome: the repack's re-routes are not new routes.
	if r, b := net.Stats(); r != routed0+1 || b != blocked0 {
		t.Errorf("Stats after a repacked AddWithRepack = %d routed, %d blocked; want %d, %d", r, b, routed0+1, blocked0)
	}
	for _, want := range []int{idA, idD, idB, id} {
		if _, ok := net.Connection(want); !ok {
			t.Errorf("connection id %d lost across repack", want)
		}
	}
	if err := net.Verify(); err != nil {
		t.Fatal(err)
	}
	for _, rid := range []int{idA, idD, idB, id} {
		if err := net.Release(rid); err != nil {
			t.Errorf("release %d: %v", rid, err)
		}
	}
	if net.Len() != 0 {
		t.Errorf("%d live after releases", net.Len())
	}
	if err := net.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestRepackFailureLeavesStateUntouched: when even rearrangement cannot
// fit the request, the live connections must be exactly as before.
func TestRepackFailureLeavesStateUntouched(t *testing.T) {
	// Fig. 10 situation: m=1, both connections need λ0 on the same
	// input-stage link — no ordering fixes that.
	net := mustNetwork(t, Params{N: 4, K: 2, R: 2, M: 1, X: 1, Model: wdm.MAW, Lite: true})
	idA := mustAdd(t, net, conn(pw(0, 0), pw(3, 0)))
	before := net.Connections()
	_, did, err := net.AddWithRepack(conn(pw(1, 0), pw(2, 0)))
	if !IsBlocked(err) || did {
		t.Fatalf("want un-repackable block, got did=%v err=%v", did, err)
	}
	after := net.Connections()
	if len(after) != len(before) {
		t.Fatalf("connection count changed: %d -> %d", len(before), len(after))
	}
	if _, ok := net.Connection(idA); !ok {
		t.Error("original connection lost")
	}
	if err := net.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestRepackPlansAroundFailedMiddles: the rearrangement plan must see
// the live network's failed middles, or a plan that needs one succeeds
// on the scratch network and then blocks while being applied. Here the
// plan routes the request through middle 0 and moves A to middle 1,
// which is out of service; AddWithRepack must report the block and
// leave A in place.
func TestRepackPlansAroundFailedMiddles(t *testing.T) {
	net := mustNetwork(t, Params{N: 4, K: 1, R: 2, M: 2, X: 1, Model: wdm.MSW, Lite: true})
	if err := net.FailMiddle(1); err != nil {
		t.Fatal(err)
	}
	idA := mustAdd(t, net, conn(pw(0, 0), pw(2, 0)))
	_, did, err := net.AddWithRepack(conn(pw(1, 0), pw(3, 0)))
	if !IsBlocked(err) || did {
		t.Fatalf("want a block with no rearrangement, got did=%v err=%v", did, err)
	}
	if got, ok := net.MiddlesUsed(idA); !ok || len(got) != 1 || got[0] != 0 {
		t.Fatalf("connection A rides %v (live %v), want middle 0", got, ok)
	}
	mustVerify(t, net)
}

// TestRepackPlainSuccessPassesThrough: when Add succeeds directly,
// AddWithRepack must not rearrange.
func TestRepackPlainSuccessPassesThrough(t *testing.T) {
	net := mustNetwork(t, Params{N: 8, K: 2, R: 4, Model: wdm.MAW, Lite: true})
	_, did, err := net.AddWithRepack(conn(pw(0, 0), pw(7, 1)))
	if err != nil || did {
		t.Errorf("plain add: did=%v err=%v", did, err)
	}
}

func allSlots(d wdm.Dim) []wdm.PortWave {
	out := make([]wdm.PortWave, 0, d.Slots())
	for p := 0; p < d.N; p++ {
		for w := 0; w < d.K; w++ {
			out = append(out, wdm.PortWave{Port: wdm.Port(p), Wave: wdm.Wavelength(w)})
		}
	}
	return out
}

func removeSlot(slots []wdm.PortWave, s wdm.PortWave) []wdm.PortWave {
	for i, v := range slots {
		if v == s {
			slots[i] = slots[len(slots)-1]
			return slots[:len(slots)-1]
		}
	}
	return slots
}
