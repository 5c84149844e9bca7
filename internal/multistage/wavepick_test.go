package multistage

import (
	"testing"

	"repro/internal/wdm"
)

func TestWavePickPolicies(t *testing.T) {
	// MAW-dominant, k=4: route three connections from the same input
	// module through the same middle link and observe which wavelengths
	// they claim under each policy.
	mk := func(pick WavePick) *Network {
		return mustNetwork(t, Params{
			N: 4, K: 4, R: 2, M: 1, X: 1, Model: wdm.MAW,
			Construction: MAWDominant, WavePick: pick, Lite: true,
		})
	}
	claimed := func(net *Network) []int {
		var waves []int
		for w, v := range net.inLink.link(0, 0) {
			if v != freeLink {
				waves = append(waves, w)
			}
		}
		return waves
	}

	// FirstFree: consecutive low wavelengths.
	ff := mk(FirstFree)
	mustAdd(t, ff, conn(pw(0, 0), pw(2, 0)))
	mustAdd(t, ff, conn(pw(0, 1), pw(2, 1)))
	got := claimed(ff)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("FirstFree claimed %v, want [0 1]", got)
	}

	// MostUsed packs onto the busiest plane: after the first claim on
	// λ0, the second also prefers λ0 elsewhere; on the *same* link λ0 is
	// taken, so it takes the next but a connection from the other module
	// stays on λ0.
	mu := mk(MostUsed)
	mustAdd(t, mu, conn(pw(0, 0), pw(2, 0)))
	mustAdd(t, mu, conn(pw(2, 0), pw(0, 0))) // other input module
	if mu.waveUse[0] < 3 {                   // in0->m0, m0->out1, in1->m0 (+ m0->out0) share λ0 under packing
		t.Errorf("MostUsed did not pack onto λ0: waveUse = %v", mu.waveUse)
	}

	// LeastUsed spreads: the second connection's links avoid λ0.
	lu := mk(LeastUsed)
	mustAdd(t, lu, conn(pw(0, 0), pw(2, 0)))
	mustAdd(t, lu, conn(pw(2, 1), pw(0, 1)))
	use0 := lu.waveUse[0]
	total := 0
	for _, v := range lu.waveUse {
		total += v
	}
	if use0 == total {
		t.Errorf("LeastUsed concentrated everything on λ0: %v", lu.waveUse)
	}
}

func TestWaveUseCountersBalanced(t *testing.T) {
	net := mustNetwork(t, Params{
		N: 8, K: 2, R: 4, Model: wdm.MAW, Construction: MAWDominant,
		WavePick: MostUsed, Lite: true,
	})
	ids := []int{}
	for i := 0; i < 6; i++ {
		id, err := net.Add(conn(pw(i, 0), pw(7-i, 1)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if err := net.Release(id); err != nil {
			t.Fatal(err)
		}
	}
	for w, v := range net.waveUse {
		if v != 0 {
			t.Errorf("waveUse[%d] = %d after releasing everything", w, v)
		}
	}
}

func TestWavePickString(t *testing.T) {
	if FirstFree.String() != "first-free" || MostUsed.String() != "most-used" || LeastUsed.String() != "least-used" {
		t.Error("policy names wrong")
	}
}
