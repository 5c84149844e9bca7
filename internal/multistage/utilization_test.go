package multistage

import (
	"math/rand"
	"testing"

	"repro/internal/wdm"
	"repro/internal/workload"
)

// TestUtilizationZeroAfterChurn guards the serving path's occupancy
// gauges against leak bugs: after hundreds of random add/branch/release
// cycles that return the network to empty, every stage's occupancy
// must read exactly zero — no link wavelength, module slot, or busy-set
// entry may survive its connection.
func TestUtilizationZeroAfterChurn(t *testing.T) {
	configs := []Params{
		{N: 16, K: 2, R: 4, Model: wdm.MSW, Construction: MSWDominant, Lite: true},
		{N: 16, K: 2, R: 4, Model: wdm.MAW, Construction: MAWDominant, Lite: true},
		// Below the bound, so some adds block mid-churn: blocked and
		// restored-after-blocked-branch paths must not leak either.
		{N: 16, K: 2, R: 4, M: 3, X: 1, Model: wdm.MSW, Construction: MSWDominant, Lite: true},
	}
	for _, p := range configs {
		p := p
		t.Run(p.Construction.String(), func(t *testing.T) {
			net, err := New(p)
			if err != nil {
				t.Fatal(err)
			}
			churn(t, net, 400, 11)

			if n := net.Len(); n != 0 {
				t.Fatalf("%d connections live after full release", n)
			}
			u := net.Utilization()
			if u.InBusy != 0 || u.OutBusy != 0 {
				t.Fatalf("occupancy leaked: %+v", u)
			}
			if u.InLinkBusy != 0 || u.OutLinkBusy != 0 || u.BusiestInLink != 0 || u.BusiestOutLink != 0 {
				t.Fatalf("utilization not zero on empty network: %+v", u)
			}
			if u.InTotal == 0 || u.OutTotal == 0 {
				t.Fatalf("utilization totals empty: %+v", u)
			}
			for _, table := range [][]int{net.srcBusy, net.dstBusy} {
				for slot, id := range table {
					if id != freeSlot {
						t.Fatalf("busy tables leaked: slot %d held by %d", slot, id)
					}
				}
			}
		})
	}
}

// churn runs cycles random admissible add/branch/release operations and
// then releases everything still live.
func churn(t *testing.T, net *Network, cycles int, seed int64) {
	t.Helper()
	p := net.Params()
	dim := wdm.Dim{N: p.N, K: p.K}
	gen := workload.NewGenerator(seed, p.Model, dim)
	rng := rand.New(rand.NewSource(seed + 1))

	type live struct {
		id   int
		conn wdm.Connection
	}
	var held []live
	busySrc := make(map[wdm.PortWave]bool)
	busyDst := make(map[wdm.PortWave]bool)
	freeSlots := func(busy map[wdm.PortWave]bool) []wdm.PortWave {
		var out []wdm.PortWave
		for port := 0; port < p.N; port++ {
			for w := 0; w < p.K; w++ {
				s := wdm.PortWave{Port: wdm.Port(port), Wave: wdm.Wavelength(w)}
				if !busy[s] {
					out = append(out, s)
				}
			}
		}
		return out
	}
	release := func(i int) {
		v := held[i]
		held = append(held[:i], held[i+1:]...)
		if err := net.Release(v.id); err != nil {
			t.Fatalf("Release(%d): %v", v.id, err)
		}
		delete(busySrc, v.conn.Source)
		for _, d := range v.conn.Dests {
			delete(busyDst, d)
		}
	}

	for i := 0; i < cycles; i++ {
		if len(held) > 0 && rng.Intn(3) == 0 {
			release(rng.Intn(len(held)))
			continue
		}
		c, ok := gen.Connection(freeSlots(busySrc), freeSlots(busyDst), gen.Fanout(p.N/4))
		if !ok {
			if len(held) == 0 {
				t.Fatal("generator starved with empty network")
			}
			release(0)
			continue
		}
		id, err := net.Add(c)
		if IsBlocked(err) {
			continue // below-bound config: fine, slots unchanged
		}
		if err != nil {
			t.Fatalf("Add(%v): %v", c, err)
		}
		held = append(held, live{id: id, conn: c})
		busySrc[c.Source] = true
		for _, d := range c.Dests {
			busyDst[d] = true
		}

		// Occasionally grow the newest session by one free same-λ slot;
		// blocked grows exercise the restore path.
		if rng.Intn(4) == 0 {
			s := &held[len(held)-1]
			if d, ok := growSlot(busyDst, s.conn, p.Model); ok {
				switch err := net.AddBranch(s.id, d); {
				case err == nil:
					s.conn = s.conn.Clone()
					s.conn.Dests = append(s.conn.Dests, d)
					busyDst[d] = true
				case IsBlocked(err):
					// restored: occupancy must be unchanged
				default:
					t.Fatalf("AddBranch(%d, %v): %v", s.id, d, err)
				}
			}
		}
	}
	for len(held) > 0 {
		release(0)
	}
}

// growSlot finds an admissible extra destination slot for c: free, on a
// port the connection does not already reach, wavelength-compatible
// with the model.
func growSlot(busyDst map[wdm.PortWave]bool, c wdm.Connection, model wdm.Model) (wdm.PortWave, bool) {
	used := make(map[wdm.Port]bool, len(c.Dests))
	for _, d := range c.Dests {
		used[d.Port] = true
	}
	for port := 0; port < 16; port++ {
		if used[wdm.Port(port)] {
			continue
		}
		s := wdm.PortWave{Port: wdm.Port(port), Wave: c.Source.Wave}
		if model == wdm.MAW {
			s.Wave = c.Dests[0].Wave
		}
		if !busyDst[s] {
			return s, true
		}
	}
	return wdm.PortWave{}, false
}
