package crossbar

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/wdm"
)

// TestRandomWalkAgainstOracle drives a long random sequence of Add and
// Release operations — including deliberately inadmissible requests —
// against lite and gate-level switches of the three module shapes a
// Clos network is built from (n x m, r x r, m x n), while an
// independent oracle (a pair of slot-occupancy sets plus the model
// predicate) predicts which requests must be accepted and which slots
// are busy. Every divergence is a bug in one of them; the gate-level
// switches are also optically verified along the way.
func TestRandomWalkAgainstOracle(t *testing.T) {
	shapes := []wdm.Shape{{In: 2, Out: 5, K: 2}, {In: 4, Out: 4, K: 2}, {In: 5, Out: 2, K: 3}}
	for _, sh := range shapes {
		for _, lite := range []bool{false, true} {
			for _, model := range wdm.Models {
				s := NewShape(model, sh)
				if lite {
					s = NewLite(model, sh)
				}
				name := fmt.Sprintf("%v %dx%d k=%d lite=%v", model, sh.In, sh.Out, sh.K, lite)
				randomWalk(t, name, s, rand.New(rand.NewSource(23)))
			}
		}
	}
}

func randomWalk(t *testing.T, name string, s *Switch, rng *rand.Rand) {
	t.Helper()
	sh, model := s.Shape(), s.Model()
	srcBusy := map[wdm.PortWave]bool{}
	dstBusy := map[wdm.PortWave]bool{}
	type held struct {
		id   int
		conn wdm.Connection
	}
	var live []held

	// Ports are drawn from the larger side, so a rectangular switch
	// also sees out-of-range slots.
	ports := max(sh.In, sh.Out)
	randSlot := func() wdm.PortWave {
		return wdm.PortWave{
			Port: wdm.Port(rng.Intn(ports)),
			Wave: wdm.Wavelength(rng.Intn(sh.K)),
		}
	}

	for step := 0; step < 1500; step++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(live))
			v := live[i]
			if err := s.Release(v.id); err != nil {
				t.Fatalf("%s step %d: release: %v", name, step, err)
			}
			live = append(live[:i], live[i+1:]...)
			delete(srcBusy, v.conn.Source)
			for _, dd := range v.conn.Dests {
				delete(dstBusy, dd)
			}
		} else {
			// Build a random (often sloppy) request.
			c := wdm.Connection{Source: randSlot()}
			for f := 1 + rng.Intn(3); f > 0; f-- {
				c.Dests = append(c.Dests, randSlot())
			}

			// Oracle: admissible model-wise, slots free, no duplicates.
			admissible := sh.CheckConnection(model, c) == nil && !srcBusy[c.Source]
			if admissible {
				seen := map[wdm.PortWave]bool{}
				for _, dd := range c.Dests {
					if dstBusy[dd] || seen[dd] {
						admissible = false
						break
					}
					seen[dd] = true
				}
			}

			id, err := s.Add(c)
			if admissible && err != nil {
				t.Fatalf("%s step %d: oracle says admissible, switch rejected %v: %v", name, step, c, err)
			}
			if !admissible && err == nil {
				t.Fatalf("%s step %d: oracle says inadmissible, switch accepted %v", name, step, c)
			}
			if err == nil {
				live = append(live, held{id: id, conn: c.Normalize()})
				srcBusy[c.Source] = true
				for _, dd := range c.Dests {
					dstBusy[dd] = true
				}
			}
		}

		// Every slot's occupancy, plus a ring of out-of-range slots
		// that must read free.
		for p := -1; p <= ports; p++ {
			for w := -1; w <= sh.K; w++ {
				slot := wdm.PortWave{Port: wdm.Port(p), Wave: wdm.Wavelength(w)}
				if got, want := s.SourceBusy(slot), sh.InRangeSource(slot) && srcBusy[slot]; got != want {
					t.Fatalf("%s step %d: SourceBusy(%v) = %v, want %v", name, step, slot, got, want)
				}
				if got, want := s.DestBusy(slot), sh.InRangeDest(slot) && dstBusy[slot]; got != want {
					t.Fatalf("%s step %d: DestBusy(%v) = %v, want %v", name, step, slot, got, want)
				}
			}
		}

		if !s.Lite() && step%100 == 0 {
			if _, err := s.Verify(); err != nil {
				t.Fatalf("%s step %d: optical verify: %v", name, step, err)
			}
		}
	}
	if !s.Lite() {
		if _, err := s.Verify(); err != nil {
			t.Fatalf("%s final verify: %v", name, err)
		}
	}
}
