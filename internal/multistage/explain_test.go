package multistage

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/wdm"
	"repro/internal/workload"
)

// TestExplainMatchesAdd is the drift guard between the dry-run
// explanation and the real router: on a long random workload against an
// undersized network of each Clos construction, Explain's verdict must
// always agree with what Add then does. For routable requests the
// chosen middles must carry the connection exactly as predicted; for
// blocked ones the rounds and residual must be those of Add's report.
func TestExplainMatchesAdd(t *testing.T) {
	for _, tc := range []struct {
		name  string
		model wdm.Model
		con   Construction
	}{
		{"msw", wdm.MSW, MSWDominant},
		{"maw", wdm.MAW, MAWDominant},
		{"awg", wdm.MAW, AWGClos},
	} {
		t.Run(tc.name, func(t *testing.T) {
			explainMatchesAdd(t, Params{
				N: 16, K: 2, R: 4, M: 4, X: 2, Model: tc.model, Construction: tc.con, Lite: true,
			})
		})
	}
}

func explainMatchesAdd(t *testing.T, p Params) {
	net := mustNetwork(t, p)
	d := wdm.Dim{N: p.N, K: p.K}
	gen := workload.NewGenerator(12, p.Model, d)
	rng := rand.New(rand.NewSource(13))

	freeSrc, freeDst := allSlots(d), allSlots(d)
	type live struct {
		id   int
		conn wdm.Connection
	}
	var held []live
	checked, blocked := 0, 0
	for i := 0; i < 800; i++ {
		if len(held) > 0 && rng.Intn(3) == 0 {
			v := held[0]
			held = held[1:]
			if err := net.Release(v.id); err != nil {
				t.Fatal(err)
			}
			freeSrc = append(freeSrc, v.conn.Source)
			freeDst = append(freeDst, v.conn.Dests...)
		}
		c, ok := gen.Connection(freeSrc, freeDst, gen.Fanout(6))
		if !ok {
			continue
		}
		ex, err := net.Explain(c)
		if err != nil {
			t.Fatalf("step %d: explain: %v", i, err)
		}
		id, err := net.Add(c)
		switch {
		case err == nil:
			if !ex.Routable {
				t.Fatalf("step %d: Explain said blocked, Add routed %v\n%s", i, c, ex)
			}
			// The middles predicted must be exactly the ones carrying it.
			rc := net.conns[id]
			if len(rc.legs) != len(ex.Rounds) {
				t.Fatalf("step %d: predicted %d middles, used %d", i, len(ex.Rounds), len(rc.legs))
			}
			for _, cand := range ex.Rounds {
				if _, used := rc.leg(cand.Middle); !used {
					t.Fatalf("step %d: predicted middle %d unused", i, cand.Middle)
				}
			}
			held = append(held, live{id: id, conn: c.Normalize()})
			freeSrc = removeSlot(freeSrc, c.Source)
			for _, dd := range c.Normalize().Dests {
				freeDst = removeSlot(freeDst, dd)
			}
		case IsBlocked(err):
			if ex.Routable {
				t.Fatalf("step %d: Explain said routable, Add blocked %v\n%s", i, c, ex)
			}
			rep, _ := AsBlockReport(err)
			explainAgreesWithReport(t, ex, rep)
			blocked++
		default:
			t.Fatalf("step %d: %v", i, err)
		}
		checked++
	}
	if checked < 400 || blocked == 0 {
		t.Fatalf("only %d requests exercised, %d blocked", checked, blocked)
	}
}

// explainAgreesWithReport asserts that a blocked explanation chose the
// rounds and left the residual that Add's block report records.
func explainAgreesWithReport(t *testing.T, ex *Explanation, rep *BlockReport) {
	t.Helper()
	if len(ex.Rounds) != rep.SplitsUsed || !slices.Equal(ex.Residual, rep.Uncovered) {
		t.Fatalf("Explain chose %d middles leaving %v; Add used %d splits leaving %v\n%s%s",
			len(ex.Rounds), ex.Residual, rep.SplitsUsed, rep.Uncovered, ex, rep)
	}
	for _, cand := range ex.Rounds {
		md := rep.Middles[cand.Middle]
		if md.State != MiddleSelected || !slices.Equal(md.Serves, cand.Serves) {
			t.Fatalf("Explain chose middle %d for %v; Add's report has it %s serving %v\n%s%s",
				cand.Middle, cand.Serves, md.State, md.Serves, ex, rep)
		}
	}
}

// TestExplainAWGSplitLimit: an AWG-Clos middle serves one destination
// module, so a request to more modules than X blocks before any middle
// is chosen. Explain once kept its own copy of the AWG search and
// reported two middles chosen with one module left over, where Add
// blocked with no split used and every module uncovered.
func TestExplainAWGSplitLimit(t *testing.T) {
	net := mustNetwork(t, Params{N: 16, K: 2, R: 4, X: 2, Model: wdm.MAW, Construction: AWGClos, Lite: true})
	c := conn(pw(0, 0), pw(1, 0), pw(5, 1), pw(9, 0)) // output modules 0, 1, 2
	ex, err := net.Explain(c)
	if err != nil {
		t.Fatal(err)
	}
	_, err = net.Add(c)
	rep, ok := AsBlockReport(err)
	if !ok {
		t.Fatalf("Add = %v, want a blocked request with a report", err)
	}
	if ex.Routable || rep.SplitsUsed != 0 || !slices.Equal(rep.Uncovered, []int{0, 1, 2}) {
		t.Fatalf("routable=%v, report used %d splits leaving %v; want a block with no split and all three modules left",
			ex.Routable, rep.SplitsUsed, rep.Uncovered)
	}
	explainAgreesWithReport(t, ex, rep)
}

func TestExplainDoesNotMutate(t *testing.T) {
	net := mustNetwork(t, Params{N: 8, K: 2, R: 4, Model: wdm.MAW, Lite: true})
	mustAdd(t, net, conn(pw(0, 0), pw(5, 1)))
	before, _ := net.Stats()
	u := net.Utilization()
	if _, err := net.Explain(conn(pw(1, 0), pw(6, 0), pw(2, 1))); err != nil {
		t.Fatal(err)
	}
	after, _ := net.Stats()
	if before != after || net.Utilization() != u || net.Len() != 1 {
		t.Error("Explain mutated network state")
	}
}

func TestExplainRejectsInadmissible(t *testing.T) {
	net := mustNetwork(t, Params{N: 8, K: 2, R: 4, Model: wdm.MSW, Lite: true})
	mustAdd(t, net, conn(pw(0, 0), pw(5, 0)))
	if _, err := net.Explain(conn(pw(0, 0), pw(6, 0))); err == nil {
		t.Error("busy source accepted")
	}
	if _, err := net.Explain(conn(pw(1, 0), pw(5, 1))); err == nil {
		t.Error("MSW wavelength shift accepted")
	}
}

func TestExplainStringReadable(t *testing.T) {
	net := mustNetwork(t, Params{N: 4, K: 1, R: 2, M: 1, X: 1, Model: wdm.MSW, Lite: true})
	mustAdd(t, net, conn(pw(0, 0), pw(2, 0)))
	ex, err := net.Explain(conn(pw(1, 0), pw(3, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if ex.Routable {
		t.Fatal("expected a blocked explanation")
	}
	s := ex.String()
	for _, want := range []string{"BLOCKED", "available middles", "uncovered"} {
		if !strings.Contains(s, want) {
			t.Errorf("explanation missing %q:\n%s", want, s)
		}
	}
}
