package multistage

import (
	"strings"
	"testing"

	"repro/internal/crossbar"
	"repro/internal/wdm"
)

func pw(p, w int) wdm.PortWave {
	return wdm.PortWave{Port: wdm.Port(p), Wave: wdm.Wavelength(w)}
}

func conn(src wdm.PortWave, dests ...wdm.PortWave) wdm.Connection {
	return wdm.Connection{Source: src, Dests: dests}
}

func mustNetwork(t *testing.T, p Params) *Network {
	t.Helper()
	net, err := New(p)
	if err != nil {
		t.Fatalf("New(%+v): %v", p, err)
	}
	return net
}

func mustAdd(t *testing.T, net *Network, c wdm.Connection) int {
	t.Helper()
	id, err := net.Add(c)
	if err != nil {
		t.Fatalf("Add(%v): %v", c, err)
	}
	return id
}

func mustVerify(t *testing.T, net *Network) {
	t.Helper()
	if err := net.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestNormalizeDefaults(t *testing.T) {
	p, err := (Params{N: 8, K: 2, R: 4, Model: wdm.MSW}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if p.M != Theorem1MinM(2, 4) {
		t.Errorf("defaulted M = %d, want theorem 1's %d", p.M, Theorem1MinM(2, 4))
	}
	if p.X != Theorem1BestX(2, 4) {
		t.Errorf("defaulted X = %d, want %d", p.X, Theorem1BestX(2, 4))
	}
}

func TestNormalizeRejectsBadParams(t *testing.T) {
	bad := []Params{
		{N: 0, K: 1, R: 1, Model: wdm.MSW},
		{N: 4, K: 0, R: 2, Model: wdm.MSW},
		{N: 4, K: 1, R: 3, Model: wdm.MSW}, // R does not divide N
		{N: 4, K: 1, R: 0, Model: wdm.MSW},
		{N: 4, K: 1, R: 2, Model: wdm.Model(9)},
		{N: 4, K: 1, R: 2, Model: wdm.MSW, Construction: Construction(9)},
		{N: 4, K: 1, R: 2, Model: wdm.MSW, X: -1},
		{N: 4, K: 1, R: 2, Model: wdm.MSW, M: -1},
	}
	for _, p := range bad {
		if _, err := p.Normalize(); err == nil {
			t.Errorf("Normalize accepted %+v", p)
		}
	}
}

func TestSimpleUnicastEveryConfig(t *testing.T) {
	for _, constr := range []Construction{MSWDominant, MAWDominant} {
		for _, model := range wdm.Models {
			net := mustNetwork(t, Params{N: 4, K: 2, R: 2, Model: model, Construction: constr})
			id := mustAdd(t, net, conn(pw(0, 0), pw(3, 0)))
			mustVerify(t, net)
			if err := net.Release(id); err != nil {
				t.Fatalf("%v/%v: release: %v", constr, model, err)
			}
			mustVerify(t, net)
			if net.Len() != 0 {
				t.Errorf("%v/%v: %d connections after release", constr, model, net.Len())
			}
		}
	}
}

func TestMulticastAcrossModules(t *testing.T) {
	// A multicast spanning both output modules plus a local one.
	for _, constr := range []Construction{MSWDominant, MAWDominant} {
		net := mustNetwork(t, Params{N: 8, K: 2, R: 4, Model: wdm.MSW, Construction: constr})
		mustAdd(t, net, conn(pw(0, 0), pw(1, 0), pw(3, 0), pw(5, 0), pw(7, 0)))
		mustAdd(t, net, conn(pw(4, 1), pw(0, 1), pw(6, 1)))
		mustVerify(t, net)
	}
}

func TestModelRulesEnforcedAtNetworkLevel(t *testing.T) {
	net := mustNetwork(t, Params{N: 4, K: 2, R: 2, Model: wdm.MSW})
	if _, err := net.Add(conn(pw(0, 0), pw(3, 1))); err == nil {
		t.Error("MSW network accepted a wavelength-shifting connection")
	}
	netMSDW := mustNetwork(t, Params{N: 4, K: 2, R: 2, Model: wdm.MSDW})
	if _, err := netMSDW.Add(conn(pw(0, 0), pw(2, 0), pw(3, 1))); err == nil {
		t.Error("MSDW network accepted mixed destination wavelengths")
	}
	mustAdd(t, netMSDW, conn(pw(0, 0), pw(2, 1), pw(3, 1)))
	mustVerify(t, netMSDW)
}

func TestBusySlotRejected(t *testing.T) {
	net := mustNetwork(t, Params{N: 4, K: 1, R: 2, Model: wdm.MSW})
	mustAdd(t, net, conn(pw(0, 0), pw(1, 0)))
	if _, err := net.Add(conn(pw(0, 0), pw(2, 0))); err == nil || IsBlocked(err) {
		t.Errorf("busy source should be inadmissible, not blocked: %v", err)
	}
	if _, err := net.Add(conn(pw(1, 0), pw(1, 0))); err == nil || IsBlocked(err) {
		t.Errorf("busy destination should be inadmissible, not blocked: %v", err)
	}
}

func TestWavelengthShiftThroughOutputStage(t *testing.T) {
	// MAW network, MSW-dominant: the signal stays on λ0 through stages
	// 1-2, and the output module's converters retune per destination.
	net := mustNetwork(t, Params{N: 4, K: 2, R: 2, Model: wdm.MAW, Construction: MSWDominant})
	mustAdd(t, net, conn(pw(0, 0), pw(1, 1), pw(2, 0), pw(3, 1)))
	mustVerify(t, net)
}

// TestFig10Scenario reproduces the paper's Fig. 10: a request that blocks
// at a middle-stage MSW switch (its wavelength is taken on the needed
// links) is routable when the first two stages are MAW and may retune.
func TestFig10Scenario(t *testing.T) {
	base := Params{N: 4, K: 2, R: 2, M: 1, X: 1, Model: wdm.MAW}

	// One middle module only: connection A occupies λ0 on the links
	// in0->mid0 and mid0->out1. Request B is also sourced on λ0 in input
	// module 0 with a destination in output module 1.
	a := conn(pw(0, 0), pw(3, 0))
	b := conn(pw(1, 0), pw(2, 0))

	msw := mustNetwork(t, func() Params { p := base; p.Construction = MSWDominant; return p }())
	mustAdd(t, msw, a)
	if _, err := msw.Add(b); !IsBlocked(err) {
		t.Errorf("MSW-dominant: want blocking, got %v", err)
	}

	maw := mustNetwork(t, func() Params { p := base; p.Construction = MAWDominant; return p }())
	mustAdd(t, maw, a)
	if _, err := maw.Add(b); err != nil {
		t.Errorf("MAW-dominant: same request blocked: %v", err)
	}
	mustVerify(t, maw)
}

// TestTheorem1GapForMAWModel demonstrates the reproduction finding
// documented in EXPERIMENTS.md: under the MSW-dominant construction with
// an MAW output stage, the paper's Theorem 1 bound m = 13 (n = r = 4) is
// NOT sufficient — min(nk, N)-1 = 15 connections can ride wavelength λ0
// into one output module through 13 distinct middle modules, saturating
// λ0 on every link into that module.
func TestTheorem1GapForMAWModel(t *testing.T) {
	n, r, k := 4, 4, 4
	m := Theorem1MinM(n, r) // 13: the paper's claimed-sufficient value
	net := mustNetwork(t, Params{
		N: n * r, K: k, R: r, M: m, X: Theorem1BestX(n, r),
		Model: wdm.MAW, Construction: MSWDominant,
	})

	// 13 unicasts, all sourced on λ0 (the maximum the theorem's own
	// m = 13 middle modules can carry into module 0 on plane λ0), each to
	// a distinct slot of output module 0 (ports 0-3).
	destSlots := make([]wdm.PortWave, 0, m)
	for p := 0; p < 4 && len(destSlots) < m; p++ {
		for w := 0; w < k && len(destSlots) < m; w++ {
			destSlots = append(destSlots, pw(p, w))
		}
	}
	for i := 0; i < m; i++ {
		mustAdd(t, net, conn(pw(i, 0), destSlots[i]))
	}
	mustVerify(t, net)

	// A 14th λ0-sourced request to a free slot of module 0 must block:
	// every middle module's λ0 into module 0 is taken.
	last := conn(pw(m, 0), pw(3, 2))
	if _, err := net.Add(last); !IsBlocked(err) {
		t.Fatalf("expected blocking at the paper's Theorem 1 bound, got %v", err)
	}

	// The corrected sufficient bound routes the same adversarial prefix
	// and the 14th request.
	mFix, xFix := SufficientMinM(MSWDominant, wdm.MAW, n, r, k)
	if mFix <= m {
		t.Fatalf("corrected bound %d not above the paper's %d", mFix, m)
	}
	net2 := mustNetwork(t, Params{
		N: n * r, K: k, R: r, M: mFix, X: xFix,
		Model: wdm.MAW, Construction: MSWDominant,
	})
	for i := 0; i < m; i++ {
		mustAdd(t, net2, conn(pw(i, 0), destSlots[i]))
	}
	mustAdd(t, net2, last)
	mustVerify(t, net2)
}

func TestStatsCount(t *testing.T) {
	net := mustNetwork(t, Params{N: 4, K: 1, R: 2, M: 1, X: 1, Model: wdm.MSW})
	mustAdd(t, net, conn(pw(0, 0), pw(2, 0)))
	_, err := net.Add(conn(pw(1, 0), pw(3, 0))) // same in-link wavelength: blocked
	if !IsBlocked(err) {
		t.Fatalf("want blocked, got %v", err)
	}
	ok, blocked := net.Stats()
	if ok != 1 || blocked != 1 {
		t.Errorf("Stats = (%d, %d), want (1, 1)", ok, blocked)
	}
}

func TestResetAndReuse(t *testing.T) {
	net := mustNetwork(t, Params{N: 4, K: 2, R: 2, Model: wdm.MAW, Construction: MAWDominant})
	mustAdd(t, net, conn(pw(0, 0), pw(1, 1), pw(2, 0)))
	mustAdd(t, net, conn(pw(3, 1), pw(0, 0)))
	net.Reset()
	if net.Len() != 0 {
		t.Fatalf("%d live connections after Reset", net.Len())
	}
	mustVerify(t, net)
	// Full reuse of the same slots.
	mustAdd(t, net, conn(pw(0, 0), pw(1, 1), pw(2, 0)))
	mustVerify(t, net)
}

func TestAddAssignmentRollsBack(t *testing.T) {
	net := mustNetwork(t, Params{N: 4, K: 1, R: 2, M: 1, X: 1, Model: wdm.MSW})
	bad := wdm.Assignment{
		conn(pw(0, 0), pw(2, 0)),
		conn(pw(1, 0), pw(3, 0)), // blocked: single middle, in-link busy
	}
	if _, err := net.AddAssignment(bad); err == nil {
		t.Fatal("assignment should have failed")
	}
	if net.Len() != 0 {
		t.Errorf("rollback left %d connections", net.Len())
	}
	mustVerify(t, net)
}

func TestLiteNetworkBehavesLikeFull(t *testing.T) {
	mk := func(lite bool) *Network {
		return mustNetwork(t, Params{N: 8, K: 2, R: 4, Model: wdm.MAW, Construction: MAWDominant, Lite: lite})
	}
	full, lite := mk(false), mk(true)
	reqs := []wdm.Connection{
		conn(pw(0, 0), pw(1, 1), pw(5, 0)),
		conn(pw(0, 1), pw(0, 0)),
		conn(pw(3, 0), pw(6, 1), pw(7, 0)),
		conn(pw(0, 0), pw(2, 0)), // busy source: both reject
	}
	for i, c := range reqs {
		_, e1 := full.Add(c)
		_, e2 := lite.Add(c)
		if (e1 == nil) != (e2 == nil) {
			t.Errorf("request %d: full err=%v lite err=%v", i, e1, e2)
		}
	}
	if full.Cost() != lite.Cost() {
		t.Errorf("full cost %+v != lite cost %+v", full.Cost(), lite.Cost())
	}
	if err := lite.Verify(); err != nil {
		t.Errorf("lite Verify (linkage only): %v", err)
	}
}

// auditCost counts the elements of the gate-level model Verify builds,
// recursing into nested middle networks.
func auditCost(t *testing.T, net *Network) crossbar.Cost {
	t.Helper()
	om, err := net.buildOptics()
	if err != nil {
		t.Fatal(err)
	}
	var total crossbar.Cost
	for _, mods := range om {
		for _, m := range mods {
			total.Add(m.Cost())
		}
	}
	for _, mid := range net.mids {
		total.Add(auditCost(t, mid))
	}
	return total
}

func TestCostFormulaMatchesAudit(t *testing.T) {
	cases := []Params{
		{N: 4, K: 1, R: 2, Model: wdm.MSW},
		{N: 4, K: 2, R: 2, Model: wdm.MSDW},
		{N: 8, K: 2, R: 4, Model: wdm.MAW},
		{N: 8, K: 2, R: 4, Model: wdm.MAW, Construction: MAWDominant},
		{N: 9, K: 3, R: 3, Model: wdm.MSW, Construction: MAWDominant},
	}
	for _, p := range cases {
		net := mustNetwork(t, p)
		want, err := CostFormula(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := auditCost(t, net); got != want {
			t.Errorf("%+v: audit %+v != formula %+v", p, got, want)
		}
	}
}

func TestPaperCostFormulas(t *testing.T) {
	// Section 3.4's closed forms must agree with the module-sum formula
	// for the MSW-dominant construction.
	for _, model := range wdm.Models {
		for _, c := range []struct{ n, r, k int }{{2, 2, 1}, {4, 4, 2}, {3, 9, 3}, {8, 8, 4}} {
			p := Params{N: c.n * c.r, K: c.k, R: c.r, Model: model, Construction: MSWDominant}
			p, err := p.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			got, err := CostFormula(p)
			if err != nil {
				t.Fatal(err)
			}
			if want := PaperCrosspoints(model, c.n, c.r, p.M, c.k); got.Crosspoints != want {
				t.Errorf("%v n=%d r=%d k=%d m=%d: crosspoints %d, paper %d",
					model, c.n, c.r, c.k, p.M, got.Crosspoints, want)
			}
			if want := PaperConverters(model, c.n, c.r, p.M, c.k); got.Converters != want {
				t.Errorf("%v n=%d r=%d k=%d m=%d: converters %d, paper %d",
					model, c.n, c.r, c.k, p.M, got.Converters, want)
			}
		}
	}
}

func TestMultistageCheaperThanCrossbarForLargeN(t *testing.T) {
	// Table 2's point: O(kN^1.5 log/loglog) beats kN^2 for large N.
	p := Params{N: 1024, K: 2, R: 32, Model: wdm.MSW}
	cost, err := CostFormula(p)
	if err != nil {
		t.Fatal(err)
	}
	crossbarCost := 2 * 1024 * 1024 // kN^2
	if cost.Crosspoints >= crossbarCost {
		t.Errorf("multistage crosspoints %d >= crossbar %d at N=1024", cost.Crosspoints, crossbarCost)
	}
}

func TestUtilization(t *testing.T) {
	net := mustNetwork(t, Params{N: 4, K: 2, R: 2, M: 2, X: 1, Model: wdm.MSW, Lite: true})
	u := net.Utilization()
	if u.InLinkBusy != 0 || u.OutLinkBusy != 0 || u.BusiestInLink != 0 {
		t.Errorf("idle network utilization: %+v", u)
	}
	// One unicast: exactly one in-link wavelength and one out-link
	// wavelength busy. Totals: 2 modules x 2 middles x 2 waves = 8 each.
	mustAdd(t, net, conn(pw(0, 0), pw(3, 0)))
	u = net.Utilization()
	if u.InLinkBusy != 0.125 || u.OutLinkBusy != 0.125 {
		t.Errorf("after one unicast: %+v, want 1/8 busy on both sides", u)
	}
	if u.BusiestInLink != 1 || u.BusiestOutLink != 1 {
		t.Errorf("busiest links: %+v, want 1", u)
	}
	net.Reset()
	if u := net.Utilization(); u.InLinkBusy != 0 {
		t.Errorf("utilization after reset: %+v", u)
	}
}

func TestBlockedErrorWording(t *testing.T) {
	net := mustNetwork(t, Params{N: 4, K: 1, R: 2, M: 1, X: 1, Model: wdm.MSW})
	mustAdd(t, net, conn(pw(0, 0), pw(2, 0)))
	_, err := net.Add(conn(pw(1, 0), pw(3, 0)))
	if err == nil || !strings.Contains(err.Error(), "blocked") {
		t.Errorf("blocking error unclear: %v", err)
	}
}
