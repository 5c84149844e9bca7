package multistage

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"repro/internal/wdm"
)

// TestRoutePins pins every routing decision the router makes. Each case
// drives a seeded, admissible-only stream of connects, branches,
// disconnects, route-record round trips, middle failures with
// re-routing, and repacking connects through one fabric, and hashes
// what the caller can observe: each outcome, the RouteRecord of every
// routed connect or branch, each BlockReport's SplitsUsed and
// Uncovered, every RouteStep the observer receives, and periodically
// the records of all live connections. The digests were recorded from
// the map-based router this package used before the allocation-free
// route search, so a match means that rewrite left every choice of
// middle module and link wavelength unchanged.
//
// Each fabric runs at its sufficient bound (M=0) and at a lower m where
// blocks occur.
func TestRoutePins(t *testing.T) {
	mswN := Params{N: 64, K: 2, R: 8, Model: wdm.MSW, Lite: true}
	mawN := Params{N: 64, K: 2, R: 8, Model: wdm.MAW, Construction: MAWDominant, Lite: true}
	awgN := Params{N: 32, K: 2, R: 4, Model: wdm.MAW, Construction: AWGClos, Lite: true}
	with := func(p Params, m int, s Strategy, pick WavePick) Params {
		p.M, p.Strategy, p.WavePick = m, s, pick
		return p
	}
	conservative := with(mawN, 4, GreedyMinIntersection, FirstFree)
	conservative.ConservativeLinks = true
	nested := Params{N: 64, K: 2, R: 8, Model: wdm.MSW, Depth: 5, Lite: true}
	cases := []struct {
		name string
		p    Params
		want string
	}{
		{"msw/bound/greedy", with(mswN, 0, GreedyMinIntersection, FirstFree), "f8cb8fc6071f7b57f6669a4d4e6a903e363481ed7c7b4c4a5aea01c0c1a2327f"},
		{"msw/low/greedy", with(mswN, 5, GreedyMinIntersection, FirstFree), "57980c398d2efb5c54bbdfa0fb52ead5c7b374bbcce7af804167f6c41fb3e660"},
		{"msw/bound/first-fit", with(mswN, 0, FirstFit, FirstFree), "0e4caa929d79468678b62e44e2098a674400a0ce6b7e3259d70271d24d029d59"},
		{"msw/low/first-fit", with(mswN, 5, FirstFit, FirstFree), "677345b1015e74b953fdab0b84a66465547218bfdd0e7202841500086d8d3951"},
		{"maw/bound/greedy/first-free", with(mawN, 0, GreedyMinIntersection, FirstFree), "67816c5595a0d5e76eaa40a37a7888e2fba225e755c820d8d7b891abacd4a34a"},
		{"maw/bound/greedy/most-used", with(mawN, 0, GreedyMinIntersection, MostUsed), "aa71ee8529ce9c8ce895f70bce72a4cba2b7a0cf648bd956c412e632bc4464cb"},
		{"maw/bound/greedy/least-used", with(mawN, 0, GreedyMinIntersection, LeastUsed), "a2d243498e7a93d9cc967453771ea08a79f9dfe972d6775b51e7933327925e9f"},
		{"maw/bound/first-fit/first-free", with(mawN, 0, FirstFit, FirstFree), "7738fcd1ed264b0c0240fde77b41416cd3ce4ba05efd9c03ec816e8a27bc9cfb"},
		{"maw/bound/first-fit/most-used", with(mawN, 0, FirstFit, MostUsed), "f95770fe0d2a57fa49991ac30514a6afde4b878d9b48fe4aba76dfee9cb495d8"},
		{"maw/bound/first-fit/least-used", with(mawN, 0, FirstFit, LeastUsed), "1451cc4065454dbca0128514a3d22d07d4502b6df424161e45ded17e5bbc1879"},
		{"maw/low/greedy/first-free", with(mawN, 3, GreedyMinIntersection, FirstFree), "dc527dc60a7606461c478fd4cf5384f24de60ca3f4468490938c7a87f9b5eccc"},
		{"maw/low/greedy/most-used", with(mawN, 3, GreedyMinIntersection, MostUsed), "e75b1667d2d8b2a564e697a4e09fa8534baa62b58e6869990509f11b939a4d5f"},
		{"maw/low/greedy/least-used", with(mawN, 3, GreedyMinIntersection, LeastUsed), "136f68fe0b2f3a503c17f4a1b72074e8c53e19212c12a2587f58407c8d7b8f22"},
		{"maw/low/first-fit/first-free", with(mawN, 3, FirstFit, FirstFree), "72e06d012c4e0ce996d005c16091a430c4cb63cd73b6d82375813078a98e32a8"},
		{"maw/low/first-fit/most-used", with(mawN, 3, FirstFit, MostUsed), "5a829e8670b40136478ebd39248276efed706629948681e5c11bfc66d454e0ea"},
		{"maw/low/first-fit/least-used", with(mawN, 3, FirstFit, LeastUsed), "c08323afe99305a38ccd7b906cc5e05cddfa6fd504fbd93a16c9f5271e74e1cc"},
		{"awg/bound/greedy", with(awgN, 0, GreedyMinIntersection, FirstFree), "11d66a5059c99a703b52e53705135f66cb29e42f6741190d79b74250d48360ca"},
		{"awg/low/greedy", with(awgN, 3, GreedyMinIntersection, FirstFree), "385c5a174ba2e65fa8b57efbc0e22891185e083c774c3dfc9c1b1cd3bbde7c2d"},
		{"awg/bound/first-fit", with(awgN, 0, FirstFit, FirstFree), "15adf56dfd2ebe94786769c446d13bdb910b970809fef421939d4f0b201f62db"},
		{"awg/low/first-fit", with(awgN, 3, FirstFit, FirstFree), "a62a74373ca557df0ecf18668da82cb0b92c8400b10ad8c111c4ee686089935b"},
		{"maw/low/conservative-links", conservative, "9c8e31eb73b8d4a1dfe25286ca9cf99238f6b638cd37f9f7c1bb4708fc341374"},
		{"msw/bound/depth-5", nested, "91a46e0c3db823659f20b2d1b39ef9ea637ca64285d48ad75e573b0a7ed86083"},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, blocked := pinStream(t, tc.p, int64(100+i), 3000)
			if tc.p.M != 0 && blocked == 0 {
				t.Errorf("m=%d below the bound never blocked; the case does not reach the block paths", tc.p.M)
			}
			if got != tc.want {
				t.Errorf("route digest %s, want %s (%d blocks)", got, tc.want, blocked)
			}
		})
	}
}

// pinStream runs ops seeded operations through a fresh network built
// from p and returns the digest of everything observable, plus the
// number of blocked connects and branches.
func pinStream(t *testing.T, p Params, seed int64, ops int) (string, int) {
	t.Helper()
	net := mustNetwork(t, p)
	h := sha256.New()
	net.SetRouteObserver(func(s RouteStep) {
		fmt.Fprintf(h, "step %d %d %s %d %v %v\n", s.Round, s.Middle, s.State, s.Wave, s.Serves, s.Rejected)
	})
	g := newPinGen(net, seed)
	blocked := 0
	for i := 0; i < ops; i++ {
		fmt.Fprintf(h, "op %d: ", i)
		switch r := g.rng.Intn(100); {
		case r < 25 && len(g.live) > 0:
			id := g.pickLive()
			if err := net.Release(id); err != nil {
				t.Fatalf("op %d: release %d: %v", i, id, err)
			}
			g.drop(id)
			fmt.Fprintf(h, "release %d\n", id)
		case r < 45 && len(g.live) > 0:
			id := g.pickLive()
			dests := g.branchDests(id)
			if len(dests) == 0 {
				fmt.Fprintln(h, "skip")
				continue
			}
			err := net.AddBranch(id, dests...)
			fmt.Fprintf(h, "branch %d %v: ", id, dests)
			if pinOutcome(t, h, net, id, err) {
				g.grow(id, dests)
			} else {
				blocked++
			}
		case r < 50 && len(g.live) > 0:
			id := g.pickLive()
			rec, _ := net.RouteRecord(id)
			if err := net.Release(id); err != nil {
				t.Fatalf("op %d: release %d: %v", i, id, err)
			}
			nid, err := net.Reinstall(rec)
			if err != nil {
				t.Fatalf("op %d: reinstall %+v: %v", i, rec, err)
			}
			g.rename(id, nid)
			fmt.Fprintf(h, "reinstall %d as %d: ", id, nid)
			pinOutcome(t, h, net, nid, nil)
		case r < 52:
			if failed := net.FailedMiddles(); len(failed) > 0 {
				if err := net.RepairMiddle(failed[0]); err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "repair %d\n", failed[0])
				continue
			}
			j := g.rng.Intn(net.Params().M)
			if err := net.FailMiddle(j); err != nil {
				t.Fatal(err)
			}
			migrated, dropped, err := net.RerouteAroundReport(j)
			if err != nil {
				t.Fatalf("op %d: reroute around %d: %v", i, j, err)
			}
			for _, id := range dropped {
				g.drop(id)
			}
			fmt.Fprintf(h, "fail %d: migrated %+v dropped %v\n", j, migrated, dropped)
		default:
			c, ok := g.connection()
			if !ok {
				fmt.Fprintln(h, "skip")
				continue
			}
			var id int
			var err error
			if r < 55 && len(net.FailedMiddles()) == 0 {
				var repacked bool
				id, repacked, err = net.AddWithRepack(c)
				fmt.Fprintf(h, "repack-connect %v repacked=%v: ", c, repacked)
			} else {
				id, err = net.Add(c)
				fmt.Fprintf(h, "connect %v: ", c)
			}
			if pinOutcome(t, h, net, id, err) {
				g.open(id, c)
			} else {
				blocked++
			}
		}
		if i%500 == 499 {
			for _, id := range g.live {
				rec, ok := net.RouteRecord(id)
				if !ok {
					t.Fatalf("op %d: live connection %d has no route record", i, id)
				}
				fmt.Fprintf(h, "live %d %+v\n", id, rec)
			}
			mustVerify(t, net)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), blocked
}

// pinOutcome hashes the result of a connect or branch: the route record
// when it routed, the report's splits and uncovered modules when it
// blocked. Any other error fails the test, since the stream is
// admissible. It reports whether the operation routed.
func pinOutcome(t *testing.T, h hash.Hash, net *Network, id int, err error) bool {
	t.Helper()
	if err == nil {
		rec, ok := net.RouteRecord(id)
		if !ok {
			t.Fatalf("routed connection %d has no route record", id)
		}
		fmt.Fprintf(h, "routed %d %+v\n", id, rec)
		return true
	}
	rep, ok := AsBlockReport(err)
	if !ok {
		t.Fatalf("admissible request failed without a block report: %v", err)
	}
	fmt.Fprintf(h, "blocked code=%q splits=%d uncovered=%v\n", BlockedCode(err), rep.SplitsUsed, rep.Uncovered)
	return false
}

// pinGen draws admissible requests against the slots it knows are free.
// It never reads the network, so the stream depends only on the seed and
// on the outcomes the router returns.
type pinGen struct {
	rng      *rand.Rand
	p        Params
	srcBusy  map[wdm.PortWave]bool
	dstBusy  map[wdm.PortWave]bool
	conns    map[int]wdm.Connection
	live     []int
	maxFan   int
	maxGrow  int
	selfPort map[int]map[wdm.Port]bool
}

func newPinGen(net *Network, seed int64) *pinGen {
	return &pinGen{
		rng:      rand.New(rand.NewSource(seed)),
		p:        net.Params(),
		srcBusy:  map[wdm.PortWave]bool{},
		dstBusy:  map[wdm.PortWave]bool{},
		conns:    map[int]wdm.Connection{},
		maxFan:   net.Params().N / 4,
		maxGrow:  3,
		selfPort: map[int]map[wdm.Port]bool{},
	}
}

func (g *pinGen) pickLive() int { return g.live[g.rng.Intn(len(g.live))] }

// wave draws a destination wavelength for a connection from src: the
// source's own under MSW, any under the converting models.
func (g *pinGen) wave(src wdm.PortWave) wdm.Wavelength {
	if g.p.Model == wdm.MSW {
		return src.Wave
	}
	return wdm.Wavelength(g.rng.Intn(g.p.K))
}

// freeDests draws up to want free destination slots on ports the
// connection does not use yet.
func (g *pinGen) freeDests(src wdm.PortWave, used map[wdm.Port]bool, want int) []wdm.PortWave {
	var out []wdm.PortWave
	taken := map[wdm.Port]bool{}
	for try := 0; try < 8*want && len(out) < want; try++ {
		d := wdm.PortWave{Port: wdm.Port(g.rng.Intn(g.p.N)), Wave: g.wave(src)}
		if used[d.Port] || taken[d.Port] || g.dstBusy[d] {
			continue
		}
		taken[d.Port] = true
		out = append(out, d)
	}
	return out
}

func (g *pinGen) connection() (wdm.Connection, bool) {
	for try := 0; try < 32; try++ {
		src := wdm.PortWave{Port: wdm.Port(g.rng.Intn(g.p.N)), Wave: wdm.Wavelength(g.rng.Intn(g.p.K))}
		if g.srcBusy[src] {
			continue
		}
		dests := g.freeDests(src, nil, 1+g.rng.Intn(g.maxFan))
		if len(dests) == 0 {
			return wdm.Connection{}, false
		}
		return wdm.Connection{Source: src, Dests: dests}, true
	}
	return wdm.Connection{}, false
}

func (g *pinGen) branchDests(id int) []wdm.PortWave {
	c := g.conns[id]
	return g.freeDests(c.Source, g.selfPort[id], 1+g.rng.Intn(g.maxGrow))
}

func (g *pinGen) open(id int, c wdm.Connection) {
	g.srcBusy[c.Source] = true
	g.conns[id] = wdm.Connection{Source: c.Source}
	g.selfPort[id] = map[wdm.Port]bool{}
	g.live = append(g.live, id)
	g.grow(id, c.Dests)
}

func (g *pinGen) grow(id int, dests []wdm.PortWave) {
	c := g.conns[id]
	for _, d := range dests {
		g.dstBusy[d] = true
		g.selfPort[id][d.Port] = true
		c.Dests = append(c.Dests, d)
	}
	g.conns[id] = c
}

func (g *pinGen) drop(id int) {
	c := g.conns[id]
	delete(g.srcBusy, c.Source)
	for _, d := range c.Dests {
		delete(g.dstBusy, d)
	}
	delete(g.conns, id)
	delete(g.selfPort, id)
	for i, v := range g.live {
		if v == id {
			g.live = append(g.live[:i], g.live[i+1:]...)
			break
		}
	}
}

func (g *pinGen) rename(from, to int) {
	g.conns[to], g.selfPort[to] = g.conns[from], g.selfPort[from]
	delete(g.conns, from)
	delete(g.selfPort, from)
	for i, v := range g.live {
		if v == from {
			g.live[i] = to
		}
	}
}
