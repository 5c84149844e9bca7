// Package mesh implements a WDM ring-mesh fabric with light-hierarchy
// multicast routing under sparse splitting, after "Light-Hierarchy: The
// Optimal Structure for Multicast Routing in WDM Mesh Networks"
// (arXiv 1012.0017) and its multicast-incapable branching-node
// avoidance companion (arXiv 1012.0027). It is an alternative fabric
// backend to the paper's three-stage Clos constructions
// (internal/multistage): same external N x N k-wavelength contract,
// same control-plane surface (route / release / reinstall / block
// forensics / failure migration), entirely different internal physics.
//
// Topology and capabilities:
//
//   - N nodes on a bidirectional ring; node i is also network port i.
//     Each direction of each span carries k wavelengths, so the fabric
//     has N clockwise and N counter-clockwise (edge, wavelength) pairs.
//   - Sparse splitting: only every R-th node (i % R == 0) carries a
//     light splitter and is multicast-capable (MC). MC nodes may split
//     an incoming signal into at most X output branches (drop counts as
//     a branch). All other nodes are multicast-incapable (MI): they can
//     forward or terminate a light path, never branch it.
//   - Wavelength continuity: a session rides ONE wavelength end to end
//     (no converters in the mesh). The source/destination Wave fields
//     of a connection are tunable transceiver slots at the nodes; the
//     ring wavelength is the router's to choose.
//
// Routing builds a light-hierarchy per session: a main walk from the
// source toward its farthest destination (serving MC destinations by
// drop-and-continue), plus one reverse-direction spur per deferred MI
// destination, hosted by the first MC node beyond it — the
// "multicast-incapable branching node avoidance" move: branching is
// placed only where a splitter exists, and an MI destination terminates
// its branch. Light-hierarchies may revisit a node (once per
// direction), which is exactly what lets a spur double back over the
// walk's span on the opposite ring direction.
//
// Nonblocking bound: every session claims exactly one wavelength, and
// the router is deterministic, so any k concurrently admissible
// sessions that are individually routable on an idle ring always find
// a free wavelength — the mesh analogue of the Clos sufficient bound,
// asserted by the cross-backend conformance suite. A request that is
// unroutable even on an idle ring is rejected with the stable
// split_incapable code: the sparse-splitting placement, not occupancy,
// refused it.
package mesh

import (
	"fmt"
	"sort"

	"repro/internal/crossbar"
	"repro/internal/multistage"
	"repro/internal/wdm"
)

const freeSlot = -1

// Normalize validates mesh parameters expressed in the repository's
// common parameter vocabulary (multistage.Params): N nodes, K
// wavelengths per fiber direction, R the MC-node spacing (every R-th
// node carries a splitter; R must divide N), X the splitter fanout
// (0 defaults to 2, the smallest fanout that can host a spur), M the
// node count (0 defaults to N; anything else is rejected — mesh
// "middles" are the nodes themselves, which is what lets the serving
// path's failure plane address node failures with the same vocabulary
// it uses for Clos middle modules).
func Normalize(p multistage.Params) (multistage.Params, error) {
	if p.N < 3 {
		return p, fmt.Errorf("mesh: N=%d, a ring needs at least 3 nodes", p.N)
	}
	if p.K <= 0 {
		return p, fmt.Errorf("mesh: k=%d must be positive", p.K)
	}
	if p.R <= 0 || p.N%p.R != 0 {
		return p, fmt.Errorf("mesh: MC spacing R=%d must divide N=%d", p.R, p.N)
	}
	switch p.Model {
	case wdm.MSW, wdm.MSDW, wdm.MAW:
	default:
		return p, fmt.Errorf("mesh: unknown model %v", p.Model)
	}
	if p.M == 0 {
		p.M = p.N
	}
	if p.M != p.N {
		return p, fmt.Errorf("mesh: M=%d, but mesh middles are the N=%d nodes themselves", p.M, p.N)
	}
	if p.X == 0 {
		p.X = 2
	}
	if p.X < 1 {
		return p, fmt.Errorf("mesh: splitter fanout X=%d must be at least 1", p.X)
	}
	if p.Depth != 0 && p.Depth != 3 {
		return p, fmt.Errorf("mesh: Depth=%d not supported", p.Depth)
	}
	p.Depth = 3
	return p, nil
}

// SufficientSessions returns the session count the mesh serves without
// ever blocking: one per wavelength (each session claims exactly one λ
// across every edge it touches).
func SufficientSessions(k int) int { return k }

// routed is the bookkeeping for one live session.
type routed struct {
	conn wdm.Connection
	wave wdm.Wavelength
	// hops are the directed ring edges the session occupies, in claim
	// order: walk first (source to farthest destination), then spurs.
	hops []hop
}

type hop struct {
	from, to int // to == (from±1) mod n
}

// Network is a live ring-mesh fabric. Like multistage.Network it is
// not safe for concurrent use; the serving path serializes access.
type Network struct {
	params multistage.Params
	n, k   int

	// cw[i][w]: connection id occupying the clockwise edge i -> i+1 on
	// wavelength w; ccw[i][w]: the counter-clockwise edge i+1 -> i.
	cw, ccw [][]int

	conns   map[int]*routed
	nextID  int
	srcBusy map[wdm.PortWave]int
	dstBusy map[wdm.PortWave]int
	// failedNode marks nodes out of service (the failure plane's
	// "middle modules").
	failedNode map[int]bool

	routedCount  int64
	blockedCount int64

	observer func(multistage.RouteStep)
}

// New builds a ring-mesh fabric from the (normalized) parameters.
func New(p multistage.Params) (*Network, error) {
	p, err := Normalize(p)
	if err != nil {
		return nil, err
	}
	net := &Network{
		params:  p,
		n:       p.N,
		k:       p.K,
		cw:      makeEdges(p.N, p.K),
		ccw:     makeEdges(p.N, p.K),
		conns:   make(map[int]*routed),
		srcBusy: make(map[wdm.PortWave]int),
		dstBusy: make(map[wdm.PortWave]int),
	}
	return net, nil
}

func makeEdges(n, k int) [][]int {
	e := make([][]int, n)
	for i := range e {
		row := make([]int, k)
		for w := range row {
			row[w] = freeSlot
		}
		e[i] = row
	}
	return e
}

// Params returns the normalized parameters the fabric was built with.
func (net *Network) Params() multistage.Params { return net.params }

// Shape returns the external N x N k-wavelength shape.
func (net *Network) Shape() wdm.Shape {
	return wdm.Shape{In: net.n, Out: net.n, K: net.k}
}

// MulticastCapable reports whether node i carries a splitter.
func (net *Network) MulticastCapable(i int) bool { return i%net.params.R == 0 }

// Len returns the number of live sessions.
func (net *Network) Len() int { return len(net.conns) }

// Stats returns how many Add calls routed and how many blocked, with
// the blocked AddBranch grows counted as blocked. Re-routes inside
// AddBranch and RerouteAroundReport, and Reinstall, count nothing.
func (net *Network) Stats() (routedOK, blocked int64) {
	return net.routedCount, net.blockedCount
}

// Connection returns the live connection with the given id.
func (net *Network) Connection(id int) (wdm.Connection, bool) {
	rc, ok := net.conns[id]
	if !ok {
		return wdm.Connection{}, false
	}
	return rc.conn.Clone(), true
}

// edgeSlot returns the occupancy row for the directed edge from -> to.
func (net *Network) edgeSlot(h hop) []int {
	if (h.from+1)%net.n == h.to {
		return net.cw[h.from]
	}
	return net.ccw[h.to]
}

// Utilization maps the ring's directed-edge occupancy onto the
// repository's common per-stage gauge: clockwise edges report as the
// "input stage", counter-clockwise edges (walks in the other
// orientation and spurs) as the "output stage".
func (net *Network) Utilization() multistage.Utilization {
	var u multistage.Utilization
	scan := func(edges [][]int) (busyTotal, total, busiest int) {
		for i := range edges {
			busy := 0
			for _, v := range edges[i] {
				total++
				if v != freeSlot {
					busyTotal++
					busy++
				}
			}
			if busy > busiest {
				busiest = busy
			}
		}
		return
	}
	u.InBusy, u.InTotal, u.BusiestInLink = scan(net.cw)
	u.OutBusy, u.OutTotal, u.BusiestOutLink = scan(net.ccw)
	if u.InTotal > 0 {
		u.InLinkBusy = float64(u.InBusy) / float64(u.InTotal)
	}
	if u.OutTotal > 0 {
		u.OutLinkBusy = float64(u.OutBusy) / float64(u.OutTotal)
	}
	return u
}

// Cost counts the ring's hardware: one 2x2 wavelength-selective
// crosspoint per node per wavelength (pass/drop on each direction),
// one X-way splitter per MC node, and a mux/demux pair per node for
// the k-wavelength spans.
func (net *Network) Cost() crossbar.Cost {
	mc := net.n / net.params.R
	return crossbar.Cost{
		Crosspoints: net.n * net.k * 4,
		Splitters:   mc,
		Combiners:   mc,
		Muxes:       net.n,
		Demuxes:     net.n,
	}
}

// SetRouteObserver installs fn as the routing observer (nil removes
// it). The mesh router reports one step per wavelength attempt.
func (net *Network) SetRouteObserver(fn func(multistage.RouteStep)) { net.observer = fn }

// Release tears down a live session and frees every edge wavelength it
// occupied.
func (net *Network) Release(id int) error {
	rc, ok := net.conns[id]
	if !ok {
		return fmt.Errorf("mesh: no connection with id %d", id)
	}
	net.freeRoute(rc)
	delete(net.conns, id)
	delete(net.srcBusy, rc.conn.Source)
	for _, d := range rc.conn.Dests {
		delete(net.dstBusy, d)
	}
	return nil
}

func (net *Network) freeRoute(rc *routed) {
	for _, h := range rc.hops {
		net.edgeSlot(h)[rc.wave] = freeSlot
	}
}

func (net *Network) claimRoute(id int, rc *routed) {
	for _, h := range rc.hops {
		net.edgeSlot(h)[rc.wave] = id
	}
}

// nodesTouched returns the sorted set of nodes a session's light
// visits: the source, every destination, and every edge endpoint.
func (rc *routed) nodesTouched() []int {
	set := map[int]bool{int(rc.conn.Source.Port): true}
	for _, d := range rc.conn.Dests {
		set[int(d.Port)] = true
	}
	for _, h := range rc.hops {
		set[h.from] = true
		set[h.to] = true
	}
	out := make([]int, 0, len(set))
	for i := range set {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// remapID moves a live session to a new id, updating every index.
func (net *Network) remapID(from, to int) {
	rc, ok := net.conns[from]
	if !ok {
		panic(fmt.Sprintf("mesh: remapID: no connection %d", from))
	}
	if _, clash := net.conns[to]; clash {
		panic(fmt.Sprintf("mesh: remapID: id %d already live", to))
	}
	delete(net.conns, from)
	net.conns[to] = rc
	net.srcBusy[rc.conn.Source] = to
	for _, d := range rc.conn.Dests {
		net.dstBusy[d] = to
	}
	net.claimRoute(to, rc)
}
