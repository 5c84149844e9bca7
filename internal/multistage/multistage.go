package multistage

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/wdm"
)

// Construction selects which model the first two stages use (Fig. 9).
type Construction int

const (
	// MSWDominant builds input- and middle-stage modules under the MSW
	// model: a connection entering on wavelength λ stays on λ until the
	// output stage. Cheapest; Theorem 1 gives its nonblocking bound.
	MSWDominant Construction = iota
	// MAWDominant builds input- and middle-stage modules under the MAW
	// model: the first two stages may retune freely, so an inter-stage
	// link is usable while any of its k wavelengths is free. Theorem 2
	// gives its nonblocking bound.
	MAWDominant
	// AWGClos builds the middle stage from passive arrayed-waveguide
	// gratings (AWG-based nonblocking Clos networks, arXiv 1308.4477):
	// middle crosspoints neither convert nor multicast, and the cyclic
	// wavelength-routing law fixes the wavelength any middle must carry
	// for an (input module a, output module p) pair to
	// λ = (p - a) mod k. Input modules carry tunable transmitters (MAW);
	// the network model must be MAW so converting output modules can
	// deliver the forced class wavelength to arbitrary destination slots.
	// AWGClosMinM gives its sufficient nonblocking bound.
	AWGClos
)

func (c Construction) String() string {
	switch c {
	case MSWDominant:
		return "MSW-dominant"
	case MAWDominant:
		return "MAW-dominant"
	case AWGClos:
		return "AWG-Clos"
	default:
		return fmt.Sprintf("Construction(%d)", int(c))
	}
}

// Stage12Model returns the model used by the first two stages. For
// AWG-Clos it is the input stage's model (MAW: tunable transmitters);
// the passive middle stage is wavelength-locked (MSW) — see MiddleModel.
func (c Construction) Stage12Model() wdm.Model {
	if c == MAWDominant || c == AWGClos {
		return wdm.MAW
	}
	return wdm.MSW
}

// MiddleModel returns the model the middle-stage modules implement:
// the Stage12Model for the paper's constructions, MSW for AWG-Clos
// (a passive grating cannot retune a wavelength in flight).
func (c Construction) MiddleModel() wdm.Model {
	if c == AWGClos {
		return wdm.MSW
	}
	return c.Stage12Model()
}

// Strategy selects how the router picks middle-stage modules for a new
// connection. The theorems certify GreedyMinIntersection; the others
// exist as ablations of that design choice.
type Strategy int

const (
	// GreedyMinIntersection repeatedly picks the available middle module
	// whose destination (multi)set leaves the smallest uncovered residual
	// — the selection order inside the proofs of Lemma 5 and [14]. This
	// is the certified default.
	GreedyMinIntersection Strategy = iota
	// FirstFit picks the lowest-indexed available middle module that
	// covers at least one uncovered destination module. Simpler and
	// cheaper per decision, but not covered by the theorems' guarantee —
	// the ablation benchmarks measure how much larger m must be for it.
	FirstFit
)

func (s Strategy) String() string {
	switch s {
	case GreedyMinIntersection:
		return "greedy-min-intersection"
	case FirstFit:
		return "first-fit"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// WavePick selects which free wavelength an MAW-dominant link claim
// takes when several are free — the classic WDM wavelength-assignment
// policies. MSW-dominant links are wavelength-locked, so the policy only
// matters for MAW-dominant networks.
type WavePick int

const (
	// FirstFree takes the lowest-indexed free wavelength (first-fit,
	// the standard default in WDM assignment studies).
	FirstFree WavePick = iota
	// MostUsed takes the free wavelength that is busiest across the
	// whole stage ("packing": concentrates traffic on few wavelengths,
	// keeping whole wavelengths free elsewhere).
	MostUsed
	// LeastUsed takes the globally least-busy free wavelength
	// ("spreading").
	LeastUsed
)

func (w WavePick) String() string {
	switch w {
	case FirstFree:
		return "first-free"
	case MostUsed:
		return "most-used"
	case LeastUsed:
		return "least-used"
	default:
		return fmt.Sprintf("WavePick(%d)", int(w))
	}
}

// Params describes a three-stage network. N = n*r ports with k
// wavelengths each; R modules in the outer stages (so each input module
// has n = N/R ports); M middle modules. Model is the network's multicast
// model, which the output-stage modules implement.
type Params struct {
	N, K         int
	R            int
	M            int // 0 = minimal from the construction's theorem
	X            int // routing split limit; 0 = the theorem's optimal x
	Model        wdm.Model
	Construction Construction
	// Strategy selects the middle-module selection rule
	// (GreedyMinIntersection unless overridden — see Strategy).
	Strategy Strategy
	// WavePick selects the wavelength-assignment policy for MAW-dominant
	// link claims (FirstFree unless overridden).
	WavePick WavePick
	// ConservativeLinks, under the MAW-dominant construction, treats an
	// inter-stage link as unusable once *any* of its k wavelengths is
	// taken — the plain-set semantics the destination *multisets* of
	// Eqs. 2-5 exist to avoid. Ablation only: it wastes k-1 wavelengths
	// per claimed link, and the benchmarks quantify how much larger the
	// middle stage must grow to compensate.
	ConservativeLinks bool
	// Depth is the total stage count: 0 or 3 builds the classic
	// three-stage network; 5, 7, ... recursively replace each middle
	// module with a (Depth-2)-stage network of the same construction, as
	// Section 3 describes. Recursion requires the middle module size r to
	// factor into two parts >= 2 at every level.
	Depth int
	// Lite makes Verify skip the gate-level model it otherwise builds
	// from the live routes (one crossbar per module, every signal
	// propagated). Routing never builds that model, so Lite changes
	// nothing else; use it for large parameter sweeps.
	Lite bool
}

// Normalize validates the parameters and fills in defaulted fields (M, X).
func (p Params) Normalize() (Params, error) {
	if p.N <= 0 || p.K <= 0 {
		return p, fmt.Errorf("multistage: N=%d k=%d must be positive", p.N, p.K)
	}
	if p.R <= 0 || p.N%p.R != 0 {
		return p, fmt.Errorf("multistage: R=%d must divide N=%d", p.R, p.N)
	}
	n := p.N / p.R
	switch p.Model {
	case wdm.MSW, wdm.MSDW, wdm.MAW:
	default:
		return p, fmt.Errorf("multistage: unknown model %v", p.Model)
	}
	switch p.Construction {
	case MSWDominant, MAWDominant:
	case AWGClos:
		if p.Model != wdm.MAW {
			return p, fmt.Errorf("multistage: AWG-Clos needs converting (MAW) output modules to deliver the class wavelength, not %v", p.Model)
		}
		if p.Depth != 0 && p.Depth != 3 {
			return p, fmt.Errorf("multistage: AWG-Clos does not nest (Depth=%d)", p.Depth)
		}
	default:
		return p, fmt.Errorf("multistage: unknown construction %v", p.Construction)
	}
	if p.M == 0 || p.X == 0 {
		m, x := SufficientMinM(p.Construction, p.Model, n, p.R, p.K)
		if p.M == 0 {
			p.M = m
		}
		if p.X == 0 {
			p.X = x
		}
	}
	if p.X < 1 {
		return p, fmt.Errorf("multistage: X=%d must be at least 1", p.X)
	}
	if p.M < 1 {
		return p, fmt.Errorf("multistage: M=%d must be at least 1", p.M)
	}
	if p.Depth == 0 {
		p.Depth = 3
	}
	if p.Depth < 3 || p.Depth%2 == 0 {
		return p, fmt.Errorf("multistage: Depth=%d must be an odd number >= 3", p.Depth)
	}
	if p.Depth > 3 {
		if _, err := nestedSplit(p.R, p.Depth-2); err != nil {
			return p, err
		}
	}
	return p, nil
}

// nestedSplit returns the outer-stage module count for a nested network
// of size r at the given depth, erring if r cannot support the
// recursion (every level needs a factorization into parts >= 2).
func nestedSplit(r, depth int) (int, error) {
	best := 0
	for cand := 2; cand*2 <= r; cand++ {
		if r%cand != 0 || r/cand < 2 {
			continue
		}
		// Prefer the split closest to sqrt(r).
		if best == 0 || absInt(cand*cand-r) < absInt(best*best-r) {
			best = cand
		}
	}
	if best == 0 {
		return 0, fmt.Errorf("multistage: middle size r=%d cannot be factored for a %d-stage nesting", r, depth+2)
	}
	if depth > 3 {
		if _, err := nestedSplit(best, depth-2); err != nil {
			return 0, err
		}
	}
	return best, nil
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// n returns ports per outer-stage module.
func (p Params) n() int { return p.N / p.R }

// routed records how one network connection is realized: the route
// RouteRecord exports and, when the middles are nested networks, the
// connection ids they gave the route's middle sub-connections.
type routed struct {
	conn    wdm.Connection // normalized
	srcMod  int
	legs    []RouteLeg // input-stage link claims, ascending by middle
	hops    []RouteHop // output-stage link claims, ascending by middle, then output module
	midConn []int      // midConn[i]: connection id in nested middle legs[i].Middle; nil at Depth 3
}

// newRouted allocates the record of a route with the given leg and hop
// counts; install fills in midConn.
func (net *Network) newRouted(c wdm.Connection, srcMod, legs, hops int) *routed {
	rc := &routed{conn: c, srcMod: srcMod, legs: make([]RouteLeg, 0, legs), hops: make([]RouteHop, 0, hops)}
	if net.mids != nil {
		rc.midConn = make([]int, legs)
	}
	return rc
}

// leg returns the wavelength the route claims on the link to middle j.
func (rc *routed) leg(j int) (wdm.Wavelength, bool) {
	i, ok := slices.BinarySearchFunc(rc.legs, RouteLeg{Middle: j}, compareLegs)
	if !ok {
		return 0, false
	}
	return rc.legs[i].Wave, true
}

// compareLegs and compareHops order a route's link claims by link:
// legs by middle, hops by middle, then output module.
func compareLegs(a, b RouteLeg) int { return cmp.Compare(a.Middle, b.Middle) }

func compareHops(a, b RouteHop) int {
	if c := cmp.Compare(a.Middle, b.Middle); c != 0 {
		return c
	}
	return cmp.Compare(a.Out, b.Out)
}

// Network is a live three-stage WDM multicast switching network.
// It is not safe for concurrent use, Explain included: the dry run
// shares the route search's scratch space with Add.
type Network struct {
	params Params
	nPorts int // ports per outer module (the paper's n)

	// mids holds the m nested middle networks when Depth > 3; nil at
	// Depth 3, where the link and slot tables are all the state the
	// crossbar modules have.
	mids []*Network

	// Link occupancy: connection id or freeLink.
	inLink  links // r x m: input module a -> middle j
	outLink links // m x r: middle j -> output module p
	// waveUse[w] counts claimed link wavelengths per plane (for the
	// MostUsed/LeastUsed wavelength-assignment policies).
	waveUse []int

	conns  map[int]*routed
	nextID int
	// srcBusy and dstBusy map each of the N·k input and output slots
	// (indexed by PortWave.Index) to the connection holding it, or
	// freeSlot.
	srcBusy []int
	dstBusy []int
	// failedMid[j] marks middle module j out of service (see failure.go).
	failedMid []bool

	// scratch is the working set of the route search (see route.go).
	scratch routeScratch

	// Stats.
	routedCount  int64
	blockedCount int64

	// observer, when set, receives one RouteStep per middle-stage
	// decision during Add (see observer.go).
	observer func(RouteStep)
}

const (
	freeLink = -1 // an unoccupied link wavelength in inLink/outLink
	freeSlot = -1 // an unoccupied port slot in srcBusy/dstBusy
)

// New builds a three-stage network from the (normalized) parameters.
func New(p Params) (*Network, error) {
	p, err := p.Normalize()
	if err != nil {
		return nil, err
	}
	n, r, m, k := p.n(), p.R, p.M, p.K
	net := &Network{
		params:    p,
		nPorts:    n,
		inLink:    newLinks(r, m, k),
		outLink:   newLinks(m, r, k),
		waveUse:   make([]int, k),
		conns:     make(map[int]*routed),
		srcBusy:   filled(p.N*k, freeSlot),
		dstBusy:   filled(p.N*k, freeSlot),
		failedMid: make([]bool, m),
		scratch:   newRouteScratch(n, r, m),
	}
	if p.Depth > 3 {
		np, err := p.nested()
		if err != nil {
			return nil, err
		}
		for j := range m {
			nested, err := New(np)
			if err != nil {
				return nil, fmt.Errorf("multistage: nested middle module %d: %w", j, err)
			}
			net.mids = append(net.mids, nested)
		}
	}
	return net, nil
}

// nested returns the parameters of the network that replaces each middle
// module when Depth > 3 (the recursive construction of Section 3: "a
// network can have any odd number of stages and be built in a recursive
// fashion from these switching modules, which are in fact regarded as
// networks of a smaller size"): r x r under the first-two-stage model,
// the same construction, sized by its own sufficient bound.
func (p Params) nested() (Params, error) {
	rn, err := nestedSplit(p.R, p.Depth-2)
	if err != nil {
		return Params{}, err
	}
	return Params{
		N: p.R, K: p.K, R: rn,
		Model:        p.Construction.Stage12Model(),
		Construction: p.Construction,
		Strategy:     p.Strategy,
		Depth:        p.Depth - 2,
		Lite:         p.Lite,
	}.Normalize()
}

// filled returns n cells set to v.
func filled(n, v int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// links is the wavelength occupancy of the links between two stages:
// link(x, y)[w] holds the connection carried on wavelength w of the
// link from module x to module y, or freeLink. The cells are one flat
// array; a slice per link would add about 300 KB of slice headers to a
// 1024-port network at the Theorem 1 bound.
type links struct {
	xs, ys, k int
	cells     []int
}

func newLinks(xs, ys, k int) links {
	return links{xs: xs, ys: ys, k: k, cells: filled(xs*ys*k, freeLink)}
}

// link returns the k wavelength cells of the link x->y.
func (l links) link(x, y int) []int {
	i := (x*l.ys + y) * l.k
	return l.cells[i : i+l.k : i+l.k]
}

// Params returns the normalized parameters the network was built with.
func (net *Network) Params() Params { return net.params }

// Shape returns the external N x N k-wavelength shape.
func (net *Network) Shape() wdm.Shape {
	return wdm.Shape{In: net.params.N, Out: net.params.N, K: net.params.K}
}

// Len returns the number of live connections.
func (net *Network) Len() int { return len(net.conns) }

// Stats returns how many Add calls succeeded and how many were blocked
// (admissible but unroutable) since construction.
func (net *Network) Stats() (routedOK, blocked int64) {
	return net.routedCount, net.blockedCount
}

// splitPort maps a network port to (module, local port).
func (net *Network) splitPort(p wdm.Port) (mod int, local wdm.Port) {
	return int(p) / net.nPorts, wdm.Port(int(p) % net.nPorts)
}

// Connections returns a snapshot of all live connections keyed by id.
func (net *Network) Connections() map[int]wdm.Connection {
	out := make(map[int]wdm.Connection, len(net.conns))
	for id, rc := range net.conns {
		out[id] = rc.conn.Clone()
	}
	return out
}

// Utilization summarizes the inter-stage link occupancy of the network.
type Utilization struct {
	// InLinkBusy and OutLinkBusy are the fractions of occupied
	// (link, wavelength) pairs between stages 1-2 and 2-3.
	InLinkBusy, OutLinkBusy float64
	// BusiestInLink and BusiestOutLink are the highest per-link
	// wavelength occupancy counts observed (0..k).
	BusiestInLink, BusiestOutLink int
	// InBusy/InTotal and OutBusy/OutTotal are the occupied and total
	// (link, wavelength) pair counts behind the fractions — the raw
	// per-stage occupancy gauges the serving path exports.
	InBusy, InTotal   int
	OutBusy, OutTotal int
}

// Utilization reports the current inter-stage link occupancy — the
// quantity Lee's approximation takes as input, measured rather than
// assumed.
func (net *Network) Utilization() Utilization {
	var u Utilization
	inBusy, inTotal := 0, 0
	for a := range net.inLink.xs {
		for j := range net.inLink.ys {
			busy := 0
			for _, v := range net.inLink.link(a, j) {
				inTotal++
				if v != freeLink {
					inBusy++
					busy++
				}
			}
			if busy > u.BusiestInLink {
				u.BusiestInLink = busy
			}
		}
	}
	outBusy, outTotal := 0, 0
	for j := range net.outLink.xs {
		for p := range net.outLink.ys {
			busy := 0
			for _, v := range net.outLink.link(j, p) {
				outTotal++
				if v != freeLink {
					outBusy++
					busy++
				}
			}
			if busy > u.BusiestOutLink {
				u.BusiestOutLink = busy
			}
		}
	}
	u.InBusy, u.InTotal = inBusy, inTotal
	u.OutBusy, u.OutTotal = outBusy, outTotal
	if inTotal > 0 {
		u.InLinkBusy = float64(inBusy) / float64(inTotal)
	}
	if outTotal > 0 {
		u.OutLinkBusy = float64(outBusy) / float64(outTotal)
	}
	return u
}

// Connection returns the live connection with the given id.
func (net *Network) Connection(id int) (wdm.Connection, bool) {
	rc, ok := net.conns[id]
	if !ok {
		return wdm.Connection{}, false
	}
	return rc.conn.Clone(), true
}
