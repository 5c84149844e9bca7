package mesh

import (
	"fmt"

	"repro/internal/multistage"
	"repro/internal/wdm"
)

// Add routes a multicast session onto the ring as a light-hierarchy:
// a main walk from the source toward its farthest destination in one
// ring direction, with one reverse-direction spur per destination that
// could not be served on the walk itself. Wavelengths are tried
// first-fit, each in both ring orientations; the whole hierarchy rides
// the one wavelength that admits it (wavelength continuity — the ring
// has no converters).
//
// Add returns an error wrapping multistage.ErrBlocked when no
// wavelength admits the session. The BlockedError carries the
// split_incapable code when even an idle ring could not route it (the
// sparse-splitting placement structurally refuses the request);
// otherwise the block is plain occupancy.
func (net *Network) Add(c wdm.Connection) (int, error) {
	id, err := net.add(c)
	net.count(err)
	return id, err
}

// count tallies one logical operation's outcome for Stats: routed when
// err is nil, blocked when the router refused an admissible request.
func (net *Network) count(err error) {
	if err == nil {
		net.routedCount++
	} else if multistage.IsBlocked(err) {
		net.blockedCount++
	}
}

// add is Add without the Stats tally: the path of the re-routes inside
// AddBranch and RerouteAroundReport.
func (net *Network) add(c wdm.Connection) (int, error) {
	if err := net.Shape().CheckConnection(net.params.Model, c); err != nil {
		return 0, err
	}
	if id, busy := net.srcBusy[c.Source]; busy {
		return 0, fmt.Errorf("mesh: source slot %v already used by connection %d", c.Source, id)
	}
	for _, d := range c.Dests {
		if id, busy := net.dstBusy[d]; busy {
			return 0, fmt.Errorf("mesh: destination slot %v already used by connection %d", d, id)
		}
	}
	c = c.Normalize()

	src := int(c.Source.Port)
	destSet := make(map[int]bool)
	for _, d := range c.Dests {
		if int(d.Port) != src {
			destSet[int(d.Port)] = true
		}
	}
	dests := make([]int, 0, len(destSet))
	for d := range destSet {
		dests = append(dests, d)
	}

	// Purely source-local session (every destination slot sits at the
	// source node): no edges, no wavelength claim.
	if len(dests) == 0 {
		if net.failedNode[src] {
			return 0, &multistage.BlockedError{
				Detail: fmt.Sprintf("mesh: node %d out of service", src),
				Report: net.blockReport("add", c, src, nil),
			}
		}
		return net.commit(c, 0, nil), nil
	}

	for w := 0; w < net.k; w++ {
		for _, dir := range []int{+1, -1} {
			hops, ok := net.plan(src, dests, wdm.Wavelength(w), dir, false)
			if !ok {
				continue
			}
			net.observe(multistage.RouteStep{
				Round: w, Middle: src, State: multistage.MiddleSelected,
				Wave: w, Serves: dests,
			})
			return net.commit(c, wdm.Wavelength(w), hops), nil
		}
	}

	// Every wavelength refused. Classify: if an idle ring would route
	// the request, this is occupancy; otherwise the sparse-splitting
	// structure itself is incapable.
	for _, dir := range []int{+1, -1} {
		if _, ok := net.plan(src, dests, 0, dir, true); ok {
			net.observe(multistage.RouteStep{
				Middle: src, State: multistage.MiddleOutLinkBusy, Wave: -1, Rejected: dests,
			})
			return 0, &multistage.BlockedError{
				Detail: fmt.Sprintf("mesh: no wavelength admits the hierarchy from node %d to %v (k=%d)", src, dests, net.k),
				Report: net.blockReport("add", c, src, dests),
			}
		}
	}
	net.observe(multistage.RouteStep{
		Middle: src, State: multistage.MiddleSplitLimit, Wave: -1, Rejected: dests,
	})
	return 0, &multistage.BlockedError{
		Code: multistage.CodeSplitIncapable,
		Detail: fmt.Sprintf("mesh: request needs splitting a multicast-incapable node cannot provide (MC every %d nodes, fanout x=%d)",
			net.params.R, net.params.X),
		Report: net.blockReport("add", c, src, dests),
	}
}

// plan attempts to lay out the light-hierarchy for one (wavelength,
// orientation) pair. dir is +1 (clockwise) or -1. dry plans against an
// idle, fault-free ring — the structural-feasibility probe Add uses to
// classify a total failure.
//
// The hierarchy: walk src -> farthest destination in direction dir,
// serving destinations at MC nodes by drop-and-continue; every
// destination the walk cannot drop at (an MI node cannot branch) is
// deferred and served by a spur in direction -dir from the nearest MC
// node beyond it with splitter capacity left. Spur ranges claim
// opposite-direction edges, so they never collide with the walk; a
// plannedSpur set keeps them disjoint from each other.
func (net *Network) plan(src int, dests []int, w wdm.Wavelength, dir int, dry bool) ([]hop, bool) {
	n := net.n
	node := func(t int) int { return ((src+t*dir)%n + n) % n }
	dist := func(v int) int { return (((v-src)*dir)%n + n) % n }

	if !dry && net.failedNode[src] {
		return nil, false
	}

	maxDist := 0
	destAt := make(map[int]bool, len(dests)) // keyed by walk distance
	for _, d := range dests {
		if !dry && net.failedNode[d] {
			return nil, false
		}
		t := dist(d)
		destAt[t] = true
		if t > maxDist {
			maxDist = t
		}
	}

	// Walk feasibility: every edge free on w, every intermediate node
	// in service.
	hops := make([]hop, 0, maxDist)
	for t := 0; t < maxDist; t++ {
		h := hop{from: node(t), to: node(t + 1)}
		if !dry {
			if t > 0 && net.failedNode[h.from] {
				return nil, false
			}
			if net.edgeSlot(h)[w] != freeSlot {
				return nil, false
			}
		}
		hops = append(hops, h)
	}

	// branches[t] counts output branches committed at walk node t
	// (continue + drop + hosted spurs); MC nodes may branch up to X,
	// MI nodes never.
	branches := make(map[int]int, maxDist+1)
	for t := 0; t <= maxDist; t++ {
		if t < maxDist {
			branches[t] = 1 // walk continues
		}
	}
	var deferred []int
	for t := 1; t <= maxDist; t++ {
		if !destAt[t] {
			continue
		}
		if t == maxDist {
			branches[t]++ // terminal drop: MI may terminate, MC drops
			continue
		}
		// Mid-walk destination: drop-and-continue needs a splitter.
		if net.MulticastCapable(node(t)) && branches[t]+1 <= net.params.X {
			branches[t]++
			continue
		}
		deferred = append(deferred, t)
	}

	plannedSpur := make(map[hop]bool)
	for _, td := range deferred {
		hostT := -1
		for t := td + 1; t <= maxDist; t++ {
			if net.MulticastCapable(node(t)) && branches[t]+1 <= net.params.X {
				hostT = t
				break
			}
		}
		if hostT < 0 {
			return nil, false
		}
		// Spur: host walks back over the span in direction -dir,
		// terminating at the deferred destination.
		spur := make([]hop, 0, hostT-td)
		ok := true
		for s := hostT; s > td; s-- {
			h := hop{from: node(s), to: node(s - 1)}
			if plannedSpur[h] {
				ok = false
				break
			}
			if !dry && net.edgeSlot(h)[w] != freeSlot {
				ok = false
				break
			}
			spur = append(spur, h)
		}
		if !ok {
			return nil, false
		}
		branches[hostT]++
		for _, h := range spur {
			plannedSpur[h] = true
		}
		hops = append(hops, spur...)
	}
	return hops, true
}

// commit materializes a planned hierarchy under a fresh id.
func (net *Network) commit(c wdm.Connection, w wdm.Wavelength, hops []hop) int {
	return net.commitRouted(c, &routed{conn: c, wave: w, hops: hops})
}

func (net *Network) observe(step multistage.RouteStep) {
	if net.observer != nil {
		net.observer(step)
	}
}

// blockReport assembles the forensic account of a mesh block in the
// shared vocabulary: SrcModule is the source node, Uncovered the
// destination nodes, Utilization the directed-edge occupancy. The ring
// has no middle modules to diagnose, so Middles stays empty.
func (net *Network) blockReport(op string, c wdm.Connection, src int, dests []int) *multistage.BlockReport {
	return &multistage.BlockReport{
		Op:          op,
		Conn:        wdm.FormatConnection(c),
		SrcModule:   src,
		SrcWave:     int(c.Source.Wave),
		LastHopWave: -1,
		X:           net.params.X,
		Uncovered:   append([]int(nil), dests...),
		Utilization: net.Utilization(),
	}
}
