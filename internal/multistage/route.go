package multistage

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/wdm"
)

// ErrBlocked is wrapped by Add when a connection is admissible but cannot
// be routed with the configured split limit — i.e. the network blocked.
// With m at or above the theorem bound this must never happen; the
// simulation experiments assert exactly that.
var ErrBlocked = errors.New("multistage: connection blocked")

// anyWave marks a link whose wavelength the policy may pick freely.
const anyWave = wdm.Wavelength(-1)

// Add routes a multicast connection through the three stages using the
// paper's routing strategy: the connection may use at most X middle-stage
// modules (Lemma 4 / Corollary 1). Middle modules are chosen greedily by
// minimum residual intersection with their destination (multi)sets — the
// selection order used in the proofs of Lemma 5 and the results of [14].
//
// Add returns an error wrapping ErrBlocked if no admissible choice of at
// most X middle modules covers the destination set; other errors indicate
// an inadmissible request (model violation or busy slot).
func (net *Network) Add(c wdm.Connection) (int, error) {
	if err := net.admit(c); err != nil {
		return 0, err
	}
	c = c.Normalize()
	srcMod, _ := net.splitPort(c.Source.Port)
	fanMods := net.destModules(c)
	lastHopWave := net.lastHopWave(c.Source.Wave)
	cv := net.selectMiddles(srcMod, c.Source.Wave, lastHopWave, fanMods)
	if net.observer != nil {
		for i, rd := range cv.rounds {
			wave := c.Source.Wave
			if net.params.Construction == AWGClos {
				wave = net.awgWave(srcMod, rd.serves[0])
			}
			net.observeSelected(i, rd.middle, int(wave), rd.serves)
		}
	}
	if len(cv.residual) > 0 {
		net.blockedCount++
		return 0, net.blockedError(c, srcMod, lastHopWave, fanMods, cv)
	}
	id, err := net.commit(c, srcMod, lastHopWave, cv.rounds)
	if err != nil {
		net.blockedCount++
		return 0, err
	}
	net.routedCount++
	return id, nil
}

// admit checks that c is well formed under the network's model and that
// its source and destination slots are free.
func (net *Network) admit(c wdm.Connection) error {
	if err := net.Shape().CheckConnection(net.params.Model, c); err != nil {
		return err
	}
	if id := net.srcBusy[c.Source.Index(net.params.K)]; id != freeSlot {
		return fmt.Errorf("multistage: source slot %v already used by connection %d", c.Source, id)
	}
	return net.destsFree(c.Dests)
}

// destsFree reports the first of the (in-range) destination slots that a
// connection already holds.
func (net *Network) destsFree(dests []wdm.PortWave) error {
	for _, d := range dests {
		if id := net.dstBusy[d.Index(net.params.K)]; id != freeSlot {
			return fmt.Errorf("multistage: destination slot %v already used by connection %d", d, id)
		}
	}
	return nil
}

// setSlots marks a connection's source and destination slots as held by
// id (freeSlot releases them).
func (net *Network) setSlots(c wdm.Connection, id int) {
	net.srcBusy[c.Source.Index(net.params.K)] = id
	for _, d := range c.Dests {
		net.dstBusy[d.Index(net.params.K)] = id
	}
}

// lastHopWave returns the wavelength the link j->p must carry for a
// connection entering on srcWave, or anyWave if any free one works:
//   - MSW-dominant first two stages never retune: always srcWave;
//   - MSW output modules cannot retune either, so the arrival must
//     already be on the destination wavelength (network model MSW
//     implies that wavelength is srcWave);
//   - MSDW/MAW output modules have converters, so under MAW-dominant
//     any free wavelength works.
//
// AWG-Clos fixes both hops per destination module instead (awgWave).
func (net *Network) lastHopWave(srcWave wdm.Wavelength) wdm.Wavelength {
	if net.params.Construction == MSWDominant || net.params.Model == wdm.MSW {
		return srcWave
	}
	return anyWave
}

// routeScratch is the working set of one route search or install, kept
// on the Network so that Add allocates nothing for it. Slices handed out
// from it are valid until the next Add, Explain or reinstall on the same
// Network; anything kept longer (reports, explanations, observer steps,
// route records) is copied out. Every buffer is sized at New for the
// largest request the network admits.
type routeScratch struct {
	fanMods  []int // destination output modules, ascending
	avail    []int // candidate middles, ascending
	residual []int // destination modules not yet covered, ascending
	served   []int // backing store of the rounds' serves
	rounds   []pick
	subDests []wdm.PortWave // destinations of the module sub-connection subConns hands out
}

func newRouteScratch(n, r, m int) routeScratch {
	return routeScratch{
		fanMods:  make([]int, 0, r),
		avail:    make([]int, 0, m),
		residual: make([]int, 0, r),
		served:   make([]int, 0, r),
		rounds:   make([]pick, 0, r),
		subDests: make([]wdm.PortWave, 0, max(n, r, m)),
	}
}

// destModules returns the output modules a normalized connection
// reaches, in ascending order.
func (net *Network) destModules(c wdm.Connection) []int {
	s := &net.scratch
	s.fanMods = s.fanMods[:0]
	for _, d := range c.Dests {
		if p := int(d.Port) / net.nPorts; len(s.fanMods) == 0 || s.fanMods[len(s.fanMods)-1] != p {
			s.fanMods = append(s.fanMods, p)
		}
	}
	return s.fanMods
}

// moduleDests appends to dst the destinations a normalized connection
// has in output module p, as that module's local slots. Sorted by port,
// they are one contiguous run.
func (net *Network) moduleDests(dst []wdm.PortWave, c wdm.Connection, p int) []wdm.PortWave {
	first := wdm.Port(p * net.nPorts)
	i, _ := slices.BinarySearchFunc(c.Dests, first, func(d wdm.PortWave, port wdm.Port) int { return cmp.Compare(d.Port, port) })
	for ; i < len(c.Dests) && int(c.Dests[i].Port)/net.nPorts == p; i++ {
		dst = append(dst, wdm.PortWave{Port: c.Dests[i].Port - first, Wave: c.Dests[i].Wave})
	}
	return dst
}

// pick is one round of the middle-stage search: the middle chosen and
// the destination modules it serves, ascending.
type pick struct {
	middle int
	serves []int
}

// cover is the outcome of the middle-stage search. Its slices live in
// the Network's scratch.
type cover struct {
	rounds   []pick // chosen middles, in selection order
	residual []int  // destination modules left uncovered, ascending
	avail    []int  // available middles not chosen, ascending
}

// selectMiddles is the router's middle-stage search, shared by Add and
// Explain: it chooses at most X middles to cover the destination
// modules fanMods of a connection entering input module srcMod on
// srcWave. It reads the network and writes only scratch.
func (net *Network) selectMiddles(srcMod int, srcWave, lastHopWave wdm.Wavelength, fanMods []int) cover {
	s := &net.scratch
	s.served = s.served[:0]
	cv := cover{
		rounds:   s.rounds[:0],
		residual: append(s.residual[:0], fanMods...),
	}
	if net.params.Construction == AWGClos {
		cv.avail = net.inService(s.avail[:0])
		net.coverAWG(&cv, srcMod)
	} else {
		cv.avail = net.availableMiddles(s.avail[:0], srcMod, srcWave)
		net.coverGreedy(&cv, lastHopWave)
	}
	return cv
}

// coverGreedy covers the destination modules with at most X of the
// available middles (Lemma 4 with the multiset semantics of Eqs. 2-5
// when links carry k wavelengths). GreedyMinIntersection takes, each
// round, the first candidate that leaves the fewest modules uncovered;
// FirstFit the first that covers any. A candidate's count stops once it
// cannot beat the best so far, and the scan stops at a candidate that
// blocks nothing: the comparison is strict, so no later candidate could
// replace it. The choice is exactly that of the full scan.
func (net *Network) coverGreedy(cv *cover, lastHopWave wdm.Wavelength) {
	s := &net.scratch
	for len(cv.residual) > 0 && len(cv.rounds) < net.params.X && len(cv.avail) > 0 {
		best, bestBlocked := -1, len(cv.residual)
		for idx, j := range cv.avail {
			if blocked := net.countBlocked(j, cv.residual, lastHopWave, bestBlocked); blocked < bestBlocked {
				best, bestBlocked = idx, blocked
				if blocked == 0 || net.params.Strategy == FirstFit {
					break
				}
			}
		}
		if best < 0 {
			return // no available middle makes progress
		}
		j := cv.avail[best]
		start := len(s.served)
		left := cv.residual[:0]
		for _, p := range cv.residual {
			if net.middleBlocked(j, p, lastHopWave) {
				left = append(left, p)
			} else {
				s.served = append(s.served, p)
			}
		}
		cv.residual = left
		cv.take(best, s.served[start:len(s.served):len(s.served)])
	}
}

// coverAWG gives each destination module, in order, the first
// in-service middle not yet carrying this connection whose links have
// the class wavelength free on both hops: a grating neither splits nor
// converts, so one middle serves one destination module. It stops at
// the first module no middle can serve, and takes no middle at all when
// the fanout needs more than X.
func (net *Network) coverAWG(cv *cover, srcMod int) {
	if len(cv.residual) > net.params.X {
		return
	}
	s := &net.scratch
	for len(cv.residual) > 0 {
		p := cv.residual[0]
		w := net.awgWave(srcMod, p)
		best := -1
		for idx, j := range cv.avail {
			if net.inLink.link(srcMod, j)[w] == freeLink && net.outLink.link(j, p)[w] == freeLink {
				best = idx
				break
			}
		}
		if best < 0 {
			return
		}
		s.served = append(s.served, p)
		cv.residual = cv.residual[1:]
		cv.take(best, s.served[len(s.served)-1:len(s.served):len(s.served)])
	}
}

// take records a round: candidate avail[idx] serves the given modules.
func (cv *cover) take(idx int, serves []int) {
	cv.rounds = append(cv.rounds, pick{middle: cv.avail[idx], serves: serves})
	cv.avail = append(cv.avail[:idx], cv.avail[idx+1:]...)
}

// countBlocked counts the modules in residual that middle j cannot
// reach, stopping at limit.
func (net *Network) countBlocked(j int, residual []int, needWave wdm.Wavelength, limit int) int {
	n := 0
	for _, p := range residual {
		if net.middleBlocked(j, p, needWave) {
			if n++; n == limit {
				break
			}
		}
	}
	return n
}

// blockedError explains a search that left destination modules
// uncovered, and reports the rejected candidates to the observer.
func (net *Network) blockedError(c wdm.Connection, srcMod int, lastHopWave wdm.Wavelength, fanMods []int, cv cover) *BlockedError {
	if net.params.Construction == AWGClos {
		if len(fanMods) > net.params.X {
			return &BlockedError{
				Detail: fmt.Sprintf("AWG-Clos: %d destination modules need %d middles, split limit x=%d",
					len(fanMods), len(fanMods), net.params.X),
				Report: net.blockReport("add", c, srcMod, anyWave, nil, fanMods),
			}
		}
		p := cv.residual[0]
		w := net.awgWave(srcMod, p)
		return &BlockedError{
			Code: CodeWavelengthConflict,
			Detail: fmt.Sprintf("AWG-Clos: no middle with class wavelength λ%d free on both %d->mid and mid->%d (λ = (dest-src) mod k)",
				w, srcMod, p),
			Report: net.blockReport("add", c, srcMod, w, cv.rounds, cv.residual),
		}
	}
	if len(cv.rounds) == 0 && len(cv.avail) == 0 {
		net.observeNoAvail(int(c.Source.Wave))
		return &BlockedError{
			Detail: fmt.Sprintf("no available middle module from input module %d on λ%d (x=%d)",
				srcMod, c.Source.Wave, net.params.X),
			Report: net.blockReport("add", c, srcMod, lastHopWave, nil, fanMods),
		}
	}
	net.observeLoopBlocked(len(cv.rounds), cv.avail, cv.residual, int(lastHopWave))
	return &BlockedError{
		Detail: fmt.Sprintf("%d destination module(s) uncovered after %d of %d splits (source %v)",
			len(cv.residual), len(cv.rounds), net.params.X, c.Source),
		Report: net.blockReport("add", c, srcMod, lastHopWave, cv.rounds, cv.residual),
	}
}

// availableMiddles appends to dst the middle modules whose link from
// input module a can carry a new connection entering on srcWave
// (Section 3.1), in ascending order.
func (net *Network) availableMiddles(dst []int, a int, srcWave wdm.Wavelength) []int {
	for j, failed := range net.failedMid {
		if failed {
			continue // out of service
		}
		link := net.inLink.link(a, j)
		switch {
		case net.params.Construction == MSWDominant:
			// First two stages cannot retune: the connection's own
			// wavelength must be free on the link.
			if link[srcWave] == freeLink {
				dst = append(dst, j)
			}
		case net.params.ConservativeLinks:
			// Set-semantics ablation: a touched link is off limits.
			if linkUntouched(link) {
				dst = append(dst, j)
			}
		case slices.Contains(link, freeLink):
			// MAW-dominant: any free wavelength will do.
			dst = append(dst, j)
		}
	}
	return dst
}

// inService appends to dst the middle modules not marked failed, in
// ascending order.
func (net *Network) inService(dst []int) []int {
	for j, failed := range net.failedMid {
		if !failed {
			dst = append(dst, j)
		}
	}
	return dst
}

// middleBlocked reports whether middle module j cannot reach output
// module p for this connection. needWave == -1 means any free wavelength
// on the link j->p suffices (the multiset multiplicity-k test of Eq. 4);
// otherwise that specific wavelength must be free.
func (net *Network) middleBlocked(j, p int, needWave wdm.Wavelength) bool {
	if net.params.ConservativeLinks && net.params.Construction == MAWDominant {
		return !linkUntouched(net.outLink.link(j, p))
	}
	if needWave >= 0 {
		return net.outLink.link(j, p)[needWave] != freeLink
	}
	return !slices.Contains(net.outLink.link(j, p), freeLink)
}

func linkUntouched(waves []int) bool {
	for _, v := range waves {
		if v != freeLink {
			return false
		}
	}
	return true
}

// inNeed returns the wavelength the link srcMod->rd.middle must carry,
// or anyWave if the policy may pick.
func (net *Network) inNeed(srcMod int, srcWave wdm.Wavelength, rd pick) wdm.Wavelength {
	switch net.params.Construction {
	case MSWDominant:
		return srcWave
	case AWGClos:
		return net.awgWave(srcMod, rd.serves[0])
	}
	return anyWave
}

// outNeed returns the wavelength the link j->p must carry, or anyWave.
func (net *Network) outNeed(srcMod, p int, lastHopWave wdm.Wavelength) wdm.Wavelength {
	if net.params.Construction == AWGClos {
		return net.awgWave(srcMod, p)
	}
	return lastHopWave
}

// linkWave returns the wavelength to claim on link: need itself when
// the construction fixes it, else the policy's pick among the free
// ones. ok is false when the link cannot carry the connection.
func (net *Network) linkWave(link []int, need wdm.Wavelength) (w wdm.Wavelength, ok bool) {
	if need >= 0 {
		return need, link[need] == freeLink
	}
	return net.pickFreeWave(link)
}

// pickFreeWave selects a free wavelength on the link according to the
// configured wavelength-assignment policy.
func (net *Network) pickFreeWave(link []int) (wdm.Wavelength, bool) {
	best, found := -1, false
	for w, v := range link {
		if v != freeLink {
			continue
		}
		if !found {
			best, found = w, true
			continue
		}
		switch net.params.WavePick {
		case MostUsed:
			if net.waveUse[w] > net.waveUse[best] {
				best = w
			}
		case LeastUsed:
			if net.waveUse[w] < net.waveUse[best] {
				best = w
			}
		default: // FirstFree keeps the lowest index
		}
	}
	return wdm.Wavelength(best), found
}

// claim and free update link occupancy together with the per-plane usage
// counters the wavelength policies consult.
func (net *Network) claim(link []int, w wdm.Wavelength, id int) {
	link[w] = id
	net.waveUse[w]++
}

func (net *Network) free(link []int, w wdm.Wavelength) {
	link[w] = freeLink
	net.waveUse[w]--
}

// freeLinks frees every link wavelength a route records.
func (net *Network) freeLinks(rc *routed) {
	for _, leg := range rc.legs {
		net.free(net.inLink.link(rc.srcMod, leg.Middle), leg.Wave)
	}
	for _, hop := range rc.hops {
		net.free(net.outLink.link(hop.Middle, hop.Out), hop.Wave)
	}
}

// commit materializes the chosen rounds: it claims link wavelengths,
// middles in ascending order and each middle's output hops in ascending
// order, then installs the route, rolling back on any internal
// inconsistency. It reorders rounds.
func (net *Network) commit(c wdm.Connection, srcMod int, lastHopWave wdm.Wavelength, rounds []pick) (int, error) {
	slices.SortFunc(rounds, func(a, b pick) int { return cmp.Compare(a.middle, b.middle) })
	hops := 0
	for _, rd := range rounds {
		hops += len(rd.serves)
	}
	rc := net.newRouted(c, srcMod, len(rounds), hops)
	id := net.nextID
	for _, rd := range rounds {
		j := rd.middle
		w, ok := net.linkWave(net.inLink.link(srcMod, j), net.inNeed(srcMod, c.Source.Wave, rd))
		if !ok {
			net.freeLinks(rc)
			return 0, fmt.Errorf("multistage: internal error: link %d->mid%d cannot carry the connection", srcMod, j)
		}
		net.claim(net.inLink.link(srcMod, j), w, id)
		rc.legs = append(rc.legs, RouteLeg{Middle: j, Wave: w})
		for _, p := range rd.serves {
			ow, ok := net.linkWave(net.outLink.link(j, p), net.outNeed(srcMod, p, lastHopWave))
			if !ok {
				net.freeLinks(rc)
				return 0, fmt.Errorf("multistage: internal error: link mid%d->%d cannot carry the connection", j, p)
			}
			net.claim(net.outLink.link(j, p), ow, id)
			rc.hops = append(rc.hops, RouteHop{Middle: j, Out: p, Wave: ow})
		}
	}
	if err := net.install(id, rc, "internal error"); err != nil {
		return 0, err
	}
	net.nextID++
	return id, nil
}

// install registers a route whose link wavelengths are already claimed
// under id, first adding its middle sub-connections to the nested middle
// networks, if any. On failure it releases what it added, frees the
// route's link claims, and names the rejecting middle after the given
// context.
func (net *Network) install(id int, rc *routed, context string) error {
	if net.mids != nil {
		for i := range rc.midConn {
			rc.midConn[i] = -1
		}
		err := net.subConns(rc, func(st stage, j, i int, c wdm.Connection) error {
			if st != middleStage {
				return nil
			}
			cid, err := net.mids[j].Add(c)
			if err != nil {
				return fmt.Errorf("multistage: %s: middle module %d rejected %v: %w", context, j, c, err)
			}
			rc.midConn[i] = cid
			return nil
		})
		if err != nil {
			_ = net.releaseMids(rc)
			net.freeLinks(rc)
			return err
		}
	}
	net.conns[id] = rc
	net.setSlots(rc.conn, id)
	return nil
}

// releaseMids releases the route's sub-connections in the nested middle
// networks (there are none at Depth 3), skipping any not yet added.
func (net *Network) releaseMids(rc *routed) error {
	for i, cid := range rc.midConn {
		if cid < 0 {
			continue
		}
		if err := net.mids[rc.legs[i].Middle].Release(cid); err != nil {
			return fmt.Errorf("multistage: middle module %d: %w", rc.legs[i].Middle, err)
		}
	}
	return nil
}

// Release tears down a live connection and frees every link wavelength
// and port slot it occupied. The connection's route record is left
// intact, which is what lets AddBranch replay it.
func (net *Network) Release(id int) error {
	rc, ok := net.conns[id]
	if !ok {
		return fmt.Errorf("multistage: no connection with id %d", id)
	}
	if err := net.releaseMids(rc); err != nil {
		return err
	}
	net.freeLinks(rc)
	delete(net.conns, id)
	net.setSlots(rc.conn, freeSlot)
	return nil
}

// Reset releases every live connection.
func (net *Network) Reset() {
	for _, id := range net.ids() {
		if err := net.Release(id); err != nil {
			panic("multistage: Reset lost track of connection: " + err.Error())
		}
	}
}

// AddAssignment routes all connections of an assignment, rolling back on
// the first failure.
func (net *Network) AddAssignment(a wdm.Assignment) ([]int, error) {
	ids := make([]int, 0, len(a))
	for i, c := range a {
		id, err := net.Add(c)
		if err != nil {
			for _, rid := range ids {
				_ = net.Release(rid)
			}
			return nil, fmt.Errorf("connection %d: %w", i, err)
		}
		ids = append(ids, id)
	}
	return ids, nil
}
