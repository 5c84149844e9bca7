package multistage

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/crossbar"
	"repro/internal/wdm"
)

// stage names the three stages of modules a route crosses.
type stage int

const (
	inputStage stage = iota
	middleStage
	outputStage
)

func (st stage) String() string { return [...]string{"input", "middle", "output"}[st] }

// module returns the model and shape of the modules of stage st: r input
// modules n x m, m middle modules r x r, r output modules m x n.
func (p Params) module(st stage) (wdm.Model, wdm.Shape) {
	switch st {
	case inputStage:
		return p.Construction.Stage12Model(), wdm.Shape{In: p.n(), Out: p.M, K: p.K}
	case middleStage:
		return p.Construction.MiddleModel(), wdm.Shape{In: p.R, Out: p.R, K: p.K}
	}
	return p.Model, wdm.Shape{In: p.M, Out: p.n(), K: p.K}
}

// subConns calls fn with the sub-connection a route asks of each module
// it crosses, in stage order: the input module's (i = 0), each middle's
// (i indexes rc.legs), then each output module's (i indexes rc.hops). A
// sub-connection's slots are the module's local ports and the link
// wavelengths the route claims; its Dests live in scratch and are valid
// only during the call. The hops must be grouped by middle in leg order,
// as checkRoute requires. The walk stops at fn's first error.
func (net *Network) subConns(rc *routed, fn func(st stage, mod, i int, c wdm.Connection) error) error {
	s := &net.scratch
	_, srcLocal := net.splitPort(rc.conn.Source.Port)
	c := wdm.Connection{Source: wdm.PortWave{Port: srcLocal, Wave: rc.conn.Source.Wave}, Dests: s.subDests[:0]}
	for _, leg := range rc.legs {
		c.Dests = append(c.Dests, wdm.PortWave{Port: wdm.Port(leg.Middle), Wave: leg.Wave})
	}
	if err := fn(inputStage, rc.srcMod, 0, c); err != nil {
		return err
	}
	h := 0
	for i, leg := range rc.legs {
		c = wdm.Connection{Source: wdm.PortWave{Port: wdm.Port(rc.srcMod), Wave: leg.Wave}, Dests: s.subDests[:0]}
		for ; h < len(rc.hops) && rc.hops[h].Middle == leg.Middle; h++ {
			c.Dests = append(c.Dests, wdm.PortWave{Port: wdm.Port(rc.hops[h].Out), Wave: rc.hops[h].Wave})
		}
		if err := fn(middleStage, leg.Middle, i, c); err != nil {
			return err
		}
	}
	for i, hop := range rc.hops {
		c = wdm.Connection{
			Source: wdm.PortWave{Port: wdm.Port(hop.Middle), Wave: hop.Wave},
			Dests:  net.moduleDests(s.subDests[:0], rc.conn, hop.Out),
		}
		if err := fn(outputStage, hop.Out, i, c); err != nil {
			return err
		}
	}
	return nil
}

// checkRoute refuses a route its modules could not carry. Every hop must
// ride a middle that has a leg; every module sub-connection must be
// admissible under its stage's model and shape, which refuses a link
// out of range, a leg or hop on a wavelength its stage cannot carry, a
// leg that feeds no hop and a hop into a module with no destination;
// and the hops must reach exactly the destination modules, once each.
// An AWG-Clos route must also obey the gratings' laws (awg.go): each
// middle serves one output module, and both of its links ride the class
// wavelength λ = (p − a) mod k.
func (net *Network) checkRoute(rc *routed) error {
	awg := net.params.Construction == AWGClos
	for i, hop := range rc.hops {
		wave, rides := rc.leg(hop.Middle)
		if !rides {
			return fmt.Errorf("output hop rides middle %d with no input leg", hop.Middle)
		}
		if !awg {
			continue
		}
		if i > 0 && rc.hops[i-1].Middle == hop.Middle {
			return fmt.Errorf("AWG-Clos middle %d serves output modules %d and %d: a grating does not split", hop.Middle, rc.hops[i-1].Out, hop.Out)
		}
		if want := net.awgWave(rc.srcMod, hop.Out); wave != want || hop.Wave != want {
			return fmt.Errorf("AWG-Clos route %d->%d->%d rides λ%d then λ%d; the gratings route it on λ%d", rc.srcMod, hop.Middle, hop.Out, wave, hop.Wave, want)
		}
	}
	err := net.subConns(rc, func(st stage, mod, _ int, c wdm.Connection) error {
		model, shape := net.params.module(st)
		if err := shape.CheckConnection(model, c); err != nil {
			return fmt.Errorf("%v module %d: %w", st, mod, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	reached := net.scratch.served[:0]
	for _, hop := range rc.hops {
		reached = append(reached, hop.Out)
	}
	slices.Sort(reached)
	if want := net.destModules(rc.conn); !slices.Equal(reached, want) {
		return fmt.Errorf("hops reach output modules %v, destinations are in %v", reached, want)
	}
	return nil
}

// Verify validates the network end to end:
//
//  1. every live route passes checkRoute, and each nested middle network
//     holds the middle sub-connection each route asks of it and verifies
//     itself;
//  2. the link-occupancy and port-slot tables agree with the routes;
//  3. unless the network was built Lite, the gate-level model built from
//     the routes delivers every signal to exactly its intended slots
//     (see buildOptics).
//
// Together these demonstrate that every live multicast is carried as real
// signal paths through three stages of real switch hardware.
func (net *Network) Verify() error {
	for id, rc := range net.conns {
		if err := net.checkRoute(rc); err != nil {
			return fmt.Errorf("multistage: connection %d: %w", id, err)
		}
	}
	if err := net.verifyNested(); err != nil {
		return err
	}
	if err := net.verifyLinkTables(); err != nil {
		return err
	}
	if err := net.verifySlotTables(); err != nil {
		return err
	}
	if net.params.Lite {
		return nil
	}
	om, err := net.buildOptics()
	if err != nil {
		return err
	}
	return om.verify()
}

// verifyNested checks that each nested middle network carries the middle
// sub-connection every route asks of it and nothing else, then verifies
// each nested network in turn.
func (net *Network) verifyNested() error {
	if net.mids == nil {
		return nil
	}
	asked := make([]int, len(net.mids)) // sub-connections the routes ask of each middle
	for id, rc := range net.conns {
		err := net.subConns(rc, func(st stage, j, i int, want wdm.Connection) error {
			if st != middleStage {
				return nil
			}
			asked[j]++
			got, ok := net.mids[j].Connection(rc.midConn[i])
			if !ok {
				return fmt.Errorf("middle module %d lost sub-connection %d", j, rc.midConn[i])
			}
			if got.Source != want.Source || !slices.Equal(got.Dests, want.Dests) {
				return fmt.Errorf("middle module %d carries %v, route asks %v", j, got, want)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("multistage: connection %d: %w", id, err)
		}
	}
	for j, mid := range net.mids {
		if mid.Len() != asked[j] {
			return fmt.Errorf("multistage: nested middle module %d holds %d connections, its routes ask for %d", j, mid.Len(), asked[j])
		}
		if err := mid.Verify(); err != nil {
			return fmt.Errorf("nested middle module %d: %w", j, err)
		}
	}
	return nil
}

// optics is the gate-level model of a network: a fabric-backed crossbar
// per module, indexed by stage, then module. The middle stage is empty
// when the middles are nested networks, which verify themselves.
type optics [3][]*crossbar.Switch

// buildOptics builds the gate-level model and installs every live
// route's module sub-connections in it, in connection id order.
func (net *Network) buildOptics() (*optics, error) {
	var om optics
	for st := range om {
		if stage(st) == middleStage && net.mids != nil {
			continue
		}
		model, shape := net.params.module(stage(st))
		for range [...]int{net.params.R, net.params.M, net.params.R}[st] {
			om[st] = append(om[st], crossbar.NewShape(model, shape))
		}
	}
	for _, id := range net.ids() {
		err := net.subConns(net.conns[id], func(st stage, mod, _ int, c wdm.Connection) error {
			if len(om[st]) == 0 {
				return nil
			}
			if _, err := om[st][mod].Add(c); err != nil {
				return fmt.Errorf("%v module %d rejected %v: %w", st, mod, c, err)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("multistage: connection %d: %w", id, err)
		}
	}
	return &om, nil
}

// verify propagates every module's signals through its element graph
// and checks each arrives at exactly its sub-connection's destination
// slots.
func (om *optics) verify() error {
	for st, mods := range om {
		for i, m := range mods {
			if _, err := m.Verify(); err != nil {
				return fmt.Errorf("%v module %d: %w", stage(st), i, err)
			}
		}
	}
	return nil
}

// ids returns the live connection ids in ascending order.
func (net *Network) ids() []int {
	ids := make([]int, 0, len(net.conns))
	for id := range net.conns {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// verifyLinkTables cross-checks the link occupancy tables against the
// per-connection routing records.
func (net *Network) verifyLinkTables() error {
	wantIn := make(map[[3]int]int)  // (a, j, w) -> conn id
	wantOut := make(map[[3]int]int) // (j, p, w) -> conn id
	for id, rc := range net.conns {
		for _, leg := range rc.legs {
			wantIn[[3]int{rc.srcMod, leg.Middle, int(leg.Wave)}] = id
		}
		for _, hop := range rc.hops {
			wantOut[[3]int{hop.Middle, hop.Out, int(hop.Wave)}] = id
		}
	}
	for a := range net.inLink.xs {
		for j := range net.inLink.ys {
			for w, got := range net.inLink.link(a, j) {
				want, used := wantIn[[3]int{a, j, w}]
				if used && got != want {
					return fmt.Errorf("multistage: link in%d->mid%d λ%d holds %d, want %d", a, j, w, got, want)
				}
				if !used && got != freeLink {
					return fmt.Errorf("multistage: link in%d->mid%d λ%d leaked (holds %d)", a, j, w, got)
				}
			}
		}
	}
	for j := range net.outLink.xs {
		for p := range net.outLink.ys {
			for w, got := range net.outLink.link(j, p) {
				want, used := wantOut[[3]int{j, p, w}]
				if used && got != want {
					return fmt.Errorf("multistage: link mid%d->out%d λ%d holds %d, want %d", j, p, w, got, want)
				}
				if !used && got != freeLink {
					return fmt.Errorf("multistage: link mid%d->out%d λ%d leaked (holds %d)", j, p, w, got)
				}
			}
		}
	}
	return nil
}

// verifySlotTables cross-checks the port-slot tables against the live
// connections: each connection's slots name it, and no other slot is
// held.
func (net *Network) verifySlotTables() error {
	held := 0
	k := net.params.K
	for id, rc := range net.conns {
		if got := net.srcBusy[rc.conn.Source.Index(k)]; got != id {
			return fmt.Errorf("multistage: source slot %v holds %d, want %d", rc.conn.Source, got, id)
		}
		for _, d := range rc.conn.Dests {
			if got := net.dstBusy[d.Index(k)]; got != id {
				return fmt.Errorf("multistage: destination slot %v holds %d, want %d", d, got, id)
			}
		}
		held += 1 + len(rc.conn.Dests)
	}
	for _, table := range [][]int{net.srcBusy, net.dstBusy} {
		for _, id := range table {
			if id != freeSlot {
				held--
			}
		}
	}
	if held != 0 {
		return fmt.Errorf("multistage: %d port slots leaked", -held)
	}
	return nil
}

// IsBlocked reports whether an Add error means "blocked" (admissible but
// unroutable) rather than "inadmissible request".
func IsBlocked(err error) bool { return errors.Is(err, ErrBlocked) }
