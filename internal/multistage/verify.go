package multistage

import (
	"errors"
	"fmt"

	"repro/internal/fabric"
	"repro/internal/wdm"
)

// Verify validates the network end to end:
//
//  1. every module optically verifies its own live sub-connections
//     (signals propagate through the module's element graph and arrive
//     exactly at the intended slots) — unless the network was built Lite;
//  2. the cross-stage linkage of every network connection is consistent:
//     the input module emits to exactly the (middle module, wavelength)
//     pairs the middle modules receive on, the middle modules emit to
//     exactly the (output module, wavelength) pairs the output modules
//     receive on, and the output modules deliver exactly the network
//     connection's destination slots;
//  3. the link-occupancy and port-slot tables agree with the
//     per-connection routing records.
//
// Together these demonstrate that every live multicast is carried as real
// signal paths through three stages of real switch hardware.
func (net *Network) Verify() error {
	if !net.params.Lite {
		for a, m := range net.inMods {
			if _, err := m.Verify(); err != nil {
				return fmt.Errorf("input module %d: %w", a, err)
			}
		}
		for j, m := range net.midMods {
			switch mod := m.(type) {
			case interface {
				Verify() (*fabric.Result, error)
			}: // a crossbar module
				if _, err := mod.Verify(); err != nil {
					return fmt.Errorf("middle module %d: %w", j, err)
				}
			case *Network: // a nested network: full recursive verification
				if err := mod.Verify(); err != nil {
					return fmt.Errorf("nested middle module %d: %w", j, err)
				}
			}
		}
		for p, m := range net.outMods {
			if _, err := m.Verify(); err != nil {
				return fmt.Errorf("output module %d: %w", p, err)
			}
		}
	}
	for id, rc := range net.conns {
		if err := net.verifyLinkage(id, rc); err != nil {
			return err
		}
	}
	if err := net.verifyLinkTables(); err != nil {
		return err
	}
	return net.verifySlotTables()
}

// verifyLinkage checks the stage-to-stage consistency of one connection.
func (net *Network) verifyLinkage(id int, rc *routed) error {
	// Input module sub-connection: source is the network source's local
	// slot; destinations are the route's (middle, wavelength) legs.
	inConn, ok := net.inMods[rc.srcMod].Connection(rc.inConnID)
	if !ok {
		return fmt.Errorf("multistage: connection %d: input module %d lost sub-connection", id, rc.srcMod)
	}
	_, wantLocal := net.splitPort(rc.conn.Source.Port)
	if inConn.Source.Port != wantLocal || inConn.Source.Wave != rc.conn.Source.Wave {
		return fmt.Errorf("multistage: connection %d: input sub-connection source %v != network source %v",
			id, inConn.Source, rc.conn.Source)
	}
	if len(inConn.Dests) != len(rc.legs) {
		return fmt.Errorf("multistage: connection %d: input module emits to %d middles, routing says %d",
			id, len(inConn.Dests), len(rc.legs))
	}
	for _, d := range inConn.Dests {
		if w, ok := rc.leg(int(d.Port)); !ok || w != d.Wave {
			return fmt.Errorf("multistage: connection %d: input module emits %v, not in routing plan", id, d)
		}
	}

	// Middle modules: source = (input module, leg wavelength); dests must
	// match the route's hops.
	for i, leg := range rc.legs {
		j := leg.Middle
		mc, ok := net.midMods[j].Connection(rc.midConn[i])
		if !ok {
			return fmt.Errorf("multistage: connection %d: middle module %d lost sub-connection", id, j)
		}
		if int(mc.Source.Port) != rc.srcMod || mc.Source.Wave != leg.Wave {
			return fmt.Errorf("multistage: connection %d: middle %d receives on %v, input stage sends on (p%d,λ%d)",
				id, j, mc.Source, rc.srcMod, leg.Wave)
		}
		for _, d := range mc.Dests {
			if w, ok := rc.hop(j, int(d.Port)); !ok || w != d.Wave {
				return fmt.Errorf("multistage: connection %d: middle %d emits %v, not in routing plan", id, j, d)
			}
		}
	}

	// Output modules: delivered local slots must reassemble exactly the
	// network destination set.
	delivered := make(map[wdm.PortWave]bool)
	for i, hop := range rc.hops {
		p := hop.Out
		oc, ok := net.outMods[p].Connection(rc.outConn[i])
		if !ok {
			return fmt.Errorf("multistage: connection %d: output module %d lost sub-connection", id, p)
		}
		if w, ok := rc.hop(int(oc.Source.Port), p); !ok || w != oc.Source.Wave {
			return fmt.Errorf("multistage: connection %d: output module %d receives on %v, not in routing plan",
				id, p, oc.Source)
		}
		for _, d := range oc.Dests {
			global := wdm.PortWave{Port: wdm.Port(p*net.nPorts) + d.Port, Wave: d.Wave}
			delivered[global] = true
		}
	}
	if len(delivered) != len(rc.conn.Dests) {
		return fmt.Errorf("multistage: connection %d: delivers %d slots, wants %d", id, len(delivered), len(rc.conn.Dests))
	}
	for _, d := range rc.conn.Dests {
		if !delivered[d] {
			return fmt.Errorf("multistage: connection %d: destination %v never delivered", id, d)
		}
	}
	return nil
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
