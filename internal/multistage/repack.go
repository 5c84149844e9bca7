package multistage

import (
	"fmt"
	"sort"

	"repro/internal/wdm"
)

// AddWithRepack routes a connection like Add, but when the request
// blocks it attempts a *rearrangement*: tear every live connection down
// and re-route the whole set with the new request first and the existing
// connections in decreasing-fanout order. Strictly nonblocking operation
// (plain Add) needs the full Theorem 1/2 middle-stage counts;
// rearrangeable operation rides the same hardware much closer to the
// per-module link-capacity floor, at the cost of momentarily re-striping
// live traffic — the classic strict-sense vs rearrangeable trade-off,
// quantified by the repack benchmarks.
//
// The rearrangement is planned on a scratch network first and the
// live network is only touched when the complete plan is known to
// succeed, so a failed attempt leaves the network exactly as it was and
// returns the original blocking error. Existing connections keep their
// ids across a successful repack.
//
// The boolean result reports whether a rearrangement happened. Stats
// counts one outcome per call: the re-routes of a repack are not new
// routed connections.
func (net *Network) AddWithRepack(c wdm.Connection) (id int, repacked bool, err error) {
	defer func() { net.count(err) }()
	id, err = net.add(c)
	if err == nil || !IsBlocked(err) {
		return id, false, err
	}
	blockErr := err

	// Existing connections, largest fanout first (ties: oldest first) —
	// the same packing order the scheduler uses.
	type held struct {
		id   int
		conn wdm.Connection
	}
	existing := make([]held, 0, len(net.conns))
	for hid, rc := range net.conns {
		existing = append(existing, held{id: hid, conn: rc.conn.Clone()})
	}
	sort.Slice(existing, func(a, b int) bool {
		fa, fb := existing[a].conn.Fanout(), existing[b].conn.Fanout()
		if fa != fb {
			return fa > fb
		}
		return existing[a].id < existing[b].id
	})

	// Plan on a scratch network with identical routing parameters and
	// the same middles out of service. The router is deterministic, so a
	// plan that succeeds here succeeds identically on the live network.
	scratch, err := New(net.params)
	if err != nil {
		return 0, false, fmt.Errorf("multistage: repack planning: %w", err)
	}
	copy(scratch.failedMid, net.failedMid)
	if _, err := scratch.add(c); err != nil {
		return 0, false, blockErr
	}
	for _, h := range existing {
		if _, err := scratch.add(h.conn); err != nil {
			return 0, false, blockErr
		}
	}

	// Apply: rebuild the live network along the planned order, then
	// restore the original ids so callers' handles stay valid.
	net.Reset()
	newID, err := net.add(c)
	if err != nil {
		panic("multistage: repack apply diverged from plan: " + err.Error())
	}
	for _, h := range existing {
		rid, err := net.add(h.conn)
		if err != nil {
			panic("multistage: repack apply diverged from plan: " + err.Error())
		}
		net.remapID(rid, h.id)
	}
	return newID, true, nil
}

// remapID renames a live connection's id from `from` to `to` across all
// bookkeeping (the connection map, slot occupancy, and link tables).
// `to` must be unused; ids are never reused by nextID, so restoring a
// historical id is safe.
func (net *Network) remapID(from, to int) {
	rc, ok := net.conns[from]
	if !ok {
		panic(fmt.Sprintf("multistage: remapID: no connection %d", from))
	}
	if _, clash := net.conns[to]; clash {
		panic(fmt.Sprintf("multistage: remapID: id %d already live", to))
	}
	delete(net.conns, from)
	net.conns[to] = rc
	net.setSlots(rc.conn, to)
	for _, leg := range rc.legs {
		net.inLink.link(rc.srcMod, leg.Middle)[leg.Wave] = to
	}
	for _, hop := range rc.hops {
		net.outLink.link(hop.Middle, hop.Out)[hop.Wave] = to
	}
}
