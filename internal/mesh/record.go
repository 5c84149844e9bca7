package mesh

import (
	"fmt"

	"repro/internal/multistage"
	"repro/internal/wdm"
)

// RouteRecord exports the durable description of a live session in the
// repository's common record shape. The mesh has no input-stage legs,
// so In stays empty; each directed ring edge the session occupies
// becomes one Out hop {Middle: from-node, Out: to-node, Wave: ring λ},
// in claim order (walk first, then spurs). A purely source-local
// session exports with no hops at all.
func (net *Network) RouteRecord(id int) (multistage.RouteRecord, bool) {
	rc, ok := net.conns[id]
	if !ok {
		return multistage.RouteRecord{}, false
	}
	rec := multistage.RouteRecord{Conn: wdm.FormatConnection(rc.conn)}
	for _, h := range rc.hops {
		rec.Out = append(rec.Out, multistage.RouteHop{
			Middle: h.from, Out: h.to, Wave: rc.wave,
		})
	}
	return rec, true
}

// Reinstall re-applies a previously exported record verbatim — the WAL
// recovery and cluster standby path. The route is validated as a chain
// of adjacent directed ring edges on one wavelength and claimed exactly
// as recorded; no routing decisions are re-made, so a reinstalled
// session is bit-identical to the one that was exported.
func (net *Network) Reinstall(rec multistage.RouteRecord) (int, error) {
	c, err := wdm.ParseConnection(rec.Conn)
	if err != nil {
		return 0, fmt.Errorf("mesh: reinstall: %w", err)
	}
	if err := net.Shape().CheckConnection(net.params.Model, c); err != nil {
		return 0, fmt.Errorf("mesh: reinstall: %w", err)
	}
	if len(rec.In) > 0 {
		return 0, fmt.Errorf("mesh: reinstall: record has %d input-stage legs; mesh records carry edges in Out only", len(rec.In))
	}
	if id, busy := net.srcBusy[c.Source]; busy {
		return 0, fmt.Errorf("mesh: reinstall: source slot %v already used by connection %d", c.Source, id)
	}
	for _, d := range c.Dests {
		if id, busy := net.dstBusy[d]; busy {
			return 0, fmt.Errorf("mesh: reinstall: destination slot %v already used by connection %d", d, id)
		}
	}
	c = c.Normalize()

	rc := &routed{conn: c, wave: 0}
	for i, hp := range rec.Out {
		if hp.Middle < 0 || hp.Middle >= net.n || hp.Out < 0 || hp.Out >= net.n {
			return 0, fmt.Errorf("mesh: reinstall: hop %d nodes %d->%d out of range [0,%d)", i, hp.Middle, hp.Out, net.n)
		}
		h := hop{from: hp.Middle, to: hp.Out}
		if (h.from+1)%net.n != h.to && (h.to+1)%net.n != h.from {
			return 0, fmt.Errorf("mesh: reinstall: hop %d: %d->%d is not a ring edge", i, h.from, h.to)
		}
		if hp.Wave < 0 || int(hp.Wave) >= net.k {
			return 0, fmt.Errorf("mesh: reinstall: hop %d wavelength %d out of range [0,%d)", i, hp.Wave, net.k)
		}
		if i == 0 {
			rc.wave = hp.Wave
		} else if hp.Wave != rc.wave {
			return 0, fmt.Errorf("mesh: reinstall: hop %d rides λ%d, session rides λ%d (wavelength continuity)", i, hp.Wave, rc.wave)
		}
		if owner := net.edgeSlot(h)[rc.wave]; owner != freeSlot {
			return 0, fmt.Errorf("mesh: reinstall: edge %d->%d λ%d already held by connection %d", h.from, h.to, rc.wave, owner)
		}
		for _, prev := range rc.hops {
			if prev == h {
				return 0, fmt.Errorf("mesh: reinstall: edge %d->%d claimed twice", h.from, h.to)
			}
		}
		rc.hops = append(rc.hops, h)
	}

	return net.commitRouted(c, rc), nil
}

// commitRouted registers an already-validated route under a fresh id.
func (net *Network) commitRouted(c wdm.Connection, rc *routed) int {
	id := net.nextID
	net.claimRoute(id, rc)
	net.conns[id] = rc
	net.srcBusy[c.Source] = id
	for _, d := range c.Dests {
		net.dstBusy[d] = id
	}
	net.nextID++
	return id
}

// reinstallRouted puts a previously released route back under a
// specific id — the rollback path for AddBranch and reroute. The edges
// must still be free (the caller released them moments ago).
func (net *Network) reinstallRouted(id int, rc *routed) error {
	if _, clash := net.conns[id]; clash {
		return fmt.Errorf("mesh: id %d already live", id)
	}
	for _, h := range rc.hops {
		if owner := net.edgeSlot(h)[rc.wave]; owner != freeSlot {
			return fmt.Errorf("mesh: edge %d->%d λ%d no longer free (held by %d)", h.from, h.to, rc.wave, owner)
		}
	}
	net.claimRoute(id, rc)
	net.conns[id] = rc
	net.srcBusy[rc.conn.Source] = id
	for _, d := range rc.conn.Dests {
		net.dstBusy[d] = id
	}
	return nil
}
