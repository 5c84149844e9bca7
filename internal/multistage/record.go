package multistage

import (
	"fmt"
	"slices"

	"repro/internal/wdm"
)

// Exported route-record encoding. A RouteRecord is the externally
// serializable form of the internal routing bookkeeping AddBranch's
// restore path replays: the exact middle modules, link wavelengths and
// (implicitly) module sub-connections a connection occupies. It is what
// a durable state plane persists per acknowledged session — re-applying
// the record through Reinstall performs no router search, so a recorded
// route can always be re-materialized into a fabric whose recorded
// resources are free, regardless of how much the network has churned or
// which middle modules have failed since. That turns the paper's
// "state below the bound is always realizable" insight into crash
// recovery: replaying records preserves the zero-blocking invariant by
// construction.

// RouteLeg is one claimed input-stage link wavelength: the link from
// the connection's input module to middle module Middle carries the
// connection on Wave.
type RouteLeg struct {
	Middle int            `json:"middle"`
	Wave   wdm.Wavelength `json:"wave"`
}

// RouteHop is one claimed output-stage link wavelength: the link from
// middle module Middle to output module Out carries the connection on
// Wave.
type RouteHop struct {
	Middle int            `json:"middle"`
	Out    int            `json:"out"`
	Wave   wdm.Wavelength `json:"wave"`
}

// RouteRecord is the full serializable route of one live connection.
// Conn uses the repository's compact text codec (package wdm) so the
// record is self-describing in logs and dumps.
type RouteRecord struct {
	Conn string     `json:"conn"`
	In   []RouteLeg `json:"in"`
	Out  []RouteHop `json:"out"`
}

// RouteRecord exports the recorded route of live connection id. The
// slices are ordered (legs by middle, hops by middle then output
// module) so equal routes encode identically.
func (net *Network) RouteRecord(id int) (RouteRecord, bool) {
	rc, ok := net.conns[id]
	if !ok {
		return RouteRecord{}, false
	}
	return RouteRecord{Conn: wdm.FormatConnection(rc.conn), In: slices.Clone(rc.legs), Out: slices.Clone(rc.hops)}, true
}

// decode converts the record back into the internal routing form,
// validating it against the network's shape.
func (rec RouteRecord) decode(net *Network) (*routed, error) {
	conn, err := wdm.ParseConnection(rec.Conn)
	if err != nil {
		return nil, fmt.Errorf("multistage: route record: %w", err)
	}
	conn = conn.Normalize()
	if err := net.Shape().CheckConnection(net.params.Model, conn); err != nil {
		return nil, fmt.Errorf("multistage: route record %q: %w", rec.Conn, err)
	}
	srcMod, _ := net.splitPort(conn.Source.Port)
	rc := newRouted(conn, srcMod, len(rec.In), len(rec.Out))
	for _, leg := range rec.In {
		if leg.Middle < 0 || leg.Middle >= len(net.midMods) || int(leg.Wave) < 0 || int(leg.Wave) >= net.params.K {
			return nil, fmt.Errorf("multistage: route record %q: input leg %+v out of range", rec.Conn, leg)
		}
	}
	rc.legs = append(rc.legs, rec.In...)
	slices.SortFunc(rc.legs, compareLegs)
	for i := 1; i < len(rc.legs); i++ {
		if rc.legs[i].Middle == rc.legs[i-1].Middle {
			return nil, fmt.Errorf("multistage: route record %q: duplicate input leg for middle %d", rec.Conn, rc.legs[i].Middle)
		}
	}
	for _, hop := range rec.Out {
		if hop.Middle < 0 || hop.Middle >= len(net.midMods) || hop.Out < 0 || hop.Out >= net.params.R ||
			int(hop.Wave) < 0 || int(hop.Wave) >= net.params.K {
			return nil, fmt.Errorf("multistage: route record %q: output hop %+v out of range", rec.Conn, hop)
		}
	}
	rc.hops = append(rc.hops, rec.Out...)
	slices.SortFunc(rc.hops, compareHops)
	for i, hop := range rc.hops {
		if i > 0 && hop.Middle == rc.hops[i-1].Middle && hop.Out == rc.hops[i-1].Out {
			return nil, fmt.Errorf("multistage: route record %q: duplicate output hop %v", rec.Conn, [2]int{hop.Middle, hop.Out})
		}
		if _, rides := rc.leg(hop.Middle); !rides {
			return nil, fmt.Errorf("multistage: route record %q: output hop rides middle %d with no input leg", rec.Conn, hop.Middle)
		}
	}
	if len(rc.legs) == 0 {
		return nil, fmt.Errorf("multistage: route record %q: no input legs", rec.Conn)
	}
	return rc, nil
}

// Reinstall re-materializes a recorded route exactly as recorded under
// a fresh connection id, with no router search: it succeeds whenever
// the recorded slots and link wavelengths are free. It is the crash-
// recovery primitive — a set of records that coexisted in a fabric is
// mutually conflict-free, so replaying all of them into an empty fabric
// of the same parameters cannot fail, and therefore cannot block,
// whatever the middle-stage provisioning or failure state.
func (net *Network) Reinstall(rec RouteRecord) (int, error) {
	rc, err := rec.decode(net)
	if err != nil {
		return 0, err
	}
	k := net.params.K
	if owner := net.srcBusy[rc.conn.Source.Index(k)]; owner != freeSlot {
		return 0, fmt.Errorf("multistage: reinstall %q: source slot used by connection %d", rec.Conn, owner)
	}
	for _, d := range rc.conn.Dests {
		if owner := net.dstBusy[d.Index(k)]; owner != freeSlot {
			return 0, fmt.Errorf("multistage: reinstall %q: destination slot %v used by connection %d", rec.Conn, d, owner)
		}
	}
	id := net.nextID
	if err := net.reinstall(id, rc); err != nil {
		return 0, err
	}
	net.nextID++
	return id, nil
}
