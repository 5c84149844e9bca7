package multistage

import (
	"fmt"
	"slices"

	"repro/internal/wdm"
)

// Exported route-record encoding. A RouteRecord is the externally
// serializable form of the internal routing bookkeeping AddBranch's
// restore path replays: the exact middle modules and link wavelengths a
// connection occupies, from which each module's sub-connection follows.
// It is what a durable state plane persists per acknowledged session —
// re-applying the record through Reinstall performs no router search, so
// a recorded route can always be re-materialized into a fabric whose
// recorded resources are free, regardless of how much the network has
// churned or which middle modules have failed since. That turns the
// paper's "state below the bound is always realizable" insight into
// crash recovery: replaying records preserves the zero-blocking
// invariant by construction.

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

// decode converts the record back into the internal routing form and
// refuses it unless checkRoute passes: a record arrives from outside the
// program (a log, a snapshot, a replication frame), and nothing else
// checks what its modules would be asked to carry.
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
	rc := net.newRouted(conn, srcMod, len(rec.In), len(rec.Out))
	rc.legs = append(rc.legs, rec.In...)
	slices.SortFunc(rc.legs, compareLegs)
	rc.hops = append(rc.hops, rec.Out...)
	slices.SortFunc(rc.hops, compareHops)
	if err := net.checkRoute(rc); err != nil {
		return nil, fmt.Errorf("multistage: route record %q: %w", rec.Conn, err)
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
