package mesh

import (
	"errors"
	"fmt"

	"repro/internal/multistage"
	"repro/internal/wdm"
)

// AddBranch grows a live session by additional destination slots,
// keeping its id stable — the "join" operation of a long-lived
// multicast session. The grow is atomic: the session is released and
// re-routed with the enlarged destination set; if the enlarged
// hierarchy cannot be placed, the original route is replayed edge for
// edge (the replay claims exactly what the release just freed, so it
// cannot block) and the original error surfaces with its report
// re-tagged as a branch operation.
func (net *Network) AddBranch(id int, dests ...wdm.PortWave) error {
	rc, ok := net.conns[id]
	if !ok {
		return fmt.Errorf("mesh: no connection with id %d", id)
	}
	if len(dests) == 0 {
		return nil
	}
	old := &routed{
		conn: rc.conn.Clone(),
		wave: rc.wave,
		hops: append([]hop(nil), rc.hops...),
	}
	grown := rc.conn.Clone()
	grown.Dests = append(grown.Dests, dests...)
	grown = grown.Normalize()

	if err := net.Shape().CheckConnection(net.params.Model, grown); err != nil {
		return err
	}
	for _, d := range dests {
		if owner, busy := net.dstBusy[d]; busy {
			return fmt.Errorf("mesh: destination slot %v already used by connection %d", d, owner)
		}
	}

	if err := net.Release(id); err != nil {
		return fmt.Errorf("mesh: AddBranch releasing %d: %w", id, err)
	}
	newID, err := net.add(grown)
	if err == nil {
		net.remapID(newID, id)
		return nil
	}
	if rerr := net.reinstallRouted(id, old); rerr != nil {
		return fmt.Errorf("mesh: AddBranch: connection %d lost — restore after failed grow: %v (grow: %w)", id, rerr, err)
	}
	// A grow is not a new routed session: Stats counts only a blocked
	// one, a blocking event.
	net.count(err)
	var be *multistage.BlockedError
	if errors.As(err, &be) && be.Report != nil {
		be.Report.Op = "branch"
	}
	return err
}
