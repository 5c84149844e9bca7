package multistage

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/wdm"
)

// AddBranch grows a live multicast connection by one or more additional
// destination slots, keeping its id stable — the control-plane "join"
// operation of a long-lived multicast session (a new receiver tuning
// into an ongoing video feed).
//
// The grown connection must be admissible under the network's multicast
// model as a whole: the new slots must be free, must not repeat an
// output port the connection already reaches, and must satisfy the
// model's wavelength rule relative to the existing endpoints. The grow
// is atomic — on any failure (inadmissible request or ErrBlocked when
// the enlarged destination set cannot be covered within the split limit
// x) the original connection is left exactly as it was, still routed and
// still carrying its id.
//
// Internally the connection is re-routed from scratch: released, then
// re-added with the enlarged destination set. When the grow fails, the
// original connection is restored by replaying its recorded route — the
// exact middle modules and link wavelengths it held before the release,
// which Release leaves in the record — rather than by re-routing it. Replay does not consult the router, so
// restoration cannot block no matter how the rest of the network has
// churned since the connection first routed, how far m sits below the
// sufficient bound, or which middle modules have since failed.
func (net *Network) AddBranch(id int, dests ...wdm.PortWave) error {
	rc, ok := net.conns[id]
	if !ok {
		return fmt.Errorf("multistage: no connection with id %d", id)
	}
	if len(dests) == 0 {
		return nil
	}
	grown := wdm.Connection{Source: rc.conn.Source, Dests: append(slices.Clip(rc.conn.Dests), dests...)}.Normalize()

	// Reject inadmissible grows before touching any routing state.
	// Shape.CheckConnection covers range, duplicate output ports (both
	// among the new slots and against the existing destinations) and the
	// model's wavelength rule; the busy check must exclude the
	// connection's own slots, which Release is about to free.
	if err := net.Shape().CheckConnection(net.params.Model, grown); err != nil {
		return err
	}
	if err := net.destsFree(dests); err != nil {
		return err
	}

	// Stats() counts logical operations: a successful grow is not a new
	// routed connection and the restoration of the original is not a new
	// routed connection either, so snapshot the counters and apply only
	// the one delta that matters — a blocked grow is a blocking event.
	routed0, blocked0 := net.routedCount, net.blockedCount

	if err := net.Release(id); err != nil {
		return fmt.Errorf("multistage: AddBranch releasing %d: %w", id, err)
	}
	newID, err := net.Add(grown)
	if err == nil {
		net.remapID(newID, id)
		net.routedCount, net.blockedCount = routed0, blocked0
		return nil
	}
	if rerr := net.reinstall(id, rc); rerr != nil {
		// Unreachable by construction: the release just freed every
		// resource the replay claims. Surface the corruption instead of
		// leaving the caller without its connection silently.
		return fmt.Errorf("multistage: AddBranch: connection %d lost — restore after failed grow: %v (grow: %w)", id, rerr, err)
	}
	net.routedCount, net.blockedCount = routed0, blocked0+1
	// The forensic report was built by the internal re-route; re-tag it
	// so consumers see the operation that actually blocked.
	var be *BlockedError
	if errors.As(err, &be) && be.Report != nil {
		be.Report.Op = "branch"
	}
	return err
}

// reinstall re-materializes a released route exactly as recorded,
// registering it under the given id: same middle modules and link
// wavelengths, hence the same module sub-connections. Unlike Add it
// performs no routing search, so it succeeds whenever the recorded
// resources are free — which they are immediately after the route is
// released, regardless of network churn or middle-module failures since
// the original routing. It is AddBranch's restore path and Reinstall's.
func (net *Network) reinstall(id int, rc *routed) error {
	if _, clash := net.conns[id]; clash {
		return fmt.Errorf("multistage: reinstall: id %d already live", id)
	}
	// Every recorded link claim must be free before anything is touched;
	// a conflict means the route was never fully released.
	for _, leg := range rc.legs {
		if net.inLink.link(rc.srcMod, leg.Middle)[leg.Wave] != freeLink {
			return fmt.Errorf("multistage: reinstall: link %d->mid%d λ%d not free", rc.srcMod, leg.Middle, leg.Wave)
		}
	}
	for _, hop := range rc.hops {
		if net.outLink.link(hop.Middle, hop.Out)[hop.Wave] != freeLink {
			return fmt.Errorf("multistage: reinstall: link mid%d->%d λ%d not free", hop.Middle, hop.Out, hop.Wave)
		}
	}
	for _, leg := range rc.legs {
		net.claim(net.inLink.link(rc.srcMod, leg.Middle), leg.Wave, id)
	}
	for _, hop := range rc.hops {
		net.claim(net.outLink.link(hop.Middle, hop.Out), hop.Wave, id)
	}
	return net.install(id, rc, "reinstall")
}
