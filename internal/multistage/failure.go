package multistage

import (
	"fmt"
	"sort"
)

// Middle-stage failure handling. A failed middle module (amplifier
// pump death, gate-array power loss, fiber cut on its links) is removed
// from the router's available set; connections that were riding it can
// be enumerated and re-routed around it. The nonblocking margin
// composes: a network provisioned with m = bound + f middle modules
// tolerates any f simultaneous middle failures without ever blocking —
// asserted by the failure tests.

// FailMiddle marks middle module j as failed. Existing connections
// through it are NOT touched (their light is dark until re-routed); new
// routing skips the module. Failing an already-failed module is a no-op.
func (net *Network) FailMiddle(j int) error {
	if j < 0 || j >= net.params.M {
		return fmt.Errorf("multistage: no middle module %d", j)
	}
	net.failedMid[j] = true
	return nil
}

// RepairMiddle returns a failed middle module to service.
func (net *Network) RepairMiddle(j int) error {
	if j < 0 || j >= net.params.M {
		return fmt.Errorf("multistage: no middle module %d", j)
	}
	net.failedMid[j] = false
	return nil
}

// FailedMiddles lists the currently failed middle modules in order.
func (net *Network) FailedMiddles() []int {
	out := []int{}
	for j, failed := range net.failedMid {
		if failed {
			out = append(out, j)
		}
	}
	return out
}

// AffectedBy returns the ids of live connections routed through middle
// module j, in id order.
func (net *Network) AffectedBy(j int) []int {
	var out []int
	for id, rc := range net.conns {
		if _, uses := rc.leg(j); uses {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// MiddlesUsed lists the middle modules a live connection's route rides,
// in order (AffectedBy answers the inverse question). It reports false
// for an unknown id.
func (net *Network) MiddlesUsed(id int) ([]int, bool) {
	rc, ok := net.conns[id]
	if !ok {
		return nil, false
	}
	out := make([]int, len(rc.legs))
	for i, leg := range rc.legs {
		out[i] = leg.Middle
	}
	return out, true
}

// Migration records one connection moved off a failed middle module:
// the id is stable across the move, the middle-module sets are the
// route before and after.
type Migration struct {
	ID   int   `json:"id"`
	From []int `json:"from"` // middle modules before the move
	To   []int `json:"to"`   // middle modules after
}

// RerouteAroundReport releases every connection riding the (typically
// failed) middle module j and re-routes it avoiding failed modules.
// Re-routed connections keep their ids; each comes back as a Migration
// carrying its old and new middle-module sets, the record a control
// plane needs to update session tables, trace captures, and spans. The
// ids it could not re-route are dropped (the optical reality: no path,
// no light). Stats counts neither a migration nor a drop: the
// connection was counted when it was first added.
func (net *Network) RerouteAroundReport(j int) (migrated []Migration, dropped []int, err error) {
	affected := net.AffectedBy(j)
	for _, id := range affected {
		from, _ := net.MiddlesUsed(id)
		conn := net.conns[id].conn.Clone()
		if err := net.Release(id); err != nil {
			return migrated, dropped, fmt.Errorf("multistage: releasing %d: %w", id, err)
		}
		newID, addErr := net.add(conn)
		if addErr != nil {
			if IsBlocked(addErr) {
				dropped = append(dropped, id)
				continue
			}
			return migrated, dropped, fmt.Errorf("multistage: re-adding %d: %w", id, addErr)
		}
		net.remapID(newID, id)
		to, _ := net.MiddlesUsed(id)
		migrated = append(migrated, Migration{ID: id, From: from, To: to})
	}
	return migrated, dropped, nil
}
