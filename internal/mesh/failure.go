package mesh

import (
	"fmt"
	"sort"

	"repro/internal/multistage"
)

// Node failure handling. The mesh's failure plane speaks the same
// vocabulary as the Clos constructions' middle-module plane — here the
// "middles" are the ring nodes themselves (Normalize pins M = N), so
// FailMiddle(j) takes node j out of service: the router will not
// source, terminate, or forward new light through it. Existing
// sessions are untouched until rerouted.

// FailMiddle marks node j out of service. Failing an already-failed
// node is a no-op.
func (net *Network) FailMiddle(j int) error {
	if j < 0 || j >= net.n {
		return fmt.Errorf("mesh: no node %d", j)
	}
	if net.failedNode == nil {
		net.failedNode = make(map[int]bool)
	}
	net.failedNode[j] = true
	return nil
}

// RepairMiddle returns a failed node to service.
func (net *Network) RepairMiddle(j int) error {
	if j < 0 || j >= net.n {
		return fmt.Errorf("mesh: no node %d", j)
	}
	delete(net.failedNode, j)
	return nil
}

// FailedMiddles lists the currently failed nodes in order.
func (net *Network) FailedMiddles() []int {
	out := make([]int, 0, len(net.failedNode))
	for j := range net.failedNode {
		out = append(out, j)
	}
	sort.Ints(out)
	return out
}

// affectedBy returns the ids of live sessions whose light touches node
// j (as source, destination, or pass-through), in id order.
func (net *Network) affectedBy(j int) []int {
	var out []int
	for id, rc := range net.conns {
		for _, node := range rc.nodesTouched() {
			if node == j {
				out = append(out, id)
				break
			}
		}
	}
	sort.Ints(out)
	return out
}

// middlesUsed lists the nodes a live session's light touches, in order.
// It reports false for an unknown id.
func (net *Network) middlesUsed(id int) ([]int, bool) {
	rc, ok := net.conns[id]
	if !ok {
		return nil, false
	}
	return rc.nodesTouched(), true
}

// RerouteAroundReport releases every session touching node j
// (typically just failed) and re-routes it around the failure set.
// Sessions keep their ids; each restored one comes back with its old
// and new node sets, and the ids that could not be re-placed are
// dropped. A session whose source or destination sits ON the failed
// node is necessarily dropped (no reroute can move an endpoint). Stats
// counts neither a migration nor a drop: the session was counted when
// it was first added.
func (net *Network) RerouteAroundReport(j int) (migrated []multistage.Migration, dropped []int, err error) {
	affected := net.affectedBy(j)
	for _, id := range affected {
		from, _ := net.middlesUsed(id)
		conn := net.conns[id].conn.Clone()
		if err := net.Release(id); err != nil {
			return migrated, dropped, fmt.Errorf("mesh: releasing %d: %w", id, err)
		}
		newID, addErr := net.add(conn)
		if addErr != nil {
			if multistage.IsBlocked(addErr) {
				dropped = append(dropped, id)
				continue
			}
			return migrated, dropped, fmt.Errorf("mesh: re-adding %d: %w", id, addErr)
		}
		net.remapID(newID, id)
		to, _ := net.middlesUsed(id)
		migrated = append(migrated, multistage.Migration{ID: id, From: from, To: to})
	}
	return migrated, dropped, nil
}
