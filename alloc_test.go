//go:build !race

package repro

import "testing"

// maxRouteAllocs caps the heap allocations of one Add+Release of a
// fanout-16 multicast in a loaded 1024-port network. It measures 5: the
// duplicate-port check of the unsorted request, its normalized copy, and
// the route record (three allocations: the record, its legs and its
// hops). The route search itself allocates nothing. With a crossbar
// module per stage mirroring the link tables, each keeping a normalized
// copy of its sub-connection, it measured 21; the map-based router
// measured 1127.
const maxRouteAllocs = 7

// TestRouteAllocationCeiling holds the route search to its allocation
// budget on the shape of the ladder's multicast-bound workload: N=1024,
// k=4, r=32 at the Theorem 1 bound, with about 60% of the destination
// slots busy, so the greedy cover scans real candidates. The race
// detector allocates on its own account, hence the build tag.
func TestRouteAllocationCeiling(t *testing.T) {
	net, probes := loadedMulticastBound(t, 16)
	c := probes[0]
	allocs := testing.AllocsPerRun(200, func() {
		id, err := net.Add(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Release(id); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Add+Release of a fanout-%d multicast: %.0f allocations", c.Fanout(), allocs)
	if allocs > maxRouteAllocs {
		t.Errorf("Add+Release allocates %.0f times, ceiling %d", allocs, maxRouteAllocs)
	}
}
