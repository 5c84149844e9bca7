package traffic_test

import (
	"fmt"

	"repro/internal/multistage"
	"repro/internal/traffic"
	"repro/internal/wdm"
)

// The blocking-vs-m series of EXPERIMENTS.md (seed 1, 2000 arrivals at
// 12 Erlangs on N=16 k=2 r=4): dynamic traffic against an undersized
// middle stage blocks, and from well below the sufficient bound m=13 it
// never does — Theorem 1 as a simulation. A change to the request
// stream fails this example instead of silently invalidating the doc.
func ExampleOffline_SweepM() {
	off := traffic.Offline{
		Base:   multistage.Params{N: 16, K: 2, R: 4, Model: wdm.MSW, Construction: multistage.MSWDominant},
		Engine: traffic.Config{Seed: 1, Arrivals: 2000, Erlangs: 12},
	}
	points, err := off.SweepM([]int{1, 3, 6, 9, 13, 16})
	if err != nil {
		panic(err)
	}
	for _, pt := range points {
		s := pt.Stats
		fmt.Printf("m=%2d: offered %d, routed %d, blocked %d\n", pt.M, s.Connects, s.Routed, s.Blocked)
	}
	// Output:
	// m= 1: offered 2000, routed 546, blocked 1454
	// m= 3: offered 1974, routed 1410, blocked 564
	// m= 6: offered 1832, routed 1832, blocked 0
	// m= 9: offered 1832, routed 1832, blocked 0
	// m=13: offered 1832, routed 1832, blocked 0
	// m=16: offered 1832, routed 1832, blocked 0
}
