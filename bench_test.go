// Package repro's top-level benchmarks regenerate every quantitative
// artifact of the paper — Table 1 (capacities, crosspoints, converters),
// Table 2 (crossbar vs multistage cost), the Theorem 1/2 nonblocking
// bounds, and the blocking-probability validation series — as benchmark
// metrics, so `go test -bench . -benchmem` doubles as the experiment
// harness. EXPERIMENTS.md maps each benchmark to its table or figure.
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/analytic"
	"repro/internal/benes"
	"repro/internal/capacity"
	"repro/internal/crossbar"
	"repro/internal/multistage"
	"repro/internal/schedule"
	"repro/internal/traffic"
	"repro/internal/wdm"
	"repro/internal/workload"
)

// BenchmarkTable1Capacity regenerates Table 1's capacity rows: each
// sub-benchmark reports the full- and any-multicast capacities (as
// log10(x), since the raw counts overflow float64) for one (model, N, k).
func BenchmarkTable1Capacity(b *testing.B) {
	for _, size := range []struct{ n, k int64 }{{2, 2}, {4, 2}, {8, 4}, {16, 8}} {
		for _, m := range wdm.Models {
			b.Run(fmt.Sprintf("%v/N=%d/k=%d", m, size.n, size.k), func(b *testing.B) {
				var fullDigits, anyDigits int
				for i := 0; i < b.N; i++ {
					fullDigits = len(capacity.Full(m, size.n, size.k).String())
					anyDigits = len(capacity.Any(m, size.n, size.k).String())
				}
				b.ReportMetric(float64(fullDigits), "full-digits")
				b.ReportMetric(float64(anyDigits), "any-digits")
			})
		}
	}
}

// BenchmarkTable1Crosspoints regenerates Table 1's cost rows by building
// the real fabric and reporting audited element counts.
func BenchmarkTable1Crosspoints(b *testing.B) {
	for _, size := range []struct{ n, k int }{{4, 2}, {8, 2}, {8, 4}} {
		for _, m := range wdm.Models {
			b.Run(fmt.Sprintf("%v/N=%d/k=%d", m, size.n, size.k), func(b *testing.B) {
				var cost crossbar.Cost
				for i := 0; i < b.N; i++ {
					s := crossbar.New(m, wdm.Dim{N: size.n, K: size.k})
					cost = s.Cost()
				}
				b.ReportMetric(float64(cost.Crosspoints), "crosspoints")
				b.ReportMetric(float64(cost.Converters), "converters")
			})
		}
	}
}

// BenchmarkTable2Cost regenerates Table 2: for each model and size it
// reports the crossbar (CB) and MSW-dominant multistage (MS) crosspoint
// and converter counts. The "who wins and by how much" shape — MS
// overtaking CB as N grows, identical MSDW/MAW crosspoints, the converter
// gap between MSDW and MAW — is the paper's claim.
func BenchmarkTable2Cost(b *testing.B) {
	const k = 2
	for _, n := range []int{64, 256, 1024, 4096} {
		r := squareSplit(n)
		nPer := n / r
		for _, m := range wdm.Models {
			b.Run(fmt.Sprintf("%v/N=%d", m, n), func(b *testing.B) {
				var cb, ms crossbar.Cost
				for i := 0; i < b.N; i++ {
					cb = crossbar.CostFormula(m, wdm.Shape{In: n, Out: n, K: k})
					mm, xx := multistage.SufficientMinM(multistage.MSWDominant, m, nPer, r, k)
					var err error
					ms, err = multistage.CostFormula(multistage.Params{
						N: n, K: k, R: r, M: mm, X: xx, Model: m,
						Construction: multistage.MSWDominant,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(cb.Crosspoints), "CB-crosspoints")
				b.ReportMetric(float64(ms.Crosspoints), "MS-crosspoints")
				b.ReportMetric(float64(cb.Converters), "CB-converters")
				b.ReportMetric(float64(ms.Converters), "MS-converters")
				b.ReportMetric(float64(cb.Crosspoints)/float64(ms.Crosspoints), "CB/MS-ratio")
			})
		}
	}
}

// BenchmarkTheorem1Bound reports the minimal middle-stage count and the
// optimizing split limit x for the MSW-dominant construction.
func BenchmarkTheorem1Bound(b *testing.B) {
	for _, nr := range [][2]int{{4, 4}, {8, 8}, {16, 16}, {32, 32}, {64, 64}} {
		n, r := nr[0], nr[1]
		b.Run(fmt.Sprintf("n=%d/r=%d", n, r), func(b *testing.B) {
			var m, x int
			for i := 0; i < b.N; i++ {
				m = multistage.Theorem1MinM(n, r)
				x = multistage.Theorem1BestX(n, r)
			}
			b.ReportMetric(float64(m), "min-m")
			b.ReportMetric(float64(x), "best-x")
			b.ReportMetric(float64(multistage.AsymptoticM(n, r)), "asymptotic-m")
		})
	}
}

// BenchmarkTheorem2Bound does the same for the MAW-dominant construction,
// sweeping k to show its bound's (mild) wavelength dependence.
func BenchmarkTheorem2Bound(b *testing.B) {
	for _, nr := range [][2]int{{8, 8}, {16, 16}, {32, 32}} {
		for _, k := range []int{1, 2, 4, 8} {
			n, r := nr[0], nr[1]
			b.Run(fmt.Sprintf("n=%d/r=%d/k=%d", n, r, k), func(b *testing.B) {
				var m int
				for i := 0; i < b.N; i++ {
					m = multistage.Theorem2MinM(n, r, k)
				}
				b.ReportMetric(float64(m), "min-m")
				b.ReportMetric(float64(multistage.Theorem1MinM(n, r)), "theorem1-m")
			})
		}
	}
}

// BenchmarkBlockingVsM runs the dynamic-traffic validation series: the
// blocking probability at fractions of the sufficient middle-stage bound.
// P_block must be 0 at the bound (metric "pblock-at-bound") and clearly
// positive at a quarter of it — the empirical content of Theorems 1/2.
func BenchmarkBlockingVsM(b *testing.B) {
	base := multistage.Params{N: 16, K: 2, R: 4, Model: wdm.MSW, Lite: true}
	suffM, _ := multistage.SufficientMinM(multistage.MSWDominant, wdm.MSW, 4, 4, 2)
	for _, frac := range []struct {
		name string
		m    int
	}{
		{"m=quarter", max(1, suffM/4)},
		{"m=half", max(1, suffM/2)},
		{"m=bound", suffM},
	} {
		b.Run(frac.name, func(b *testing.B) {
			off := traffic.Offline{Base: base, Engine: traffic.Config{Arrivals: 600, Erlangs: 10, MaxFanout: 8}}
			var p float64
			for i := 0; i < b.N; i++ {
				s, err := off.Run(frac.m, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				p = s.PBlock()
				if frac.m == suffM && s.Blocked != 0 {
					b.Fatalf("blocked %d requests at the sufficient bound", s.Blocked)
				}
			}
			b.ReportMetric(float64(frac.m), "m")
			b.ReportMetric(p, "pblock")
		})
	}
}

// BenchmarkCrossbarRouting measures connection setup/teardown throughput
// on the crossbars (one op = one Add + one Release of a fanout-4
// multicast). The per-model sub-benchmarks drive gate-level fabrics,
// whose gate work dominates; lite/<model> drives the lite switches the
// multistage networks are built from, so it prices the bookkeeping
// alone.
func BenchmarkCrossbarRouting(b *testing.B) {
	d := wdm.Dim{N: 16, K: 4}
	c := wdm.Connection{
		Source: wdm.PortWave{Port: 0, Wave: 0},
		Dests: []wdm.PortWave{
			{Port: 1, Wave: 0}, {Port: 5, Wave: 0},
			{Port: 9, Wave: 0}, {Port: 13, Wave: 0},
		},
	}
	run := func(b *testing.B, s *crossbar.Switch) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			id, err := s.Add(c)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Release(id); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, m := range wdm.Models {
		b.Run(m.String(), func(b *testing.B) { run(b, crossbar.New(m, d)) })
	}
	for _, m := range wdm.Models {
		b.Run("lite/"+m.String(), func(b *testing.B) { run(b, crossbar.NewLite(m, d.Shape())) })
	}
}

// BenchmarkMultistageRouting measures end-to-end three-stage routing
// throughput (greedy Lemma 4 middle-stage selection included) for both
// constructions. Into an empty network the first candidate middle
// always covers every destination module, so the loaded sub-benchmark
// routes into one at the ladder's multicast-bound shape (N=1024, k=4,
// r=32, MSW at the Theorem 1 bound, ~60% of output slots busy), where
// the greedy cover scans and rejects real candidates.
func BenchmarkMultistageRouting(b *testing.B) {
	b.Run("loaded", func(b *testing.B) {
		fanouts := make([]int, 64)
		for i := range fanouts {
			fanouts[i] = 1 + i%32
		}
		net, probes := loadedMulticastBound(b, fanouts...)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id, err := net.Add(probes[i%len(probes)])
			if err != nil {
				b.Fatal(err)
			}
			if err := net.Release(id); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, constr := range []multistage.Construction{multistage.MSWDominant, multistage.MAWDominant} {
		b.Run(constr.String(), func(b *testing.B) {
			net, err := multistage.New(multistage.Params{
				N: 64, K: 4, R: 8, Model: wdm.MAW, Construction: constr, Lite: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			c := wdm.Connection{
				Source: wdm.PortWave{Port: 0, Wave: 0},
				Dests: []wdm.PortWave{
					{Port: 9, Wave: 1}, {Port: 18, Wave: 0},
					{Port: 33, Wave: 2}, {Port: 60, Wave: 3},
				},
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, err := net.Add(c)
				if err != nil {
					b.Fatal(err)
				}
				if err := net.Release(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// loadedMulticastBound fills about 60% of the output slots of a
// multicast-bound-shaped network (N=1024, k=4, r=32, MSW at the
// Theorem 1 bound) with seeded multicasts of fanout 1..32 and returns it
// with one free multicast per entry of fanouts, each routable from that
// state. Their destinations come in random order, as clients send them.
func loadedMulticastBound(tb testing.TB, fanouts ...int) (*multistage.Network, []wdm.Connection) {
	tb.Helper()
	const n, k, r = 1024, 4, 32
	net, err := multistage.New(multistage.Params{N: n, K: k, R: r, Model: wdm.MSW, Lite: true})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	srcBusy, dstBusy := make([]bool, n*k), make([]bool, n*k)
	draw := func(fanout int) wdm.Connection {
		for {
			src := wdm.PortWave{Port: wdm.Port(rng.Intn(n)), Wave: wdm.Wavelength(rng.Intn(k))}
			if srcBusy[src.Index(k)] {
				continue
			}
			c := wdm.Connection{Source: src}
			seen := map[wdm.Port]bool{}
			for len(c.Dests) < fanout {
				d := wdm.PortWave{Port: wdm.Port(rng.Intn(n)), Wave: src.Wave}
				if !seen[d.Port] && !dstBusy[d.Index(k)] {
					seen[d.Port] = true
					c.Dests = append(c.Dests, d)
				}
			}
			return c
		}
	}
	for busy := 0; busy < n*k*6/10; {
		c := draw(1 + rng.Intn(32))
		if _, err := net.Add(c); err != nil {
			tb.Fatalf("preload at the bound: %v", err)
		}
		srcBusy[c.Source.Index(k)] = true
		for _, d := range c.Dests {
			dstBusy[d.Index(k)] = true
		}
		busy += c.Fanout()
	}
	probes := make([]wdm.Connection, len(fanouts))
	for i, f := range fanouts {
		probes[i] = draw(f)
	}
	return net, probes
}

// BenchmarkOpticalPropagation measures signal propagation through a fully
// loaded crossbar fabric and reports the worst-path power loss — the
// paper's projected cost of large splitting fabrics (Section 2.3).
func BenchmarkOpticalPropagation(b *testing.B) {
	for _, m := range wdm.Models {
		b.Run(m.String(), func(b *testing.B) {
			d := wdm.Dim{N: 8, K: 2}
			s := crossbar.New(m, d)
			gen := workload.NewGenerator(1, m, d)
			if _, err := s.AddAssignment(gen.Assignment(true, 0)); err != nil {
				b.Fatal(err)
			}
			var loss float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := s.Verify()
				if err != nil {
					b.Fatal(err)
				}
				loss = res.MaxLossDB
			}
			b.ReportMetric(loss, "max-loss-dB")
		})
	}
}

// BenchmarkEnumerationThroughput measures the backtracking assignment
// enumerator (assignments visited per op) — the engine behind every
// exhaustive verification.
func BenchmarkEnumerationThroughput(b *testing.B) {
	d := wdm.Dim{N: 2, K: 2}
	for _, m := range wdm.Models {
		b.Run(m.String(), func(b *testing.B) {
			var count int
			for i := 0; i < b.N; i++ {
				count = 0
				capacity.EnumerateAssignments(m, d, false, func(wdm.Assignment) bool {
					count++
					return true
				})
			}
			b.ReportMetric(float64(count), "assignments")
		})
	}
}

// BenchmarkFabricScale reports construction cost (time and elements) of
// gate-level fabrics as switches grow — the practical limit that makes
// the Lite mode necessary for Table 2 sweeps.
func BenchmarkFabricScale(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("MAW/N=%d/k=4", n), func(b *testing.B) {
			var elems int
			for i := 0; i < b.N; i++ {
				s := crossbar.New(wdm.MAW, wdm.Dim{N: n, K: 4})
				elems = s.Fabric().Elements()
			}
			b.ReportMetric(float64(elems), "elements")
		})
	}
}

// ablationLoad is the heavy dynamic traffic the empirical-min-m
// benchmarks scan m under.
var ablationLoad = traffic.Config{Arrivals: 1200, Erlangs: 10, MaxFanout: 8}

// BenchmarkAblationRoutingStrategy compares the certified greedy
// minimum-intersection middle-module selection (Lemma 4/5) against naive
// first-fit: the metric is the smallest m at which each strategy routes
// heavy dynamic traffic with zero blocking across seeds. DESIGN.md
// ablation 2: the greedy order is what lets m stay at the theorem bound.
func BenchmarkAblationRoutingStrategy(b *testing.B) {
	seeds := []int64{1, 2, 3}
	suffM, _ := multistage.SufficientMinM(multistage.MSWDominant, wdm.MSW, 4, 4, 2)
	for _, strat := range []multistage.Strategy{multistage.GreedyMinIntersection, multistage.FirstFit} {
		b.Run(strat.String(), func(b *testing.B) {
			var minM int
			for i := 0; i < b.N; i++ {
				off := traffic.Offline{
					Base:   multistage.Params{N: 16, K: 2, R: 4, Model: wdm.MSW, Strategy: strat},
					Engine: ablationLoad,
				}
				var err error
				minM, err = off.MinBlockFreeM(seeds, 1, 2*suffM)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(minM), "empirical-min-m")
			b.ReportMetric(float64(suffM), "theorem-m")
		})
	}
}

// BenchmarkAblationLinkSemantics compares the destination-multiset link
// semantics of Eqs. 2-5 (a link is usable while any wavelength is free)
// against plain-set semantics (a touched link is off limits) on the
// MAW-dominant construction. DESIGN.md ablation 3: the multiset
// machinery is what keeps the middle stage small when k > 1.
func BenchmarkAblationLinkSemantics(b *testing.B) {
	seeds := []int64{1, 2, 3}
	suffM, _ := multistage.SufficientMinM(multistage.MAWDominant, wdm.MAW, 4, 4, 4)
	for _, conservative := range []bool{false, true} {
		name := "multiset"
		if conservative {
			name = "plain-set"
		}
		b.Run(name, func(b *testing.B) {
			var minM int
			for i := 0; i < b.N; i++ {
				off := traffic.Offline{
					Base: multistage.Params{
						N: 16, K: 4, R: 4, Model: wdm.MAW,
						Construction:      multistage.MAWDominant,
						ConservativeLinks: conservative,
					},
					Engine: ablationLoad,
				}
				var err error
				minM, err = off.MinBlockFreeM(seeds, 1, 6*suffM)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(minM), "empirical-min-m")
			b.ReportMetric(float64(suffM), "theorem-m")
		})
	}
}

// BenchmarkUnicastCostHierarchy places the paper's designs in the
// classical unicast cost hierarchy: strictly nonblocking crossbar
// (kN^2) vs the strictly nonblocking multicast Clos of Section 3 vs the
// rearrangeable Beneš baseline (2kN(2log2 N - 1)). The gap between Clos
// and Beneš is the hardware price of strict-sense multicast operation.
func BenchmarkUnicastCostHierarchy(b *testing.B) {
	const k = 2
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var xbar, clos, ben int
			for i := 0; i < b.N; i++ {
				xbar = crossbar.CostFormula(wdm.MSW, wdm.Shape{In: n, Out: n, K: k}).Crosspoints
				r := squareSplit(n)
				mm, xx := multistage.SufficientMinM(multistage.MSWDominant, wdm.MSW, n/r, r, k)
				cost, err := multistage.CostFormula(multistage.Params{
					N: n, K: k, R: r, M: mm, X: xx, Model: wdm.MSW,
					Construction: multistage.MSWDominant,
				})
				if err != nil {
					b.Fatal(err)
				}
				clos = cost.Crosspoints
				ben = k * benes.Crosspoints(n)
			}
			b.ReportMetric(float64(xbar), "crossbar")
			b.ReportMetric(float64(clos), "clos")
			b.ReportMetric(float64(ben), "benes")
		})
	}
}

// BenchmarkBenesRouting measures the looping algorithm's throughput
// (route one random permutation per op).
func BenchmarkBenesRouting(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			net, err := benes.New(n)
			if err != nil {
				b.Fatal(err)
			}
			perms := make([][]int, 8)
			rng := rand.New(rand.NewSource(1))
			for i := range perms {
				perms[i] = rng.Perm(n)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := net.RoutePermutation(perms[i%len(perms)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOpticalBenes measures gate-level realization of a permutation
// on the Beneš fabric (route + configure + propagate + check) and
// reports the worst-path loss — depth-proportional, unlike the
// crossbar's width-proportional loss.
func BenchmarkOpticalBenes(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			o, err := benes.NewOptical(n)
			if err != nil {
				b.Fatal(err)
			}
			perm := make([]int, n)
			for i := range perm {
				perm[i] = (i + n/2 + 1) % n
			}
			var loss float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := o.Realize(perm)
				if err != nil {
					b.Fatal(err)
				}
				loss = res.MaxLossDB
			}
			b.ReportMetric(loss, "max-loss-dB")
		})
	}
}

// BenchmarkLeeVsSimulation compares the measured blocking probability of
// an undersized three-stage network against Lee's independent-link
// approximation evaluated at the *measured* link occupancy — the
// classical analytical model next to the discrete-event ground truth.
// The two should agree in shape (same order of magnitude, both falling
// with m); exact agreement is not expected since Lee assumes
// independence the router's greedy packing violates.
func BenchmarkLeeVsSimulation(b *testing.B) {
	for _, m := range []int{2, 3, 4, 6} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			var measured, lee float64
			for i := 0; i < b.N; i++ {
				net, err := multistage.New(multistage.Params{
					N: 16, K: 2, R: 4, M: m, X: 1, Model: wdm.MSW, Lite: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				sink := &occupancySink{Sink: traffic.NewNetworkSink(net, net.Params()), net: net}
				eng, err := traffic.NewEngine(traffic.Config{
					Sink: sink, Seed: 5, Arrivals: 4000, Erlangs: 8,
					MaxFanout: 1, // unicast: Lee's setting
				})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := eng.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				measured = rep.Stats.PBlock()
				lee = analytic.LeeBlocking(sink.u.InLinkBusy, sink.u.OutLinkBusy, m)
			}
			b.ReportMetric(measured, "pblock-sim")
			b.ReportMetric(lee, "pblock-lee")
		})
	}
}

// occupancySink samples the network's link occupancy after every
// connect, so the sample left at the end of a run is the occupancy the
// last arrival saw (the run itself goes on to drain the network).
type occupancySink struct {
	traffic.Sink
	net *multistage.Network
	u   multistage.Utilization
}

func (s *occupancySink) Connect(ctx context.Context, fabric int, c wdm.Connection) (traffic.Reply, error) {
	r, err := s.Sink.Connect(ctx, fabric, c)
	s.u = s.net.Utilization()
	return r, err
}

// BenchmarkRecursiveDepthCost evaluates Section 3's recursive
// construction: crosspoints and worst-path optical loss of 3- vs 5-stage
// networks. Nesting pays in gates only once the middle-module size
// passes the three-stage crossover, and always costs optical budget.
func BenchmarkRecursiveDepthCost(b *testing.B) {
	const k = 2
	for _, cfg := range []struct {
		n, r  int
		depth int
	}{
		{4096, 64, 3}, {4096, 64, 5},
		{16384, 1024, 3}, {16384, 1024, 5},
	} {
		b.Run(fmt.Sprintf("N=%d/depth=%d", cfg.n, cfg.depth), func(b *testing.B) {
			var cost crossbar.Cost
			for i := 0; i < b.N; i++ {
				var err error
				cost, err = multistage.CostFormula(multistage.Params{
					N: cfg.n, K: k, R: cfg.r, Model: wdm.MSW, Depth: cfg.depth,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cost.Crosspoints), "crosspoints")
		})
	}
}

// BenchmarkRepack compares strict-sense operation (plain Add) against
// rearrangeable operation (AddWithRepack) on identical hardware: the
// metric is the smallest middle-stage count with zero lost requests.
// Rearrangement rides far below the Theorem 1 bound — the classic
// strict vs rearrangeable trade-off, here measured on WDM multicast.
func BenchmarkRepack(b *testing.B) {
	seeds := []int64{1, 2, 3}
	suffM, _ := multistage.SufficientMinM(multistage.MSWDominant, wdm.MSW, 4, 4, 2)
	for _, repack := range []bool{false, true} {
		name := "strict"
		if repack {
			name = "rearrangeable"
		}
		b.Run(name, func(b *testing.B) {
			var minM int
			for i := 0; i < b.N; i++ {
				off := traffic.Offline{
					Base:   multistage.Params{N: 16, K: 2, R: 4, Model: wdm.MSW},
					Engine: ablationLoad,
					Repack: repack,
				}
				var err error
				minM, err = off.MinBlockFreeM(seeds, 1, 2*suffM)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(minM), "empirical-min-m")
			b.ReportMetric(float64(suffM), "theorem-m")
		})
	}
}

// BenchmarkSchedulingRounds quantifies the introduction's motivation:
// rounds needed to carry a fixed batch of overlapping multicasts on an
// electronic network (k=1) vs WDM networks with growing k, per model.
// The metric "rounds" should fall roughly k-fold and be smallest for
// MAW.
func BenchmarkSchedulingRounds(b *testing.B) {
	const n = 16
	// A fixed, congested demand: every port broadcasts to a window of 6
	// ports, twice.
	var reqs []schedule.Request
	for rep := 0; rep < 2; rep++ {
		for s := 0; s < n; s++ {
			r := schedule.Request{Source: wdm.Port(s)}
			for d := 1; d <= 6; d++ {
				r.Dests = append(r.Dests, wdm.Port((s+d)%n))
			}
			reqs = append(reqs, r)
		}
	}
	for _, k := range []int{1, 2, 4} {
		for _, m := range wdm.Models {
			b.Run(fmt.Sprintf("%v/k=%d", m, k), func(b *testing.B) {
				var rounds, lb int
				for i := 0; i < b.N; i++ {
					plan, err := schedule.Schedule(m, wdm.Dim{N: n, K: k}, reqs)
					if err != nil {
						b.Fatal(err)
					}
					rounds = plan.NumRounds()
					lb = schedule.LowerBound(wdm.Dim{N: n, K: k}, reqs)
				}
				b.ReportMetric(float64(rounds), "rounds")
				b.ReportMetric(float64(lb), "lower-bound")
			})
		}
	}
}

// squareSplit returns the divisor r of n closest to sqrt(n) (with
// n/r >= 2) — the n = r = N^(1/2) split of Section 3.4.
func squareSplit(n int) int {
	best, bestDist := 2, 1<<62
	for r := 2; r <= n/2; r++ {
		if n%r != 0 || n/r < 2 {
			continue
		}
		d := r*r - n
		if d < 0 {
			d = -d
		}
		if d < bestDist {
			best, bestDist = r, d
		}
	}
	return best
}
