// wdmcost prints the hardware-cost comparisons of the paper: Table 1's
// crossbar rows (crosspoints and wavelength converters per model) and
// Table 2's crossbar-vs-multistage comparison, with costs computed from
// the actual module structure rather than quoted.
//
// Usage:
//
//	wdmcost -table1 -n 8 -k 2
//	wdmcost -table2 -k 2                     sweep N over powers of two
//	wdmcost -table2 -n 1024 -k 4 -r 32       one explicit configuration
//	wdmcost -fabrics -n 16 -k 2 -r 4         per-backend cost comparison
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/crossbar"
	"repro/internal/fabric/backend"
	"repro/internal/multistage"
	"repro/internal/report"
	"repro/internal/wdm"
)

func main() {
	table1 := flag.Bool("table1", false, "print Table 1 cost rows (crossbar designs)")
	table2 := flag.Bool("table2", false, "print Table 2 (crossbar vs multistage)")
	fabrics := flag.Bool("fabrics", false, "print per-backend hardware cost rows (every registered fabric backend)")
	n := flag.Int("n", 0, "network size N (0 = default sweep)")
	k := flag.Int("k", 2, "wavelengths per fiber")
	r := flag.Int("r", 0, "outer-stage module count for -table2/-fabrics (0 = best square-ish split)")
	flag.Parse()

	if !*table1 && !*table2 && !*fabrics {
		*table1, *table2 = true, true
	}
	if *k < 1 {
		fmt.Fprintln(os.Stderr, "wdmcost: -k must be positive")
		os.Exit(2)
	}

	if *table1 {
		sizes := []int{*n}
		if *n == 0 {
			sizes = []int{4, 8, 16, 32, 64}
		}
		t := report.New(fmt.Sprintf("Table 1 — crossbar cost (k=%d)", *k),
			"N", "model", "crosspoints", "converters", "splitters", "combiners")
		for _, nn := range sizes {
			for _, m := range wdm.Models {
				c := crossbar.CostFormula(m, wdm.Shape{In: nn, Out: nn, K: *k})
				t.AddRow(report.Int(nn), m.String(),
					report.Int(c.Crosspoints), report.Int(c.Converters),
					report.Int(c.Splitters), report.Int(c.Combiners))
			}
		}
		t.Footnote = "crosspoints: kN^2 (MSW), k^2N^2 (MSDW/MAW); converters: 0 / kN / kN"
		t.Fprint(os.Stdout)
		fmt.Println()
	}

	if *table2 {
		sizes := []int{*n}
		if *n == 0 {
			sizes = []int{64, 256, 1024, 4096}
		}
		t := report.New(fmt.Sprintf("Table 2 — crossbar (CB) vs three-stage (MS), MSW-dominant (k=%d)", *k),
			"N", "model", "CB crosspoints", "MS crosspoints", "ratio", "CB conv", "MS conv", "r", "n", "m", "x")
		for _, nn := range sizes {
			rr := *r
			if rr == 0 {
				rr = bestSquareSplit(nn)
			}
			if rr < 2 || nn%rr != 0 || nn/rr < 2 {
				fmt.Fprintf(os.Stderr, "wdmcost: cannot split N=%d with r=%d\n", nn, rr)
				continue
			}
			nPer := nn / rr
			for _, m := range wdm.Models {
				cb := crossbar.CostFormula(m, wdm.Shape{In: nn, Out: nn, K: *k})
				mm, xx := multistage.SufficientMinM(multistage.MSWDominant, m, nPer, rr, *k)
				ms, err := multistage.CostFormula(multistage.Params{
					N: nn, K: *k, R: rr, M: mm, X: xx, Model: m,
					Construction: multistage.MSWDominant,
				})
				if err != nil {
					fmt.Fprintln(os.Stderr, "wdmcost:", err)
					os.Exit(1)
				}
				t.AddRow(report.Int(nn), m.String(),
					report.Int(cb.Crosspoints), report.Int(ms.Crosspoints),
					report.Ratio(float64(cb.Crosspoints), float64(ms.Crosspoints)),
					report.Int(cb.Converters), report.Int(ms.Converters),
					report.Int(rr), report.Int(nPer), report.Int(mm), report.Int(xx))
			}
		}
		t.Footnote = "m = sufficient nonblocking middle count; MS asymptotics: O(kN^1.5 log N / log log N) crosspoints"
		t.Fprint(os.Stdout)
	}

	if *fabrics {
		if *table1 || *table2 {
			fmt.Println()
		}
		nn := *n
		if nn == 0 {
			nn = 16
		}
		rr := *r
		if rr == 0 {
			rr = bestSquareSplit(nn)
		}
		if rr < 2 || nn%rr != 0 {
			fmt.Fprintf(os.Stderr, "wdmcost: cannot split N=%d with r=%d\n", nn, rr)
			os.Exit(2)
		}
		t := report.New(fmt.Sprintf("Fabric backends — computed hardware cost (N=%d, k=%d, r=%d, m at each backend's bound)", nn, *k, rr),
			"backend", "m", "crosspoints", "converters", "splitters", "combiners", "muxes", "demuxes")
		for _, d := range backend.All() {
			norm, err := d.Normalize(multistage.Params{N: nn, K: *k, R: rr, Model: wdm.MSW, Lite: true})
			if err != nil {
				fmt.Fprintf(os.Stderr, "wdmcost: %s: %v\n", d.Name, err)
				continue
			}
			net, err := d.New(norm)
			if err != nil {
				fmt.Fprintf(os.Stderr, "wdmcost: %s: %v\n", d.Name, err)
				continue
			}
			c := net.Cost()
			t.AddRow(d.Name, report.Int(norm.M),
				report.Int(c.Crosspoints), report.Int(c.Converters),
				report.Int(c.Splitters), report.Int(c.Combiners),
				report.Int(c.Muxes), report.Int(c.Demuxes))
		}
		t.Footnote = "costs computed by each backend's Cost(); mesh m = N (its failure units are the ring nodes)"
		t.Fprint(os.Stdout)
	}
}

// bestSquareSplit returns the divisor r of n closest to sqrt(n) with both
// r >= 2 and n/r >= 2 — the n = r = N^(1/2) split Section 3.4 uses.
func bestSquareSplit(n int) int {
	target := math.Sqrt(float64(n))
	best, bestDist := 0, math.Inf(1)
	for r := 2; r <= n/2; r++ {
		if n%r != 0 || n/r < 2 {
			continue
		}
		if d := math.Abs(float64(r) - target); d < bestDist {
			best, bestDist = r, d
		}
	}
	return best
}
