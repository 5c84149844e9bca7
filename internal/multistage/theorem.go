// Package multistage implements the paper's three-stage WDM multicast
// switching networks (Section 3): the MSW-dominant and MAW-dominant
// constructions, the destination-(multi)set routing machinery of Lemmas 4
// and 5, the nonblocking middle-stage bounds of Theorems 1 and 2, and the
// network cost formulas of Section 3.4 (Table 2).
//
// A three-stage network (Fig. 8) has r input modules of size n x m, m
// middle modules of size r x r, and r output modules of size m x n, with
// N = n*r and exactly one k-wavelength fiber between every pair of
// modules in consecutive stages. Each module is a nonblocking multicast
// crossbar (package crossbar), under the MSW model in the first two
// stages for the MSW-dominant construction or under the MAW model for
// the MAW-dominant construction; output-stage modules follow the
// network's own multicast model. A crossbar's only constraint is slot
// occupancy, and a module's slots are the network's port slots and link
// wavelengths, so a Network keeps one occupancy record, its link and
// slot tables and route records, and no per-module state. The
// sub-connection a route asks of each module follows from the route;
// Verify builds gate-level crossbars from them to check that the light
// gets through. Deeper networks (Depth > 3) replace each middle module
// with a nested Network, which routes for real.
package multistage

import (
	"fmt"
	"math"
	"math/big"

	"repro/internal/combin"
	"repro/internal/wdm"
)

// Theorem1MinM returns the smallest number of middle-stage modules m
// satisfying Theorem 1's sufficient nonblocking condition for the
// MSW-dominant construction:
//
//	m > min over 1 <= x <= min(n-1, r) of (n-1) * (x + r^(1/x)).
//
// n is the input-module port count and r the module count per outer
// stage. The evaluation is exact: the comparison m - (n-1)x > (n-1)r^(1/x)
// is decided as (m - (n-1)x)^x > (n-1)^x * r in big-integer arithmetic.
func Theorem1MinM(n, r int) int {
	m, _ := theorem1(n, r)
	return m
}

// Theorem1BestX returns the routing split limit x that minimizes
// Theorem 1's bound; this is the x the routing strategy should use.
func Theorem1BestX(n, r int) int {
	_, x := theorem1(n, r)
	return x
}

func theorem1(n, r int) (minM, bestX int) {
	checkNR(n, r)
	if n == 1 {
		// (n-1) = 0: the bound degenerates to m > 0.
		return 1, 1
	}
	minM, bestX = math.MaxInt, 1
	for x := 1; x <= min(n-1, r); x++ {
		m := (n-1)*x + qMin(n, r, x)
		if m < minM {
			minM, bestX = m, x
		}
	}
	return minM, bestX
}

// qMin returns the smallest positive integer q with q > (n-1) * r^(1/x),
// i.e. the smallest q with q^x > (n-1)^x * r.
func qMin(n, r, x int) int {
	c := new(big.Int).Mul(combin.PowInt64(int64(n-1), int64(x)), big.NewInt(int64(r)))
	// Smallest q with q^x >= c+1 is the smallest q with q^x > c.
	c.Add(c, big.NewInt(1))
	return int(combin.CeilRootBig(c, int64(x)))
}

// Theorem2MinM returns the smallest m satisfying Theorem 2's sufficient
// nonblocking condition for the MAW-dominant construction:
//
//	m > min over 1 <= x <= min(n-1, r) of
//	        floor((nk-1)x / k) + (n-1) * r^(1/x).
//
// The first term counts middle modules made unavailable by the other
// nk-1 input wavelengths of the same input module: each may fan to x
// middle-stage links, but a link only becomes unusable when all k of its
// wavelengths are taken, hence the division by k.
func Theorem2MinM(n, r, k int) int {
	m, _ := theorem2(n, r, k)
	return m
}

// Theorem2BestX returns the x minimizing Theorem 2's bound.
func Theorem2BestX(n, r, k int) int {
	_, x := theorem2(n, r, k)
	return x
}

func theorem2(n, r, k int) (minM, bestX int) {
	checkNR(n, r)
	if k < 1 {
		panic(fmt.Sprintf("multistage: k = %d, must be positive", k))
	}
	if n == 1 {
		// With a single port per input module the other k-1 wavelengths
		// can never fill a whole k-wavelength link by themselves at x=1,
		// and (n-1)r^(1/x) = 0: m > floor((k-1)/k) = 0.
		return 1, 1
	}
	minM, bestX = math.MaxInt, 1
	for x := 1; x <= min(n-1, r); x++ {
		unavailable := (n*k - 1) * x / k
		m := unavailable + qMin(n, r, x)
		if m < minM {
			minM, bestX = m, x
		}
	}
	return minM, bestX
}

// AsymptoticM returns the paper's closed-form asymptotic sufficient bound
// for the MSW-dominant construction (Section 3.4):
//
//	m >= 3 (n-1) log r / log log r, obtained with x = 2 log r / log log r.
//
// Valid for r large enough that log log r > 0 (r >= 3 with natural logs);
// for smaller r it falls back to Theorem 1's exact minimum.
func AsymptoticM(n, r int) int {
	checkNR(n, r)
	if n == 1 {
		return 1
	}
	lr := math.Log(float64(r))
	if r < 3 || math.Log(lr) <= 0 {
		return Theorem1MinM(n, r)
	}
	return int(math.Ceil(3 * float64(n-1) * lr / math.Log(lr)))
}

// AsymptoticX returns the split limit x = 2 log r / log log r used to
// derive AsymptoticM, clamped to [1, min(n-1, r)].
func AsymptoticX(n, r int) int {
	checkNR(n, r)
	if n == 1 {
		return 1
	}
	lr := math.Log(float64(r))
	x := 1
	if r >= 3 && math.Log(lr) > 0 {
		x = int(math.Round(2 * lr / math.Log(lr)))
	}
	return max(1, min(x, min(n-1, r)))
}

// AWGClosMinM returns a sufficient middle-stage count m and split limit
// x for the AWG-Clos construction's router never to block.
//
// The passive middle stage forces every leg of a connection from input
// module a to output module p onto the class wavelength
// λ = (p - a) mod k, on both the input-stage and output-stage link, and
// a middle serves exactly one output module per connection (a grating
// cannot multicast). Counting the middles a new (a → p) leg can find
// unusable:
//
//   - every other connection from module a (≤ nk-1 of them) claims
//     input-stage links from a on λ for at most ⌈r/k⌉ of its legs (its
//     destination modules congruent to p mod k), each on a distinct
//     middle:            (nk-1)·⌈r/k⌉
//   - every other connection terminating at module p occupies one
//     middle→p link; at most nk-1 of those can sit on λ:  nk-1
//   - the new connection's own other legs reserve at most r-1 middles
//     (one per destination module):                        r-1
//
// so m = (nk-1)(⌈r/k⌉+1) + r guarantees a free middle for every leg.
// The split limit is x = r: each destination module costs one middle.
func AWGClosMinM(n, r, k int) (m, x int) {
	checkNR(n, r)
	if k < 1 {
		panic(fmt.Sprintf("multistage: k = %d, must be positive", k))
	}
	classes := (r + k - 1) / k
	return (n*k-1)*(classes+1) + r, r
}

func checkNR(n, r int) {
	if n < 1 || r < 1 {
		panic(fmt.Sprintf("multistage: module sizes n=%d r=%d must be positive", n, r))
	}
}

// SufficientMinM returns a middle-stage count m and split limit x that are
// sufficient for this package's router never to block, for the given
// construction, network model, and module sizes.
//
// For the MSW model it returns exactly the paper's bounds (Theorem 1 for
// MSW-dominant, Theorem 2 for MAW-dominant).
//
// For MSDW/MAW network models under the MSW-dominant construction it
// returns a *corrected* bound:
//
//	m > min_x { (n-1)x + (min(nk, N) - 1) * r^(1/x) }.
//
// Rationale: the paper reduces the MSW-dominant case to a single-
// wavelength electronic network, where each output switch terminates at
// most n-1 other connections. That holds when the output stage is MSW
// (a plane-λ arrival consumes one of the module's n λ-slots), but with
// MSDW/MAW output modules a plane-λ arrival may occupy *any* of the nk
// output slots after conversion, so up to min(nk, N)-1 other connections
// can ride plane λ into one output module and a new plane-λ request can
// find every link wavelength λ into that module taken. The experiments in
// this repository construct exactly that adversarial state at the paper's
// Theorem 1 bound (see EXPERIMENTS.md), so defaulted networks use the
// corrected bound. Theorem 2's multiset accounting already charges nk-1
// occurrences per output module, so MAW-dominant bounds are unchanged.
func SufficientMinM(construction Construction, model wdm.Model, n, r, k int) (m, x int) {
	checkNR(n, r)
	if k < 1 {
		panic(fmt.Sprintf("multistage: k = %d, must be positive", k))
	}
	if construction == AWGClos {
		return AWGClosMinM(n, r, k)
	}
	if construction == MAWDominant {
		return theorem2(n, r, k)
	}
	if model == wdm.MSW || k == 1 {
		return theorem1(n, r)
	}
	// Corrected MSW-dominant bound for MSDW/MAW.
	c := min(n*k, n*r) - 1
	if c < 1 {
		// Degenerate single-slot networks cannot contend.
		return 1, 1
	}
	xMax := max(1, min(n-1, r))
	minM, bestX := math.MaxInt, 1
	for xx := 1; xx <= xMax; xx++ {
		// Smallest q with q > c * r^(1/xx), i.e. q^xx > c^xx * r.
		lim := new(big.Int).Mul(combin.PowInt64(int64(c), int64(xx)), big.NewInt(int64(r)))
		lim.Add(lim, big.NewInt(1))
		q := int(combin.CeilRootBig(lim, int64(xx)))
		mm := (n-1)*xx + q
		if mm < minM {
			minM, bestX = mm, xx
		}
	}
	return minM, bestX
}

// PaperMinM returns the paper's stated bound for the construction
// (Theorem 1 or Theorem 2) regardless of network model — the value the
// reproduction experiments compare against.
func PaperMinM(construction Construction, n, r, k int) (m, x int) {
	switch construction {
	case MAWDominant:
		return theorem2(n, r, k)
	case AWGClos:
		return AWGClosMinM(n, r, k)
	}
	return theorem1(n, r)
}
