package multistage

import (
	"repro/internal/crossbar"
	"repro/internal/wdm"
)

// Cost returns the network's closed-form hardware counts (CostFormula).
// The cost-audit tests hold the formula to the element counts of the
// gate-level model Verify builds.
func (net *Network) Cost() crossbar.Cost {
	c, _ := CostFormula(net.params)
	return c
}

// CostFormula returns the closed-form total cost of a three-stage network
// with the given parameters without building it: r input modules of shape
// n x m, m middle modules r x r (or nested networks when Depth > 3), and
// r output modules m x n, each costed by the crossbar formulas for its
// model.
func CostFormula(p Params) (crossbar.Cost, error) {
	p, err := p.Normalize()
	if err != nil {
		return crossbar.Cost{}, err
	}
	var total crossbar.Cost
	total.Add(crossbar.CostFormula(p.module(inputStage)).Scale(p.R))
	if p.Depth > 3 {
		np, err := p.nested()
		if err != nil {
			return crossbar.Cost{}, err
		}
		nested, err := CostFormula(np)
		if err != nil {
			return crossbar.Cost{}, err
		}
		total.Add(nested.Scale(p.M))
	} else {
		total.Add(crossbar.CostFormula(p.module(middleStage)).Scale(p.M))
	}
	total.Add(crossbar.CostFormula(p.module(outputStage)).Scale(p.R))
	return total, nil
}

// PaperCrosspoints returns Section 3.4's closed forms for the
// MSW-dominant construction's crosspoint count:
//
//	MSW model:        kmr(2n + r)
//	MSDW/MAW models:  kmr((k+1)n + r)
//
// These must equal CostFormula's sum for the same parameters; the tests
// assert it.
func PaperCrosspoints(model wdm.Model, n, r, m, k int) int {
	if model == wdm.MSW {
		return k * m * r * (2*n + r)
	}
	return k * m * r * ((k+1)*n + r)
}

// PaperConverters returns Section 3.4's converter counts for the
// MSW-dominant construction: 0 (MSW), r*m*k (MSDW: one converter per
// output-module input slot), r*n*k = kN (MAW: one per output-module
// output slot).
func PaperConverters(model wdm.Model, n, r, m, k int) int {
	switch model {
	case wdm.MSW:
		return 0
	case wdm.MSDW:
		return r * m * k
	default: // MAW
		return r * n * k
	}
}
