package multistage

import "repro/internal/crossbar"

// PredictedWorstLossDB returns the closed-form worst-case optical power
// loss of a signal path through the three-stage network: the sum of the
// per-module budgets of the three stages it crosses (input n x m module,
// middle r x r module, output m x n module), each under its stage's
// model. Inter-stage fibers are treated as lossless, as the paper's
// crosspoint-based projection does.
//
// For Depth > 3 the middle term recurses. The result quantifies the real
// price of the multistage crosspoint savings: light crosses three (or
// five, ...) splitting fabrics instead of one, so the loss budget grows
// even as the gate count shrinks — a trade-off the paper's cost model
// (gate counts only) does not surface.
func (net *Network) PredictedWorstLossDB() float64 {
	return predictedLoss(net.params)
}

func predictedLoss(p Params) float64 {
	total := crossbar.PredictedWorstLossDB(p.module(inputStage))
	if p.Depth > 3 {
		if np, err := p.nested(); err == nil {
			total += predictedLoss(np)
		}
	} else {
		total += crossbar.PredictedWorstLossDB(p.module(middleStage))
	}
	return total + crossbar.PredictedWorstLossDB(p.module(outputStage))
}
