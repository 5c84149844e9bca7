package obs

import "math"

// BucketQuantile estimates the q-quantile of a bucketed distribution
// the way Prometheus's histogram_quantile does, and is the one bucket
// estimator every in-process reader of a histogram uses. les are the
// bucket upper bounds in ascending order (the last may be +Inf) and
// cum the cumulative counts at each bound. The estimate interpolates
// linearly inside the bucket holding rank q·total, taking 0 as the
// first bucket's lower bound; a rank that lands in the +Inf bucket
// returns the largest finite bound (a lower estimate). ok is false for
// an empty distribution.
func BucketQuantile(q float64, les, cum []float64) (v float64, ok bool) {
	if len(cum) == 0 || cum[len(cum)-1] <= 0 {
		return 0, false
	}
	rank := q * cum[len(cum)-1]
	for i, c := range cum {
		if c < rank {
			continue
		}
		ub := les[i]
		if math.IsInf(ub, +1) {
			if i > 0 {
				return les[i-1], true
			}
			return 0, true
		}
		lb, lc := 0.0, 0.0
		if i > 0 {
			lb, lc = les[i-1], cum[i-1]
		}
		if c == lc {
			return ub, true
		}
		return lb + (ub-lb)*(rank-lc)/(c-lc), true
	}
	return les[len(les)-1], true
}
