package obs

import (
	"math"
	"testing"
)

// TestBucketQuantile pins the Prometheus histogram_quantile semantics
// every in-process histogram reader shares.
func TestBucketQuantile(t *testing.T) {
	// 10 observations <= 1, 10 in (1,2]: p50 at the bucket edge, p75
	// midway into the second bucket.
	les := []float64{1, 2, 5, math.Inf(+1)}
	cum := []float64{10, 20, 20, 20}
	for _, tc := range []struct{ q, want float64 }{{0.50, 1}, {0.75, 1.5}} {
		if got, ok := BucketQuantile(tc.q, les, cum); !ok || got != tc.want {
			t.Errorf("q=%v: got %v, %v; want %v, true", tc.q, got, ok, tc.want)
		}
	}
	if got, ok := BucketQuantile(0.5, les, []float64{0, 0, 0, 0}); ok {
		t.Errorf("empty histogram: got %v, true; want !ok", got)
	}
	if got, ok := BucketQuantile(0.5, nil, nil); ok {
		t.Errorf("no buckets: got %v, true; want !ok", got)
	}
	// All mass in the overflow bucket: the largest finite bound.
	if got, ok := BucketQuantile(0.99, []float64{1, math.Inf(+1)}, []float64{0, 4}); !ok || got != 1 {
		t.Errorf("overflow-only p99 = %v, %v; want 1, true", got, ok)
	}

	// A runtime/metrics histogram: boundaries -Inf, 0, 1, 2, +Inf with
	// the [-Inf, 0) underflow bucket empty. Readers pass Buckets[1:] as
	// the upper bounds, so the first counted bucket, [0, 1), starts at 0.
	rtBuckets := []float64{math.Inf(-1), 0, 1, 2, math.Inf(+1)}
	rtCum := []float64{0, 10, 20, 20} // counts 0, 10, 10, 0
	for _, tc := range []struct{ q, want float64 }{{0.25, 0.5}, {0.50, 1}, {0.75, 1.5}} {
		if got, ok := BucketQuantile(tc.q, rtBuckets[1:], rtCum); !ok || got != tc.want {
			t.Errorf("runtime-shaped q=%v: got %v, %v; want %v, true", tc.q, got, ok, tc.want)
		}
	}
}
