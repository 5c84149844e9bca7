package traffic

import (
	"math"
	"sort"
	"time"
)

// ClientLatency summarizes the client-observed connect latency (full
// HTTP round trip, as a client would experience it — not the server's
// in-fabric routing time).
type ClientLatency struct {
	P50Micros float64 `json:"p50_us"`
	P95Micros float64 `json:"p95_us"`
	P99Micros float64 `json:"p99_us"`
}

// LatencyQuantiles computes the p50/p95/p99 summary of a latency
// sample set (zero value for an empty set). The input is sorted in
// place.
func LatencyQuantiles(lat []time.Duration) ClientLatency {
	if len(lat) == 0 {
		return ClientLatency{}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	q := func(p float64) float64 {
		i := int(p * float64(len(lat)-1))
		return float64(lat[i].Nanoseconds()) / 1e3
	}
	return ClientLatency{P50Micros: q(0.50), P95Micros: q(0.95), P99Micros: q(0.99)}
}

// Stats is one worker's (or a whole run's, after merging) account of
// everything the target answered. Offered() is the denominator of
// blocking probability: every admissible request presented to a
// fabric — connects, branch grows, and shrink re-admissions —
// excluding admission rejections (never offered to a fabric).
type Stats struct {
	Connects    int `json:"connects"`
	Routed      int `json:"routed"`
	Blocked     int `json:"blocked"`
	Rejected    int `json:"rejected"` // admission_full answers
	Disconnects int `json:"disconnects"`

	// Branches/BranchBlocked count AddBranch grow attempts; Shrinks
	// partial teardowns (disconnect + re-admit the remaining leaves —
	// the wire API has no leaf removal, so churn re-establishes).
	Branches      int `json:"branches,omitempty"`
	BranchBlocked int `json:"branch_blocked,omitempty"`
	Shrinks       int `json:"shrinks,omitempty"`

	// Unoffered counts arrivals the engine could not build an
	// admissible request for (its own free slots were exhausted at that
	// load) — a client-side clamp, not a server block.
	Unoffered int `json:"unoffered,omitempty"`
	// Lost counts sessions the server dropped under chaos (disconnect
	// answered not_found).
	Lost int `json:"lost,omitempty"`

	// TotalFanout sums offered connect fanouts (mean = TotalFanout /
	// Connects); ByFanout splits the offered and blocked connects by
	// fanout, since wide multicasts block first.
	TotalFanout int                 `json:"total_fanout,omitempty"`
	ByFanout    map[int]FanoutStats `json:"by_fanout,omitempty"`

	// PeakLive is the most sessions one worker held at once; Repacked
	// counts connects the target admitted only by rearranging live
	// sessions (NewRepackSink).
	PeakLive int `json:"peak_live,omitempty"`
	Repacked int `json:"repacked,omitempty"`

	// Outcomes tallies every connect-class request by result: "ok" or
	// the stable api error code.
	Outcomes map[string]int `json:"outcomes,omitempty"`

	// Latencies holds per-connect round trips.
	Latencies []time.Duration `json:"-"`

	Err error `json:"-"`
}

// FanoutStats is one fanout's slice of a run's connects.
type FanoutStats struct {
	Offered int
	Blocked int
}

func newStats() Stats {
	return Stats{
		ByFanout: map[int]FanoutStats{},
		Outcomes: map[string]int{},
	}
}

// Offered returns the blocking-probability denominator.
func (s *Stats) Offered() int { return s.Connects + s.Branches + s.Shrinks }

// BlockedTotal returns the blocking-probability numerator (blocked
// connects and shrink re-admissions plus blocked branch grows).
func (s *Stats) BlockedTotal() int { return s.Blocked + s.BranchBlocked }

// PBlock returns the measured blocking probability over every offered
// request (0 for an empty run).
func (s *Stats) PBlock() float64 {
	if s.Offered() == 0 {
		return 0
	}
	return float64(s.BlockedTotal()) / float64(s.Offered())
}

// merge folds src into s (first error wins).
func (s *Stats) merge(src Stats) {
	s.Connects += src.Connects
	s.Routed += src.Routed
	s.Blocked += src.Blocked
	s.Rejected += src.Rejected
	s.Disconnects += src.Disconnects
	s.Branches += src.Branches
	s.BranchBlocked += src.BranchBlocked
	s.Shrinks += src.Shrinks
	s.Unoffered += src.Unoffered
	s.Lost += src.Lost
	s.TotalFanout += src.TotalFanout
	for f, fs := range src.ByFanout {
		acc := s.ByFanout[f]
		acc.Offered += fs.Offered
		acc.Blocked += fs.Blocked
		s.ByFanout[f] = acc
	}
	s.PeakLive = max(s.PeakLive, src.PeakLive)
	s.Repacked += src.Repacked
	for code, n := range src.Outcomes {
		s.Outcomes[code] += n
	}
	s.Latencies = append(s.Latencies, src.Latencies...)
	if s.Err == nil {
		s.Err = src.Err
	}
}

// WilsonInterval returns the Wilson score confidence interval for a
// binomial proportion with `successes` out of `n` trials at confidence
// z (1.96 for 95%). It behaves sanely at p = 0 and p = 1 where the
// normal approximation collapses — exactly the regime blocking curves
// live in near the nonblocking bound.
func WilsonInterval(successes, n int, z float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	p := float64(successes) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / denom
	lo, hi = center-half, center+half
	// At p = 0 (p = 1) the bound is exactly 0 (1); center and half agree
	// only to rounding there.
	if lo < 0 || successes == 0 {
		lo = 0
	}
	if hi > 1 || successes == n {
		hi = 1
	}
	return lo, hi
}
