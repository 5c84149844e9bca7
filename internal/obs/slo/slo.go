// Package slo defines the serving SLOs and evaluates them over
// cumulative counters, stdlib-only.
//
// Two SLIs are tracked, both per routing operation (Connect and
// AddBranch — the requests the theorems speak about):
//
//   - availability: 1 − P_block, good = the fabric routed the request.
//     At or above the Theorem 1/2 sufficient bound this SLI is exactly
//     1.0 forever — the paper's claim as a service objective.
//   - latency: the fraction of fabric operations that finished within
//     LatencyThreshold.
//
// Burn rate is the standard SRE quantity: the error rate of a sliding
// window divided by the objective's error budget (1 − objective). Burn
// 1.0 spends the budget exactly at the sustainable pace; burn 14.4 over
// an hour spends a 30-day budget in ~2 days. Alerts pair a long and a
// short window so they are both fast and unflappable: the fast pair
// (5m && 1h over threshold 14.4) catches sudden budget bleed, the slow
// pair (6h && 3d over threshold 1) catches sustained low-grade bleed.
//
// The package keeps no counters of its own. Evaluate is handed the live
// cumulative counts and a lookup of the same counts at an earlier time;
// a window's count is the difference. The serving controller reads the
// live counts from its metrics registry and the earlier ones from the
// metrics history (tsdb.Store.CounterAt over the series /metrics
// exposes), so /v1/slo is a view over the counters every other surface
// reads.
package slo

import "time"

// The objectives.
const (
	// Objective is the availability target: the share of routing
	// operations the fabric routes.
	Objective = 0.999
	// LatencyObjective is the share of fabric operations that must
	// finish within LatencyThreshold.
	LatencyObjective = 0.99
	// LatencyThreshold is the per-operation bound the latency SLI counts
	// against. It must be a bucket bound of the operation-latency
	// histogram the counts come from.
	LatencyThreshold = time.Millisecond
)

// windowDef is one sliding window.
type windowDef struct {
	name string
	d    time.Duration
}

// windows are the sliding windows every snapshot reports.
var windows = [...]windowDef{
	{"5m", 5 * time.Minute},
	{"1h", time.Hour},
	{"6h", 6 * time.Hour},
	{"3d", 72 * time.Hour},
}

// alertDef pairs a short and a long window (indices into windows) with a
// burn threshold: it fires while BOTH windows burn above the threshold
// (the long window carries the evidence, the short window clears
// quickly once the cause stops).
type alertDef struct {
	name        string
	short, long int
	threshold   float64
}

var alerts = [...]alertDef{
	{name: "fast", short: 0, long: 1, threshold: 14.4},
	{name: "slow", short: 2, long: 3, threshold: 1},
}

// Counts are the SLIs' cumulative inputs at one instant.
type Counts struct {
	// Ops counts routing operations offered to a fabric (routed +
	// blocked); Bad the blocked ones.
	Ops, Bad int64
	// Timed counts fabric operations in the latency histograms; Slow
	// those slower than LatencyThreshold.
	Timed, Slow int64
}

// WindowSLI is one window's slice of a Snapshot.
type WindowSLI struct {
	Window string `json:"window"`
	Total  int64  `json:"total"`
	Bad    int64  `json:"bad"`
	Slow   int64  `json:"slow"`
	// Availability is 1 − bad/total (1.0 with no traffic: an idle
	// service has spent no budget).
	Availability float64 `json:"availability"`
	// LatencyOK is the fraction of timed operations within the
	// threshold (1.0 with no traffic).
	LatencyOK float64 `json:"latency_ok"`
	// Burn rates: window error rate over the objective's error budget.
	AvailabilityBurn float64 `json:"availability_burn"`
	LatencyBurn      float64 `json:"latency_burn"`
}

// AlertState is one multiwindow alert's evaluation.
type AlertState struct {
	Name      string  `json:"name"`
	Short     string  `json:"short_window"`
	Long      string  `json:"long_window"`
	Threshold float64 `json:"threshold"`
	// Firing reports whether BOTH windows burn above the threshold, per
	// SLI.
	AvailabilityFiring bool `json:"availability_firing"`
	LatencyFiring      bool `json:"latency_firing"`
}

// Snapshot is every window and alert at one instant, served at GET
// /v1/slo.
type Snapshot struct {
	Objective          float64 `json:"objective"`
	LatencyObjective   float64 `json:"latency_objective"`
	LatencyThresholdUs float64 `json:"latency_threshold_us"`
	// Healthy is true while no alert fires on any SLI.
	Healthy bool         `json:"healthy"`
	Windows []WindowSLI  `json:"windows"`
	Alerts  []AlertState `json:"alerts"`
}

// Evaluate computes every window and alert at now from the live
// cumulative counts and at, which reports the same counts as they
// stood at an earlier time (zero before the counters existed).
func Evaluate(now time.Time, live Counts, at func(time.Time) Counts) Snapshot {
	snap := Snapshot{
		Objective:          Objective,
		LatencyObjective:   LatencyObjective,
		LatencyThresholdUs: float64(LatencyThreshold.Microseconds()),
		Healthy:            true,
	}
	for _, w := range windows {
		base := at(now.Add(-w.d))
		s := WindowSLI{
			Window:       w.name,
			Total:        live.Ops - base.Ops,
			Bad:          live.Bad - base.Bad,
			Slow:         live.Slow - base.Slow,
			Availability: 1, LatencyOK: 1,
		}
		if s.Total > 0 {
			s.Availability = 1 - float64(s.Bad)/float64(s.Total)
			s.AvailabilityBurn = (1 - s.Availability) / (1 - Objective)
		}
		if timed := live.Timed - base.Timed; timed > 0 {
			s.LatencyOK = 1 - float64(s.Slow)/float64(timed)
			s.LatencyBurn = (1 - s.LatencyOK) / (1 - LatencyObjective)
		}
		snap.Windows = append(snap.Windows, s)
	}
	for _, a := range alerts {
		sh, long := snap.Windows[a.short], snap.Windows[a.long]
		st := AlertState{
			Name: a.name, Short: sh.Window, Long: long.Window, Threshold: a.threshold,
			AvailabilityFiring: sh.AvailabilityBurn > a.threshold && long.AvailabilityBurn > a.threshold,
			LatencyFiring:      sh.LatencyBurn > a.threshold && long.LatencyBurn > a.threshold,
		}
		if st.AvailabilityFiring || st.LatencyFiring {
			snap.Healthy = false
		}
		snap.Alerts = append(snap.Alerts, st)
	}
	return snap
}
