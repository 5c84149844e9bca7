package traffic

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/analytic"
	"repro/internal/obs"
)

// SweepConfig drives offered load through a sequence of Erlang steps.
type SweepConfig struct {
	// Engine is the per-point engine template; Erlangs and Seed are
	// overridden per load point (the seed is decorrelated by point
	// index so points are independent but the whole sweep is still a
	// pure function of Engine.Seed).
	Engine Config
	// Points are the offered loads in Erlangs, swept in order.
	Points []float64
	// Z is the Wilson-interval critical value (default 1.96 ≈ 95%).
	Z float64
	// Logf, when set, receives one progress line per load point.
	Logf func(format string, args ...any)
}

// CurvePoint is one measured load point of a blocking curve.
type CurvePoint struct {
	Erlangs float64 `json:"erlangs"`

	// Offered counts every fabric-bound request (connects + branch
	// grows + shrink re-admits); Blocked the genuine blocking answers
	// among them. PBlock = Blocked/Offered with the Wilson 95% score
	// interval around it.
	Offered  int     `json:"offered"`
	Routed   int     `json:"routed"`
	Blocked  int     `json:"blocked"`
	Rejected int     `json:"rejected,omitempty"`
	PBlock   float64 `json:"p_block"`
	WilsonLo float64 `json:"wilson_lo"`
	WilsonHi float64 `json:"wilson_hi"`

	// Unoffered counts arrivals the engine's own free slots could not
	// build an admissible request for — client-side clamping, excluded
	// from PBlock (reported so saturation of the closed loop itself is
	// visible).
	Unoffered int `json:"unoffered,omitempty"`

	// MeanFanout is the measured mean connect fanout at this point.
	MeanFanout float64 `json:"mean_fanout"`

	// Latency is the client-observed connect round trip. ServerPhases
	// is the target's own mean µs per phase over every phase-timed
	// request of the point (connects, branches and disconnects,
	// including the response write): the deltas of its
	// wdm_phase_seconds sum and count across the point. Nil when the
	// sink has no /metrics (in process).
	Latency      ClientLatency      `json:"connect_latency_us"`
	ServerPhases map[string]float64 `json:"server_phase_mean_us,omitempty"`

	// LeePredicted overlays Lee's independent-link multicast
	// approximation at this point's load and measured mean fanout;
	// ErlangB the M/G/c/c loss on the plane's m·k middle-stage circuit
	// pool. Both are analytic references, not fits.
	LeePredicted float64 `json:"lee_predicted"`
	ErlangB      float64 `json:"erlang_b"`

	Duration time.Duration `json:"duration_ns"`
}

// Curves is the sweep artifact (BENCH_curves.json): one measured
// blocking curve with its analytic overlays and enough target metadata
// to reproduce the run.
type Curves struct {
	GeneratedAt string `json:"generated_at"`
	// Target is the base URL the sweep drove (set by wdmload; empty in
	// process).
	Target string `json:"target"`

	Backend      string `json:"backend"`
	Model        string `json:"model"`
	Construction string `json:"construction,omitempty"`
	N            int    `json:"n"`
	K            int    `json:"k"`
	R            int    `json:"r"`
	M            int    `json:"m"`
	SufficientM  int    `json:"sufficient_m"`
	Replicas     int    `json:"replicas"`

	Seed      int64  `json:"seed"`
	Arrival   string `json:"arrival"`
	Holding   string `json:"holding"`
	Fanout    string `json:"fanout"`
	MaxFanout int    `json:"max_fanout,omitempty"`
	MaxLive   int    `json:"max_live,omitempty"`
	Arrivals  int    `json:"arrivals_per_point"`

	// Churn and Hotspot round out the engine template so a replay
	// rebuilt from the artifact offers the same request stream (churn
	// grows add offers beyond the arrival count; hotspots skew the
	// destination draw).
	Churn   ChurnConfig   `json:"churn,omitzero"`
	Hotspot HotspotConfig `json:"hotspot,omitzero"`

	Points []CurvePoint `json:"points"`
}

// AtBound reports whether the target is provisioned at or above its
// backend's sufficient (nonblocking) middle-stage count.
func (c Curves) AtBound() bool { return c.SufficientM > 0 && c.M >= c.SufficientM }

// MaxPBlock returns the largest measured blocking probability across
// the curve's points.
func (c Curves) MaxPBlock() float64 {
	max := 0.0
	for _, p := range c.Points {
		if p.PBlock > max {
			max = p.PBlock
		}
	}
	return max
}

// Sweep runs the engine once per load point and assembles the curve.
// Between points every session has been torn down (the engine drains),
// so points are independent measurements. Against a live target each
// point reads the target's /metrics before and after its run for the
// server phase means.
func Sweep(ctx context.Context, cfg SweepConfig) (Curves, error) {
	if len(cfg.Points) == 0 {
		return Curves{}, fmt.Errorf("traffic: sweep needs at least one load point")
	}
	if cfg.Z == 0 {
		cfg.Z = 1.96
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	curves := Curves{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Seed:        cfg.Engine.Seed,
		Arrival:     cfg.Engine.Arrival.String(),
		Holding:     cfg.Engine.Holding.String(),
		MaxFanout:   cfg.Engine.MaxFanout,
		MaxLive:     cfg.Engine.MaxLive,
		Arrivals:    cfg.Engine.Arrivals,
		Churn:       cfg.Engine.Churn,
		Hotspot:     cfg.Engine.Hotspot,
	}

	for i, erl := range cfg.Points {
		if erl <= 0 {
			return curves, fmt.Errorf("traffic: sweep point %d: erlangs %g must be positive", i, erl)
		}
		ecfg := cfg.Engine
		ecfg.Erlangs = erl
		// Decorrelate points while keeping the sweep reproducible from
		// one seed.
		ecfg.Seed = cfg.Engine.Seed + int64(i)*104729
		eng, err := NewEngine(ecfg)
		if err != nil {
			return curves, err
		}
		if curves.Fanout == "" {
			curves.Fanout = FormatFanout(eng.cfg.Fanout)
		}

		before, err := readPhases(ctx, ecfg.Sink)
		if err != nil {
			return curves, err
		}
		rep, err := eng.Run(ctx)
		if err != nil {
			return curves, fmt.Errorf("traffic: sweep point %d (%.3g Erlangs): %w", i, erl, err)
		}
		after, err := readPhases(ctx, ecfg.Sink)
		if err != nil {
			return curves, err
		}

		if i == 0 {
			st := rep.Status
			curves.Backend, curves.Model, curves.Construction = st.Backend, st.Model, st.Construction
			curves.N, curves.K, curves.R, curves.M = st.N, st.K, st.R, st.M
			curves.SufficientM, curves.Replicas = st.SufficientM, st.Replicas
		}

		s := rep.Stats
		pt := CurvePoint{
			Erlangs:      erl,
			Offered:      s.Offered(),
			Routed:       s.Routed,
			Blocked:      s.BlockedTotal(),
			Rejected:     s.Rejected,
			PBlock:       s.PBlock(),
			Unoffered:    s.Unoffered,
			Latency:      LatencyQuantiles(s.Latencies),
			ServerPhases: phaseMeans(before, after),
			Duration:     rep.Duration,
		}
		pt.WilsonLo, pt.WilsonHi = WilsonInterval(s.BlockedTotal(), s.Offered(), cfg.Z)
		if s.Connects > 0 {
			pt.MeanFanout = float64(s.TotalFanout) / float64(s.Connects)
		}
		pt.LeePredicted = analytic.LeeLoadPoint(erl, pt.MeanFanout, curves.N, curves.R, curves.M, curves.K)
		pt.ErlangB = analytic.ErlangB(erl, curves.M*curves.K)
		curves.Points = append(curves.Points, pt)
		logf("point %d/%d: %.3g Erlangs -> P_block=%.4f [%.4f, %.4f] (offered=%d blocked=%d, lee=%.4f) in %v",
			i+1, len(cfg.Points), erl, pt.PBlock, pt.WilsonLo, pt.WilsonHi,
			pt.Offered, pt.Blocked, pt.LeePredicted, rep.Duration.Round(time.Millisecond))
	}
	return curves, nil
}

// phaseTotal is one phase's wdm_phase_seconds sum (seconds) and count.
type phaseTotal struct{ sum, count float64 }

// readPhases reads wdm_phase_seconds_sum and _count per phase label
// from the target's /metrics, through the sink's optional Prom method
// (the client sink has it; NetworkSink has no registry, and reads nil).
func readPhases(ctx context.Context, sink Sink) (map[string]phaseTotal, error) {
	pr, ok := sink.(interface {
		Prom(ctx context.Context) (string, error)
	})
	if !ok {
		return nil, nil
	}
	text, err := pr.Prom(ctx)
	if err != nil {
		return nil, fmt.Errorf("traffic: reading the target's /metrics: %w", err)
	}
	m, err := obs.ParseProm(strings.NewReader(text))
	if err != nil {
		return nil, fmt.Errorf("traffic: parsing the target's /metrics: %w", err)
	}
	out := map[string]phaseTotal{}
	if fam := m["wdm_phase_seconds"]; fam != nil {
		for _, s := range fam.Samples {
			t := out[s.Labels["phase"]]
			switch s.Name {
			case "wdm_phase_seconds_sum":
				t.sum = s.Value
			case "wdm_phase_seconds_count":
				t.count = s.Value
			}
			out[s.Labels["phase"]] = t
		}
	}
	return out, nil
}

// phaseMeans is the mean µs per phase over the requests timed between
// two registry reads; nil when no phase was timed in between.
func phaseMeans(before, after map[string]phaseTotal) map[string]float64 {
	var out map[string]float64
	for p, a := range after {
		b := before[p]
		if n := a.count - b.count; n > 0 {
			if out == nil {
				out = map[string]float64{}
			}
			out[p] = (a.sum - b.sum) / n * 1e6
		}
	}
	return out
}
