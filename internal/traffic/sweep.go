package traffic

import (
	"context"
	"fmt"
	"time"

	"repro/internal/analytic"
	"repro/internal/switchd/api"
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

	// Latency is the client-observed connect round trip; ServerPhases
	// the target's own Server-Timing attribution (mean µs per phase).
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
	Target      string `json:"target"`

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
// so points are independent measurements. While each point runs
// against a live target, a self-reporter posts the offered Erlangs and
// running block rate to it once a second, so the sweep is visible in
// the server's gauges and in wdmtop's fleet view.
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

		repCtx, stopReport := context.WithCancel(ctx)
		repDone := make(chan struct{})
		go func() {
			defer close(repDone)
			if r, ok := ecfg.Sink.(LoadReporter); ok {
				ReportLoop(repCtx, r, eng.Progress(), erl)
			}
		}()
		rep, err := eng.Run(ctx)
		stopReport()
		<-repDone
		if err != nil {
			return curves, fmt.Errorf("traffic: sweep point %d (%.3g Erlangs): %w", i, erl, err)
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
			ServerPhases: s.PhaseMeans(),
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

// LoadReporter is a target that takes the generator's live rates (POST
// /v1/loadgen): the typed client and the client sink.
type LoadReporter interface {
	ReportLoad(ctx context.Context, rep api.LoadgenReport) error
}

// ReportLoop posts the generator's live rates to the target once a
// second until ctx is done: offered/achieved requests per second over
// the last tick, plus the configured offered Erlangs and the cumulative
// block rate. Report failures are ignored — the target may be
// unreachable mid-chaos, and result accounting never depends on the
// reports landing.
func ReportLoop(ctx context.Context, cl LoadReporter, prog *Progress, erlangs float64) {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	lastOffered, lastRouted := int64(0), int64(0)
	lastAt := time.Now()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-tick.C:
			offered, routed, blocked := prog.Counters()
			secs := now.Sub(lastAt).Seconds()
			if secs <= 0 {
				continue
			}
			rep := api.LoadgenReport{
				OfferedRPS:     float64(offered-lastOffered) / secs,
				AchievedRPS:    float64(routed-lastRouted) / secs,
				OfferedErlangs: erlangs,
			}
			if offered > 0 {
				rep.BlockRate = float64(blocked) / float64(offered)
			}
			lastOffered, lastRouted, lastAt = offered, routed, now
			_ = cl.ReportLoad(ctx, rep)
		}
	}
}
