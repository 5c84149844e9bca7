// Package traffic is the repository's one dynamic workload engine:
// pluggable arrival processes (Poisson, bursty MMPP, diurnal rate
// modulation), heavy-tail holding times, multicast fanout
// distributions, hotspot destination skew (after "Multicast Capacity
// of Optical WDM Packet Ring for Hotspot Traffic", arXiv 0804.3215)
// and session-churn dynamics. Its request loop drives a Sink: a live
// switchd on any fabric backend through the typed
// internal/switchd/client, or a routing network in process.
//
// Everything is seeded and deterministic: the engine runs on a
// virtual-time event queue per worker (arrivals, departures, churn),
// so the same seed produces a byte-identical request stream regardless
// of wall-clock scheduling or sink, and requests are built from the
// engine's own free-slot bookkeeping via internal/workload's
// admissibility machinery — every rejection the target returns is a
// genuine blocking event, never an inadmissible request.
//
// On top of the engine, Sweep drives offered load in Erlang steps and
// records per-load-point blocking probability with Wilson confidence
// intervals plus the server's own phase attribution — the measured
// P_block-vs-load curve whose shape the paper's Theorems 1 and 2 pin
// at zero for m >= bound and release below it. Offline runs the
// in-process experiments: blocking vs m, seed spreads and the
// empirical minimal m.
package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// ArrivalProcess yields successive interarrival gaps in virtual-time
// units. Every process here is normalized to unit mean rate (one
// arrival per unit time in the long run); the engine divides gaps by
// the offered arrival rate λ, so offered Erlangs = λ × E[holding]
// regardless of the process shape. Instances are stateful (MMPP phase,
// diurnal clock) and must not be shared across workers.
type ArrivalProcess interface {
	Next(rng *rand.Rand) float64
	Name() string
}

// HoldingDist samples session holding times in virtual-time units,
// normalized to unit mean, so the Erlang arithmetic stays independent
// of the tail shape.
type HoldingDist interface {
	Sample(rng *rand.Rand) float64
	Name() string
}

// poisson is the memoryless baseline: exponential interarrivals.
type poisson struct{}

func (poisson) Next(rng *rand.Rand) float64 { return rng.ExpFloat64() }
func (poisson) Name() string                { return "poisson" }

// mmpp is a two-state Markov-modulated Poisson process: the arrival
// rate switches between a high (burst) and a low (quiet) level with
// exponentially distributed sojourns. Rates are normalized so the
// long-run mean rate is 1: with duty d the fraction of time spent
// bursting and burst ratio b = high/low,
//
//	low = 1 / (1 - d + d*b),  high = b * low.
type mmpp struct {
	burst     float64 // high/low rate ratio
	duty      float64 // long-run fraction of time in the high state
	dwellHigh float64 // mean sojourn in the high state (time units)

	inHigh    bool
	dwellLeft float64 // remaining sojourn in the current state
	started   bool
}

func (m *mmpp) rates() (low, high float64) {
	low = 1 / (1 - m.duty + m.duty*m.burst)
	return low, m.burst * low
}

func (m *mmpp) meanDwell() float64 {
	if m.inHigh {
		return m.dwellHigh
	}
	// Sojourn times must satisfy duty = dwellHigh/(dwellHigh+dwellLow).
	return m.dwellHigh * (1 - m.duty) / m.duty
}

func (m *mmpp) Next(rng *rand.Rand) float64 {
	if !m.started {
		m.started = true
		m.inHigh = rng.Float64() < m.duty
		m.dwellLeft = rng.ExpFloat64() * m.meanDwell()
	}
	low, high := m.rates()
	var elapsed float64
	for {
		rate := low
		if m.inHigh {
			rate = high
		}
		gap := rng.ExpFloat64() / rate
		if gap < m.dwellLeft {
			m.dwellLeft -= gap
			return elapsed + gap
		}
		// The state flips before the next arrival lands; restart the
		// memoryless clock in the new state (valid by the exponential's
		// memorylessness).
		elapsed += m.dwellLeft
		m.inHigh = !m.inHigh
		m.dwellLeft = rng.ExpFloat64() * m.meanDwell()
	}
}

func (m *mmpp) Name() string {
	return fmt.Sprintf("mmpp(burst=%g,duty=%g,dwell=%g)", m.burst, m.duty, m.dwellHigh)
}

// diurnal is a non-homogeneous Poisson process with a sinusoidal rate
// λ(t) = 1 + amp·sin(2πt/period), sampled by thinning against the peak
// rate. Over a full period the mean rate is 1. It models the
// day/night load swing of a long steady run compressed into `period`
// holding times.
type diurnal struct {
	amp    float64
	period float64
	t      float64 // virtual clock of this process
}

func (d *diurnal) Next(rng *rand.Rand) float64 {
	peak := 1 + d.amp
	start := d.t
	for {
		d.t += rng.ExpFloat64() / peak
		rate := 1 + d.amp*math.Sin(2*math.Pi*d.t/d.period)
		if rng.Float64()*peak < rate {
			return d.t - start
		}
	}
}

func (d *diurnal) Name() string {
	return fmt.Sprintf("diurnal(amp=%g,period=%g)", d.amp, d.period)
}

// expHolding is the memoryless holding-time baseline (mean 1).
type expHolding struct{}

func (expHolding) Sample(rng *rand.Rand) float64 { return rng.ExpFloat64() }
func (expHolding) Name() string                  { return "exp" }

// paretoHolding is a heavy-tail holding-time distribution with tail
// index alpha > 1, scaled to unit mean: x_m = (alpha-1)/alpha,
// X = x_m / U^(1/alpha). Long sessions dominate the carried load far
// beyond what the exponential predicts — the elephant-session regime.
type paretoHolding struct {
	alpha float64
}

func (p paretoHolding) Sample(rng *rand.Rand) float64 {
	xm := (p.alpha - 1) / p.alpha
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return xm / math.Pow(u, 1/p.alpha)
}

func (p paretoHolding) Name() string { return fmt.Sprintf("pareto(alpha=%g)", p.alpha) }

// ArrivalSpec is a parsed, serializable arrival-process description.
// The spec, not the process, goes into sweep artifacts: a fresh
// stateful process is built per worker per load point.
type ArrivalSpec struct {
	kind string
	// mmpp
	burst, duty, dwell float64
	// diurnal
	amp, period float64
}

// ParseArrival parses an arrival-process spec:
//
//	poisson
//	mmpp[:burst=10,duty=0.1,dwell=5]
//	diurnal[:amp=0.8,period=100]
//
// Parameters are optional and default to the bracketed values; dwell
// and period are in units of the mean holding time.
func ParseArrival(s string) (ArrivalSpec, error) {
	kind, params, err := splitSpec(s)
	if err != nil {
		return ArrivalSpec{}, err
	}
	switch kind {
	case "poisson", "":
		if len(params) > 0 {
			return ArrivalSpec{}, fmt.Errorf("traffic: poisson takes no parameters")
		}
		return ArrivalSpec{kind: "poisson"}, nil
	case "mmpp":
		spec := ArrivalSpec{kind: "mmpp", burst: 10, duty: 0.1, dwell: 5}
		for k, v := range params {
			switch k {
			case "burst":
				spec.burst = v
			case "duty":
				spec.duty = v
			case "dwell":
				spec.dwell = v
			default:
				return ArrivalSpec{}, fmt.Errorf("traffic: mmpp: unknown parameter %q", k)
			}
		}
		if spec.burst <= 1 || spec.duty <= 0 || spec.duty >= 1 || spec.dwell <= 0 {
			return ArrivalSpec{}, fmt.Errorf("traffic: mmpp needs burst > 1, 0 < duty < 1, dwell > 0")
		}
		return spec, nil
	case "diurnal":
		spec := ArrivalSpec{kind: "diurnal", amp: 0.8, period: 100}
		for k, v := range params {
			switch k {
			case "amp":
				spec.amp = v
			case "period":
				spec.period = v
			default:
				return ArrivalSpec{}, fmt.Errorf("traffic: diurnal: unknown parameter %q", k)
			}
		}
		if spec.amp < 0 || spec.amp > 1 || spec.period <= 0 {
			return ArrivalSpec{}, fmt.Errorf("traffic: diurnal needs 0 <= amp <= 1, period > 0")
		}
		return spec, nil
	default:
		return ArrivalSpec{}, fmt.Errorf("traffic: unknown arrival process %q (want poisson, mmpp, diurnal)", kind)
	}
}

// NewProcess builds a fresh stateful process instance from the spec.
func (s ArrivalSpec) NewProcess() ArrivalProcess {
	switch s.kind {
	case "mmpp":
		return &mmpp{burst: s.burst, duty: s.duty, dwellHigh: s.dwell}
	case "diurnal":
		return &diurnal{amp: s.amp, period: s.period}
	default:
		return poisson{}
	}
}

func (s ArrivalSpec) String() string {
	switch s.kind {
	case "mmpp":
		return fmt.Sprintf("mmpp:burst=%g,duty=%g,dwell=%g", s.burst, s.duty, s.dwell)
	case "diurnal":
		return fmt.Sprintf("diurnal:amp=%g,period=%g", s.amp, s.period)
	default:
		return "poisson"
	}
}

// HoldingSpec is a parsed, serializable holding-time description.
type HoldingSpec struct {
	kind  string
	alpha float64
}

// ParseHolding parses a holding-time spec: "exp" or
// "pareto[:alpha=1.5]" (alpha > 1 so the mean exists).
func ParseHolding(s string) (HoldingSpec, error) {
	kind, params, err := splitSpec(s)
	if err != nil {
		return HoldingSpec{}, err
	}
	switch kind {
	case "exp", "":
		if len(params) > 0 {
			return HoldingSpec{}, fmt.Errorf("traffic: exp takes no parameters")
		}
		return HoldingSpec{kind: "exp"}, nil
	case "pareto":
		spec := HoldingSpec{kind: "pareto", alpha: 1.5}
		for k, v := range params {
			if k != "alpha" {
				return HoldingSpec{}, fmt.Errorf("traffic: pareto: unknown parameter %q", k)
			}
			spec.alpha = v
		}
		if spec.alpha <= 1 {
			return HoldingSpec{}, fmt.Errorf("traffic: pareto alpha=%g must exceed 1 (finite mean)", spec.alpha)
		}
		return spec, nil
	default:
		return HoldingSpec{}, fmt.Errorf("traffic: unknown holding distribution %q (want exp, pareto)", kind)
	}
}

// NewDist builds the holding distribution the spec describes.
func (s HoldingSpec) NewDist() HoldingDist {
	if s.kind == "pareto" {
		return paretoHolding{alpha: s.alpha}
	}
	return expHolding{}
}

func (s HoldingSpec) String() string {
	if s.kind == "pareto" {
		return fmt.Sprintf("pareto:alpha=%g", s.alpha)
	}
	return "exp"
}

// splitSpec splits "kind:key=val,key=val" into its parts.
func splitSpec(s string) (kind string, params map[string]float64, err error) {
	kind, rest, has := strings.Cut(strings.TrimSpace(s), ":")
	kind = strings.TrimSpace(kind)
	params = map[string]float64{}
	if !has {
		return kind, params, nil
	}
	for _, part := range strings.Split(rest, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, vs, ok := strings.Cut(part, "=")
		if !ok {
			return "", nil, fmt.Errorf("traffic: spec parameter %q is not key=value", part)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(vs), 64)
		if err != nil {
			return "", nil, fmt.Errorf("traffic: spec parameter %q: %v", part, err)
		}
		params[strings.TrimSpace(k)] = v
	}
	return kind, params, nil
}
