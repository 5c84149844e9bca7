package traffic

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/multistage"
	"repro/internal/wdm"
)

// sampleGaps draws n interarrival gaps from a fresh process under a
// fixed seed, so every statistic below is deterministic.
func sampleGaps(spec ArrivalSpec, seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	p := spec.NewProcess()
	gaps := make([]float64, n)
	for i := range gaps {
		gaps[i] = p.Next(rng)
	}
	return gaps
}

func meanCV(xs []float64) (mean, cv float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss/float64(len(xs))) / mean
}

// TestPoissonInterarrivals checks the baseline is genuinely unit-mean
// exponential: mean ≈ 1 and coefficient of variation ≈ 1.
func TestPoissonInterarrivals(t *testing.T) {
	spec, err := ParseArrival("poisson")
	if err != nil {
		t.Fatal(err)
	}
	mean, cv := meanCV(sampleGaps(spec, 1, 200000))
	if math.Abs(mean-1) > 0.02 {
		t.Errorf("poisson mean gap = %.4f, want 1 ± 0.02", mean)
	}
	if math.Abs(cv-1) > 0.03 {
		t.Errorf("poisson interarrival CV = %.4f, want 1 ± 0.03", cv)
	}
}

// TestMMPPBurstiness checks the normalization (long-run rate 1) and
// that the bursts actually show: the interarrival CV exceeds the
// Poisson baseline, and dwell-sized windows see a peak arrival count
// several times the mean.
func TestMMPPBurstiness(t *testing.T) {
	spec, err := ParseArrival("mmpp:burst=10,duty=0.1,dwell=5")
	if err != nil {
		t.Fatal(err)
	}
	gaps := sampleGaps(spec, 2, 300000)
	mean, cv := meanCV(gaps)
	if math.Abs(mean-1) > 0.05 {
		t.Errorf("mmpp mean gap = %.4f, want 1 ± 0.05 (unit mean rate)", mean)
	}
	if cv < 1.3 {
		t.Errorf("mmpp interarrival CV = %.4f, want > 1.3 (burstier than Poisson)", cv)
	}

	// Count arrivals per dwell-sized window of virtual time.
	const window = 5.0
	counts := map[int]int{}
	tNow, maxWin := 0.0, 0
	for _, g := range gaps {
		tNow += g
		w := int(tNow / window)
		counts[w]++
		if counts[w] > maxWin {
			maxWin = counts[w]
		}
	}
	meanWin := float64(len(gaps)) / (tNow / window)
	if ratio := float64(maxWin) / meanWin; ratio < 3 {
		t.Errorf("mmpp peak/mean window count = %.2f, want >= 3 (burst=10 should show)", ratio)
	}
}

// TestParetoHolding checks the heavy-tail holding times are unit-mean
// and carry the configured tail index: the empirical CCDF decays as
// (x_m/x)^alpha, estimated from two tail points.
func TestParetoHolding(t *testing.T) {
	spec, err := ParseHolding("pareto:alpha=1.5")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	d := spec.NewDist()
	const n = 400000
	xm := (1.5 - 1) / 1.5
	samples := make([]float64, n)
	var sum float64
	for i := range samples {
		x := d.Sample(rng)
		if x < xm-1e-12 {
			t.Fatalf("pareto sample %g below scale x_m=%g", x, xm)
		}
		samples[i] = x
		sum += x
	}
	// Infinite-variance mean converges slowly; the seeded run is still
	// deterministic, so a loose band is a real check, not flake control.
	if mean := sum / n; math.Abs(mean-1) > 0.1 {
		t.Errorf("pareto mean = %.4f, want 1 ± 0.1", mean)
	}
	tail := func(x float64) float64 {
		c := 0
		for _, s := range samples {
			if s > x {
				c++
			}
		}
		return float64(c) / n
	}
	t1, t4 := tail(1), tail(4)
	alphaHat := math.Log(t1/t4) / math.Log(4)
	if math.Abs(alphaHat-1.5) > 0.1 {
		t.Errorf("pareto tail index = %.3f (CCDF %.4f@1, %.5f@4), want 1.5 ± 0.1", alphaHat, t1, t4)
	}
}

// TestDiurnalModulation checks the sinusoidal rate: unit mean over
// whole periods, with the rising half-cycle receiving several times the
// arrivals of the falling half.
func TestDiurnalModulation(t *testing.T) {
	spec, err := ParseArrival("diurnal:amp=0.8,period=50")
	if err != nil {
		t.Fatal(err)
	}
	gaps := sampleGaps(spec, 4, 200000)
	mean, _ := meanCV(gaps)
	if math.Abs(mean-1) > 0.03 {
		t.Errorf("diurnal mean gap = %.4f, want 1 ± 0.03", mean)
	}
	tNow, peak, trough := 0.0, 0, 0
	for _, g := range gaps {
		tNow += g
		if phase := math.Mod(tNow, 50); phase < 25 {
			peak++
		} else {
			trough++
		}
	}
	if ratio := float64(peak) / float64(trough); ratio < 2 {
		t.Errorf("diurnal peak/trough half-cycle arrivals = %.2f, want >= 2 at amp=0.8", ratio)
	}
}

// TestProcessDeterminism: the same spec and seed must reproduce the
// exact gap sequence — the property the engine's byte-identical stream
// guarantee rests on.
func TestProcessDeterminism(t *testing.T) {
	for _, s := range []string{"poisson", "mmpp:burst=8,duty=0.2,dwell=3", "diurnal:amp=0.5,period=20"} {
		spec, err := ParseArrival(s)
		if err != nil {
			t.Fatal(err)
		}
		a, b := sampleGaps(spec, 99, 1000), sampleGaps(spec, 99, 1000)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: gap %d differs across identical seeds: %g vs %g", s, i, a[i], b[i])
			}
		}
	}
}

// TestSpecRoundTrips: parse → String → parse is the identity, so sweep
// artifacts record replayable spec strings.
func TestSpecRoundTrips(t *testing.T) {
	for _, s := range []string{"poisson", "mmpp:burst=4,duty=0.2,dwell=2", "diurnal:amp=0.5,period=10"} {
		spec, err := ParseArrival(s)
		if err != nil {
			t.Fatalf("ParseArrival(%q): %v", s, err)
		}
		if got := spec.String(); got != s {
			t.Errorf("ParseArrival(%q).String() = %q", s, got)
		}
		if _, err := ParseArrival(spec.String()); err != nil {
			t.Errorf("round-trip %q: %v", s, err)
		}
	}
	for _, s := range []string{"exp", "pareto:alpha=2"} {
		spec, err := ParseHolding(s)
		if err != nil {
			t.Fatalf("ParseHolding(%q): %v", s, err)
		}
		if got := spec.String(); got != s {
			t.Errorf("ParseHolding(%q).String() = %q", s, got)
		}
	}
	for _, s := range []string{"geometric:p=0.3", "zipf:s=2", "uniform"} {
		d, err := ParseFanout(s)
		if err != nil {
			t.Fatalf("ParseFanout(%q): %v", s, err)
		}
		if got := FormatFanout(d); got != s {
			t.Errorf("FormatFanout(ParseFanout(%q)) = %q", s, got)
		}
	}
	// Defaults format to their explicit replayable forms.
	if d, err := ParseFanout("geometric"); err != nil || FormatFanout(d) != "geometric:p=0.5" {
		t.Errorf("default geometric formats as %q, %v", FormatFanout(d), err)
	}
}

// TestSpecParseErrors lists specs each parser refuses. Among them are
// non-finite values and a dwell or period below minTimescale, each of
// which would stall an arrival process's loop.
func TestSpecParseErrors(t *testing.T) {
	for _, s := range []string{"nope", "poisson:x=1", "mmpp:burst=0.5", "mmpp:q=1", "diurnal:amp=2",
		"mmpp:burst=NaN", "mmpp:duty=nan", "mmpp:burst=+Inf", "mmpp:dwell=1e-300", "mmpp:dwell=0.009",
		"diurnal:amp=NaN", "diurnal:period=Inf", "diurnal:period=5e-324", "diurnal:period=0.009"} {
		if _, err := ParseArrival(s); err == nil {
			t.Errorf("ParseArrival(%q) accepted", s)
		}
	}
	for _, s := range []string{"weibull", "pareto:alpha=1", "exp:x=1", "pareto:alpha=NaN", "pareto:alpha=inf"} {
		if _, err := ParseHolding(s); err == nil {
			t.Errorf("ParseHolding(%q) accepted", s)
		}
	}
	for _, s := range []string{"nope", "geometric:p=1.5", "zipf:s=1", "uniform:x=1", "geometric:q=0.5",
		"geometric:p=NaN", "zipf:s=NaN", "zipf:s=+Inf"} {
		if _, err := ParseFanout(s); err == nil {
			t.Errorf("ParseFanout(%q) accepted", s)
		}
	}
}

// FuzzTrafficSpecs offers the same string to the arrival, holding and
// fanout parsers. These specs come from outside the program (wdmload's
// flags and the curves it replays), so every spec a parser accepts must
// print a string that parses back and prints the same, and a 20-arrival
// in-process run under the accepted specs must finish.
func FuzzTrafficSpecs(f *testing.F) {
	for _, s := range []string{"poisson", "mmpp", "mmpp:burst=10,duty=0.1,dwell=5", "diurnal:amp=0.8,period=100",
		"exp", "pareto:alpha=1.5", "geometric:p=0.3", "zipf:s=2", "uniform", "",
		"mmpp:burst=NaN", "diurnal:amp=NaN", "mmpp:dwell=1e-300", "diurnal:period=5e-324"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		cfg := Config{Seed: 1, Arrivals: 20, Erlangs: 4}
		accepted := false
		if a, err := ParseArrival(s); err == nil {
			again, err := ParseArrival(a.String())
			if err != nil || again.String() != a.String() {
				t.Fatalf("arrival %q prints %q, which parses to %q, %v", s, a.String(), again.String(), err)
			}
			cfg.Arrival, accepted = a, true
		}
		if h, err := ParseHolding(s); err == nil {
			again, err := ParseHolding(h.String())
			if err != nil || again.String() != h.String() {
				t.Fatalf("holding %q prints %q, which parses to %q, %v", s, h.String(), again.String(), err)
			}
			cfg.Holding, accepted = h, true
		}
		if d, err := ParseFanout(s); err == nil {
			again, err := ParseFanout(FormatFanout(d))
			if err != nil || FormatFanout(again) != FormatFanout(d) {
				t.Fatalf("fanout %q prints %q, which parses to %v, %v", s, FormatFanout(d), again, err)
			}
			cfg.Fanout, accepted = d, true
		}
		if !accepted {
			return
		}
		net, err := multistage.New(multistage.Params{N: 16, K: 2, R: 4, Model: wdm.MSW, Lite: true})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Sink = NewNetworkSink(net, net.Params())
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// A stalled process loop never returns, so wait on the run with
		// a deadline instead of calling it inline.
		done := make(chan error, 1)
		go func() {
			_, err := eng.Run(context.Background())
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run under %q: %v", s, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("a 20-arrival run under %q did not finish in 10 s", s)
		}
	})
}

func TestWilsonInterval(t *testing.T) {
	if lo, hi := WilsonInterval(0, 0, 1.96); lo != 0 || hi != 1 {
		t.Errorf("empty interval = [%g, %g], want [0, 1]", lo, hi)
	}
	// Zero observed blocks still leaves a nonzero upper bound — the
	// "how sure are we it is really zero" number the sweep reports.
	lo, hi := WilsonInterval(0, 1000, 1.96)
	if lo != 0 {
		t.Errorf("0/1000 lo = %g, want 0", lo)
	}
	if hi <= 0 || hi > 0.005 {
		t.Errorf("0/1000 hi = %g, want (0, 0.005]", hi)
	}
	// More trials tighten it.
	_, hi10k := WilsonInterval(0, 10000, 1.96)
	if hi10k >= hi {
		t.Errorf("0/10000 hi = %g not tighter than 0/1000 hi = %g", hi10k, hi)
	}
	// A balanced proportion is centered and contained.
	lo, hi = WilsonInterval(500, 1000, 1.96)
	if !(lo < 0.5 && 0.5 < hi) {
		t.Errorf("500/1000 interval [%g, %g] does not cover 0.5", lo, hi)
	}
	if hi-lo > 0.07 {
		t.Errorf("500/1000 interval width %g too wide", hi-lo)
	}
}
