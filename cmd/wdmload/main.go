// wdmload drives the internal/traffic engine against a live switchd:
// closed-loop dynamic workloads with pluggable arrival processes,
// heavy-tail holding times, multicast fanout distributions, hotspot
// skew, and session churn — all seeded and deterministic, with every
// request admissible so each rejection is a genuine block.
//
//	wdmload -mode sweep -target http://localhost:8047 \
//	    -points 1,2,4,8,16 -arrivals 2000 -out BENCH_curves.json
//
// sweeps offered load in Erlang steps and writes the blocking curve
// (per-point P_block with Wilson 95% intervals, client latency, the
// target's per-phase means read from its own /metrics, Lee/Erlang-B
// analytic overlays, and the -target it drove) as BENCH_curves.json —
// rendered by `wdmplot -series curves`. At m >= the backend's bound
// every point must measure P_block = 0 (assert with -strict); below
// the bound the curve shows the knee.
//
//	wdmload -mode steady -erlangs 4 -timescale 500ms
//
// holds one load point at watchable speed (one mean holding time =
// -timescale) so the server's own counters, sparklines, and wdmtop
// views move in real time. The offered Erlangs stay a client setting:
// the server reports what it routed and blocked, not what was offered.
//
//	wdmload -mode replay -replay BENCH_curves.json
//
// re-runs a recorded sweep from the artifact's own seed and parameters
// and compares the measured curve point by point — the reproducibility
// check for published results.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/switchd/client"
	"repro/internal/traffic"
)

func main() {
	mode := flag.String("mode", "sweep", "run mode: sweep, steady, replay")
	target := flag.String("target", "http://localhost:8047", "base URL of the switchd under load")
	points := flag.String("points", "1,2,4,8", "sweep: offered loads in Erlangs, comma-separated")
	arrivals := flag.Int("arrivals", 2000, "connect arrivals per load point (total across workers)")
	seed := flag.Int64("seed", 1, "master seed; the whole run is a pure function of it")
	arrival := flag.String("arrival", "poisson", "arrival process: poisson, mmpp[:burst=10,duty=0.1,dwell=5], diurnal[:amp=0.8,period=100]")
	holding := flag.String("holding", "exp", "holding-time distribution: exp, pareto[:alpha=1.5]")
	fanout := flag.String("fanout", "geometric:p=0.5", "fanout distribution: geometric[:p=0.5], zipf[:s=1.3], uniform")
	maxFanout := flag.Int("max-fanout", 0, "fanout cap (0 = worker port-slice size)")
	maxLive := flag.Int("max-live", 0, "per-worker concurrent-session clamp; excess arrivals count unoffered (0 = unlimited)")
	hotspot := flag.String("hotspot", "", "hotspot skew as frac[:ports], e.g. 0.3:2 (empty = uniform)")
	churn := flag.String("churn", "", "session churn as rate[:growbias] per holding time, e.g. 0.5:0.5 (empty = none)")
	workers := flag.Int("workers", 0, "workers per fabric replica (0 = 1)")
	out := flag.String("out", "BENCH_curves.json", "sweep/replay: output artifact path")
	stream := flag.String("stream", "", "write the deterministic request stream to this file")
	strict := flag.Bool("strict", false, "sweep: exit 1 if any point measures P_block > 0; replay: exit 1 on drift outside the recorded Wilson intervals")
	z := flag.Float64("z", 1.96, "Wilson interval critical value")
	erlangs := flag.Float64("erlangs", 4, "steady: offered load in Erlangs")
	timescale := flag.Duration("timescale", 0, "steady: wall-clock duration of one mean holding time (0 = as fast as the target answers)")
	replayPath := flag.String("replay", "BENCH_curves.json", "replay: recorded sweep artifact to reproduce")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cl := client.New(*target)
	ecfg := traffic.Config{
		Sink:             traffic.NewClientSink(cl),
		Seed:             *seed,
		Arrivals:         *arrivals,
		WorkersPerFabric: *workers,
		MaxFanout:        *maxFanout,
		MaxLive:          *maxLive,
	}
	var err error
	if ecfg.Arrival, err = traffic.ParseArrival(*arrival); err != nil {
		fatal(err)
	}
	if ecfg.Holding, err = traffic.ParseHolding(*holding); err != nil {
		fatal(err)
	}
	if ecfg.Fanout, err = traffic.ParseFanout(*fanout); err != nil {
		fatal(err)
	}
	if ecfg.Hotspot, err = parseHotspot(*hotspot); err != nil {
		fatal(err)
	}
	if ecfg.Churn, err = parseChurn(*churn); err != nil {
		fatal(err)
	}
	if *stream != "" {
		f, err := os.Create(*stream)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		ecfg.StreamLog = f
	}

	switch *mode {
	case "sweep":
		pts, err := parsePoints(*points)
		if err != nil {
			fatal(err)
		}
		runSweep(ctx, traffic.SweepConfig{Engine: ecfg, Points: pts, Z: *z, Logf: logf}, *target, *out, *strict)
	case "steady":
		runSteady(ctx, ecfg, *erlangs, *timescale)
	case "replay":
		runReplay(ctx, ecfg, *target, *replayPath, *out, *z, *strict)
	default:
		fatal(fmt.Errorf("unknown mode %q (want sweep, steady, replay)", *mode))
	}
}

// runSweep measures the blocking curve against target and writes the
// artifact. With strict set, any measured blocking fails the run — the
// CI assertion that a target provisioned at its backend's bound stays
// at P_block = 0 across every offered load.
func runSweep(ctx context.Context, cfg traffic.SweepConfig, target, out string, strict bool) {
	curves, err := traffic.Sweep(ctx, cfg)
	if err != nil {
		fatal(err)
	}
	curves.Target = target
	writeArtifact(out, curves)
	logf("wrote %s: backend=%s m=%d bound=%d, %d points, max P_block=%.4f",
		out, curves.Backend, curves.M, curves.SufficientM, len(curves.Points), curves.MaxPBlock())
	if strict && curves.MaxPBlock() > 0 {
		fatal(fmt.Errorf("strict: measured P_block=%.6f > 0 (m=%d, bound=%d)",
			curves.MaxPBlock(), curves.M, curves.SufficientM))
	}
}

// runSteady holds one load point until the arrival budget is spent or
// the process is interrupted, printing a rollup at the end.
func runSteady(ctx context.Context, ecfg traffic.Config, erlangs float64, timescale time.Duration) {
	ecfg.Erlangs = erlangs
	ecfg.TimeScale = timescale
	eng, err := traffic.NewEngine(ecfg)
	if err != nil {
		fatal(err)
	}
	rep, err := eng.Run(ctx)
	if err != nil && ctx.Err() == nil {
		fatal(err)
	}
	s := rep.Stats
	lat := traffic.LatencyQuantiles(s.Latencies)
	logf("steady %.3g Erlangs: offered=%d routed=%d blocked=%d (P_block=%.4f) branches=%d shrinks=%d in %v — connect p50/p99 %.0f/%.0f µs",
		erlangs, s.Offered(), s.Routed, s.BlockedTotal(), s.PBlock(), s.Branches, s.Shrinks,
		rep.Duration.Round(time.Millisecond), lat.P50Micros, lat.P99Micros)
}

// runReplay re-runs a recorded sweep from its artifact against target
// and compares the measured blocking point by point.
func runReplay(ctx context.Context, ecfg traffic.Config, target, path, out string, z float64, strict bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var rec traffic.Curves
	if err := json.Unmarshal(data, &rec); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", path, err))
	}
	if len(rec.Points) == 0 {
		fatal(fmt.Errorf("%s records no points", path))
	}
	// Rebuild the engine template from the artifact, not the flags: the
	// replay reproduces the recorded run.
	ecfg.Seed = rec.Seed
	ecfg.Arrivals = rec.Arrivals
	ecfg.MaxFanout = rec.MaxFanout
	ecfg.MaxLive = rec.MaxLive
	ecfg.Churn = rec.Churn
	ecfg.Hotspot = rec.Hotspot
	if ecfg.Arrival, err = traffic.ParseArrival(rec.Arrival); err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	if ecfg.Holding, err = traffic.ParseHolding(rec.Holding); err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	if ecfg.Fanout, err = traffic.ParseFanout(rec.Fanout); err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	pts := make([]float64, len(rec.Points))
	for i, p := range rec.Points {
		pts[i] = p.Erlangs
	}
	curves, err := traffic.Sweep(ctx, traffic.SweepConfig{Engine: ecfg, Points: pts, Z: z, Logf: logf})
	if err != nil {
		fatal(err)
	}
	curves.Target = target
	writeArtifact(out, curves)

	drift := false
	for i, p := range curves.Points {
		old := rec.Points[i]
		ok := p.PBlock >= old.WilsonLo && p.PBlock <= old.WilsonHi
		if !ok {
			drift = true
		}
		logf("replay %.3g Erlangs: recorded P_block=%.4f [%.4f, %.4f], measured %.4f (%s)",
			p.Erlangs, old.PBlock, old.WilsonLo, old.WilsonHi, p.PBlock, okStr(ok))
	}
	if strict && drift {
		fatal(fmt.Errorf("strict: replay drifted outside the recorded Wilson intervals"))
	}
}

func okStr(ok bool) string {
	if ok {
		return "within interval"
	}
	return "DRIFT"
}

func writeArtifact(path string, curves traffic.Curves) {
	data, err := json.MarshalIndent(curves, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
}

func parsePoints(s string) ([]float64, error) {
	var pts []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad Erlang point %q (want a positive number)", part)
		}
		pts = append(pts, v)
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("no load points in %q", s)
	}
	return pts, nil
}

// parseHotspot parses "frac" or "frac:ports".
func parseHotspot(s string) (traffic.HotspotConfig, error) {
	if s = strings.TrimSpace(s); s == "" {
		return traffic.HotspotConfig{}, nil
	}
	fracStr, portsStr, hasPorts := strings.Cut(s, ":")
	frac, err := strconv.ParseFloat(fracStr, 64)
	if err != nil || frac < 0 || frac > 1 {
		return traffic.HotspotConfig{}, fmt.Errorf("bad hotspot fraction %q (want 0..1)", fracStr)
	}
	cfg := traffic.HotspotConfig{Fraction: frac}
	if hasPorts {
		if cfg.Ports, err = strconv.Atoi(portsStr); err != nil || cfg.Ports < 1 {
			return traffic.HotspotConfig{}, fmt.Errorf("bad hotspot port count %q", portsStr)
		}
	}
	return cfg, nil
}

// parseChurn parses "rate" or "rate:growbias".
func parseChurn(s string) (traffic.ChurnConfig, error) {
	if s = strings.TrimSpace(s); s == "" {
		return traffic.ChurnConfig{}, nil
	}
	rateStr, biasStr, hasBias := strings.Cut(s, ":")
	rate, err := strconv.ParseFloat(rateStr, 64)
	if err != nil || rate < 0 {
		return traffic.ChurnConfig{}, fmt.Errorf("bad churn rate %q", rateStr)
	}
	cfg := traffic.ChurnConfig{Rate: rate}
	if hasBias {
		if cfg.GrowBias, err = strconv.ParseFloat(biasStr, 64); err != nil || cfg.GrowBias < 0 || cfg.GrowBias > 1 {
			return traffic.ChurnConfig{}, fmt.Errorf("bad churn grow bias %q (want 0..1)", biasStr)
		}
	}
	return cfg, nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wdmload: "+format+"\n", args...)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wdmload:", err)
	os.Exit(1)
}
