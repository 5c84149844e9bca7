// wdmplot emits the repository's experiment series as CSV for plotting:
//
//	wdmplot -series cost -k 2            Table 2's cost-vs-N curves
//	wdmplot -series blocking -n 16 -r 4  blocking-probability-vs-m
//	wdmplot -series capacity -k 2        capacity-vs-N per model (log10)
//	wdmplot -series hierarchy -k 2       crossbar/Clos/Beneš crosspoints
//	wdmplot -series curves -curves BENCH_curves.json   measured blocking curves
//
// The query series is different: it renders a live server's embedded
// metrics history (GET /v1/query, or the federated /v1/cluster/query)
// as long-form CSV — one row per (series, timestamp):
//
//	wdmplot -series query -target http://localhost:8047 \
//	    -query 'rate(wdm_blocked_total[30s])' -start -10m -step 5s
//
// Every offline series is regenerated from the implementation at run
// time; the CSV columns carry plain numbers ready for
// gnuplot/matplotlib.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/big"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/benes"
	"repro/internal/capacity"
	"repro/internal/crossbar"
	"repro/internal/multistage"
	"repro/internal/obs/tsdb"
	"repro/internal/report"
	"repro/internal/switchd/client"
	"repro/internal/traffic"
	"repro/internal/wdm"
)

func main() {
	series := flag.String("series", "cost", "series to emit: cost, blocking, capacity, hierarchy")
	n := flag.Int("n", 16, "network size for -series blocking")
	r := flag.Int("r", 4, "outer modules for -series blocking")
	k := flag.Int("k", 2, "wavelengths per fiber")
	modelName := flag.String("model", "msw", "multicast model")
	requests := flag.Int("requests", 4000, "arrivals per blocking point")
	seed := flag.Int64("seed", 1, "seed for blocking series")
	target := flag.String("target", "http://localhost:8047", "query series: base URL of the server")
	query := flag.String("query", "wdm_blocked_total", "query series: tsdb expression, e.g. rate(wdm_blocked_total[30s])")
	start := flag.String("start", "-5m", "query series: range start (duration offset, unix secs, RFC3339, or \"now\")")
	end := flag.String("end", "now", "query series: range end")
	step := flag.Duration("step", time.Second, "query series: range step")
	fleet := flag.Bool("fleet", false, "query series: hit the federated /v1/cluster/query instead of /v1/query")
	curvesFile := flag.String("curves", "BENCH_curves.json", "curves series: path to a wdmload sweep artifact")
	flag.Parse()

	model, err := wdm.ParseModel(*modelName)
	if err != nil {
		fatal(err)
	}
	switch *series {
	case "cost":
		costSeries(*k)
	case "blocking":
		blockingSeries(model, *n, *r, *k, *requests, *seed)
	case "load":
		loadSeries(model, *n, *r, *k, *requests, *seed)
	case "capacity":
		capacitySeries(*k)
	case "hierarchy":
		hierarchySeries(*k)
	case "query":
		querySeries(*target, *query, *start, *end, *step, *fleet)
	case "curves":
		curvesSeries(*curvesFile)
	default:
		fatal(fmt.Errorf("unknown series %q (want cost, blocking, load, capacity, hierarchy, query, curves)", *series))
	}
}

// curvesSeries renders a wdmload sweep artifact (BENCH_curves.json) as
// CSV: one row per load point with the measured blocking probability,
// its Wilson 95% interval, and the analytic overlays — ready to plot
// P_block vs offered Erlangs with error bars.
func curvesSeries(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var c traffic.Curves
	if err := json.Unmarshal(data, &c); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", path, err))
	}
	title := fmt.Sprintf("backend=%s model=%s N=%d k=%d r=%d m=%d bound=%d arrival=%s holding=%s fanout=%s",
		c.Backend, c.Model, c.N, c.K, c.R, c.M, c.SufficientM, c.Arrival, c.Holding, c.Fanout)
	t := report.New(title, "erlangs", "offered", "blocked", "p_block", "wilson_lo", "wilson_hi",
		"lee_predicted", "erlang_b", "mean_fanout", "p50_us", "p99_us")
	for _, p := range c.Points {
		t.AddRow(fmt.Sprintf("%g", p.Erlangs), report.Int(p.Offered), report.Int(p.Blocked),
			fmt.Sprintf("%.6f", p.PBlock),
			fmt.Sprintf("%.6f", p.WilsonLo), fmt.Sprintf("%.6f", p.WilsonHi),
			fmt.Sprintf("%.6f", p.LeePredicted), fmt.Sprintf("%.6f", p.ErlangB),
			fmt.Sprintf("%.3f", p.MeanFanout),
			fmt.Sprintf("%.0f", p.Latency.P50Micros), fmt.Sprintf("%.0f", p.Latency.P99Micros))
	}
	emit(t)
}

// querySeries renders a live server's metrics history as long-form
// CSV: one row per (series, point), ready for gnuplot/matplotlib
// group-by-series plotting.
func querySeries(target, query, start, end string, step time.Duration, fleet bool) {
	v := url.Values{}
	v.Set("query", query)
	v.Set("start", start)
	v.Set("end", end)
	v.Set("step", step.String())
	cl := client.New(target)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var res tsdb.QueryResult
	var err error
	if fleet {
		res, err = cl.FleetQuery(ctx, v.Encode())
	} else {
		res, err = cl.Query(ctx, v.Encode())
	}
	if err != nil {
		fatal(err)
	}
	t := report.New("", "series", "labels", "t_ms", "value")
	for _, s := range res.Series {
		keys := make([]string, 0, len(s.Labels))
		for k := range s.Labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, k+"="+s.Labels[k])
		}
		labels := strings.Join(parts, ";")
		for _, p := range s.Points {
			val := "NaN"
			if !math.IsNaN(p.V) {
				val = strconv.FormatFloat(p.V, 'g', -1, 64)
			}
			t.AddRow(s.Name, labels, strconv.FormatInt(p.T, 10), val)
		}
	}
	emit(t)
}

// loadSeries emits blocking-vs-load curves at a quarter, half, and the
// full sufficient middle-stage count.
func loadSeries(model wdm.Model, n, r, k, requests int, seed int64) {
	base := multistage.Params{N: n, K: k, R: r, Model: model, Lite: true}
	norm, err := base.Normalize()
	if err != nil {
		fatal(err)
	}
	t := report.New("", "m", "load", "offered", "blocked", "p_block")
	for _, m := range []int{max(1, norm.M/4), max(1, norm.M/2), norm.M} {
		for _, load := range []float64{1, 2, 4, 6, 8, 12, 16, 24} {
			off := traffic.Offline{Base: base, Engine: traffic.Config{Arrivals: requests, Erlangs: load, MaxFanout: n / 2}}
			s, err := off.Run(m, seed)
			if err != nil {
				fatal(err)
			}
			t.AddRow(report.Int(m), fmt.Sprintf("%.1f", load),
				report.Int(s.Connects), report.Int(s.Blocked), fmt.Sprintf("%.6f", s.PBlock()))
		}
	}
	emit(t)
}

func costSeries(k int) {
	t := report.New("", "N", "model", "crossbar_xpts", "multistage_xpts", "crossbar_conv", "multistage_conv")
	for _, n := range []int{16, 64, 144, 256, 576, 1024, 2304, 4096} {
		r := bestSplit(n)
		if r == 0 {
			continue
		}
		for _, m := range wdm.Models {
			cb := crossbar.CostFormula(m, wdm.Shape{In: n, Out: n, K: k})
			mm, xx := multistage.SufficientMinM(multistage.MSWDominant, m, n/r, r, k)
			ms, err := multistage.CostFormula(multistage.Params{
				N: n, K: k, R: r, M: mm, X: xx, Model: m,
				Construction: multistage.MSWDominant,
			})
			if err != nil {
				fatal(err)
			}
			t.AddRow(report.Int(n), m.String(), report.Int(cb.Crosspoints), report.Int(ms.Crosspoints),
				report.Int(cb.Converters), report.Int(ms.Converters))
		}
	}
	emit(t)
}

func blockingSeries(model wdm.Model, n, r, k, requests int, seed int64) {
	base := multistage.Params{N: n, K: k, R: r, Model: model, Lite: true}
	norm, err := base.Normalize()
	if err != nil {
		fatal(err)
	}
	var ms []int
	for m := 1; m <= norm.M+norm.M/4+1; m++ {
		ms = append(ms, m)
	}
	off := traffic.Offline{Base: base, Engine: traffic.Config{Seed: seed, Arrivals: requests, Erlangs: 10, MaxFanout: n / 2}}
	points, err := off.SweepM(ms)
	if err != nil {
		fatal(err)
	}
	t := report.New("", "m", "offered", "blocked", "p_block")
	for _, pt := range points {
		t.AddRow(report.Int(pt.M), report.Int(pt.Stats.Connects), report.Int(pt.Stats.Blocked),
			fmt.Sprintf("%.6f", pt.Stats.PBlock()))
	}
	emit(t)
}

func capacitySeries(k int) {
	t := report.New("", "N", "model", "log10_full_capacity")
	for n := int64(2); n <= 16; n++ {
		for _, m := range wdm.Models {
			t.AddRow(report.Int(int(n)), m.String(), fmt.Sprintf("%.3f", log10Big(capacity.Full(m, n, int64(k)))))
		}
	}
	emit(t)
}

func hierarchySeries(k int) {
	t := report.New("", "N", "crossbar", "clos", "benes")
	for _, n := range []int{16, 64, 256, 1024, 4096} {
		r := bestSplit(n)
		if r == 0 {
			continue
		}
		mm, xx := multistage.SufficientMinM(multistage.MSWDominant, wdm.MSW, n/r, r, k)
		ms, err := multistage.CostFormula(multistage.Params{
			N: n, K: k, R: r, M: mm, X: xx, Model: wdm.MSW,
			Construction: multistage.MSWDominant,
		})
		if err != nil {
			fatal(err)
		}
		t.AddRow(report.Int(n),
			report.Int(k*n*n),
			report.Int(ms.Crosspoints),
			report.Int(k*benes.Crosspoints(nextPow2(n))))
	}
	emit(t)
}

func emit(t *report.Table) {
	if err := t.FprintCSV(os.Stdout); err != nil {
		fatal(err)
	}
}

func bestSplit(n int) int {
	best, bestDist := 0, 1<<62
	for r := 2; r <= n/2; r++ {
		if n%r != 0 || n/r < 2 {
			continue
		}
		d := r*r - n
		if d < 0 {
			d = -d
		}
		if d < bestDist {
			best, bestDist = r, d
		}
	}
	return best
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

// log10Big computes log10 of an arbitrarily large integer via its
// binary mantissa/exponent decomposition (the raw capacities overflow
// float64 long before N = 16).
func log10Big(v *big.Int) float64 {
	f := new(big.Float).SetInt(v)
	mant := new(big.Float)
	exp := f.MantExp(mant)
	m, _ := mant.Float64()
	return (float64(exp) + math.Log2(m)) * math.Log10(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wdmplot:", err)
	os.Exit(1)
}
