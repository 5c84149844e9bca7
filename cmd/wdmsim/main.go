// wdmsim runs dynamic-traffic simulations against the three-stage WDM
// multicast networks and prints blocking probability as a function of the
// middle-stage module count m — the executable counterpart of Theorems 1
// and 2 (there is no empirical section in the paper; this regenerates the
// repository's validation series documented in EXPERIMENTS.md). The
// simulation is the traffic engine run in process (traffic.Offline).
//
// Usage:
//
//	wdmsim -n 16 -k 2 -r 4 -model msw -construction msw -requests 5000
//	wdmsim -n 16 -k 2 -r 4 -model maw -construction maw -load 20
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/multistage"
	"repro/internal/report"
	"repro/internal/traffic"
	"repro/internal/wdm"
)

func main() {
	n := flag.Int("n", 16, "network size N")
	k := flag.Int("k", 2, "wavelengths per fiber")
	r := flag.Int("r", 4, "outer-stage module count (must divide N)")
	modelName := flag.String("model", "msw", "multicast model: msw, msdw, maw")
	constrName := flag.String("construction", "msw", "construction: msw (MSW-dominant) or maw (MAW-dominant)")
	requests := flag.Int("requests", 4000, "number of connection arrivals per point")
	load := flag.Float64("load", 12, "offered load (mean arrivals per mean holding time)")
	maxFanout := flag.Int("fanout", 0, "max fanout (0 = N)")
	seed := flag.Int64("seed", 1, "PRNG seed")
	repack := flag.Bool("repack", false, "rearrangeable operation: retry blocked requests with repacking")
	byFanout := flag.Bool("by-fanout", false, "also print blocking stratified by fanout (largest m only)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of the table")
	nSeeds := flag.Int("seeds", 1, "seeds per point (seed, seed+1, ...); >1 adds per-point aggregates")
	flag.Parse()

	model, err := wdm.ParseModel(*modelName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wdmsim:", err)
		os.Exit(2)
	}
	var constr multistage.Construction
	switch *constrName {
	case "msw":
		constr = multistage.MSWDominant
	case "maw":
		constr = multistage.MAWDominant
	default:
		fmt.Fprintln(os.Stderr, "wdmsim: -construction must be msw or maw")
		os.Exit(2)
	}

	base := multistage.Params{N: *n, K: *k, R: *r, Model: model, Construction: constr, Lite: true}
	off := traffic.Offline{
		Base:   base,
		Engine: traffic.Config{Seed: *seed, Arrivals: *requests, Erlangs: *load, MaxFanout: *maxFanout},
		Repack: *repack,
	}
	ms := off.DefaultMs()
	sort.Ints(ms)
	points, err := off.SweepM(ms)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wdmsim:", err)
		os.Exit(1)
	}

	// Per-point multi-seed aggregates: lets scripts diff server-vs-offline
	// blocking numbers with spread.
	var aggs []*traffic.Aggregate
	if *nSeeds > 1 {
		seedList := make([]int64, *nSeeds)
		for i := range seedList {
			seedList[i] = *seed + int64(i)
		}
		for _, pt := range points {
			agg, err := off.Seeds(pt.M, seedList)
			if err != nil {
				fmt.Fprintln(os.Stderr, "wdmsim:", err)
				os.Exit(1)
			}
			aggs = append(aggs, agg)
		}
	}

	if *jsonOut {
		emitJSON(off, points, aggs, *nSeeds)
		return
	}

	norm, _ := base.Normalize()
	mode := "strict"
	if *repack {
		mode = "rearrangeable"
	}
	t := report.New(fmt.Sprintf("Blocking probability vs middle-stage size m — N=%d k=%d r=%d %v %v, %s (%d requests, load %.1f)",
		*n, *k, *r, model, constr, mode, *requests, *load),
		"m", "offered", "routed", "blocked", "repacked", "P_block", "note")
	for _, pt := range points {
		note := ""
		if pt.M == pt.PaperMin {
			note = "paper theorem bound"
		}
		if pt.AtBound {
			if note != "" {
				note += " = "
			}
			note += "sufficient bound"
		}
		s := pt.Stats
		t.AddRow(report.Int(pt.M),
			report.Int(s.Connects), report.Int(s.Routed), report.Int(s.Blocked), report.Int(s.Repacked),
			report.Float(s.PBlock(), 4), note)
	}
	t.Footnote = fmt.Sprintf("n=%d per module; x=%d; expectation: P_block = 0 at and above the sufficient bound",
		norm.N/norm.R, norm.X)
	t.Fprint(os.Stdout)

	if len(aggs) > 0 {
		fmt.Println()
		at := report.New(fmt.Sprintf("Aggregate over %d seeds (seed %d..%d)", *nSeeds, *seed, *seed+int64(*nSeeds)-1),
			"m", "mean P_block", "max P_block", "stddev", "blocked", "offered")
		for i, agg := range aggs {
			at.AddRow(report.Int(points[i].M),
				report.Float(agg.MeanP, 4), report.Float(agg.MaxP, 4), report.Float(agg.StddevP, 4),
				report.Int(agg.Blocked), report.Int(agg.Offered))
		}
		at.Fprint(os.Stdout)
	}

	if *byFanout && len(points) > 0 {
		last := points[len(points)-1]
		fmt.Println()
		ft := report.New(fmt.Sprintf("Blocking by fanout at m=%d", last.M),
			"fanout", "offered", "blocked", "P_block")
		fanouts := make([]int, 0, len(last.Stats.ByFanout))
		for f := range last.Stats.ByFanout {
			fanouts = append(fanouts, f)
		}
		sort.Ints(fanouts)
		for _, f := range fanouts {
			s := last.Stats.ByFanout[f]
			ft.AddRow(report.Int(f), report.Int(s.Offered), report.Int(s.Blocked),
				report.Float(float64(s.Blocked)/float64(s.Offered), 4))
		}
		ft.Fprint(os.Stdout)
	}
}

// jsonPoint is one sweep sample in -json output.
type jsonPoint struct {
	M         int            `json:"m"`
	AtBound   bool           `json:"at_bound"`
	PaperMinM int            `json:"paper_min_m"`
	Result    jsonResult     `json:"result"`
	Aggregate *jsonAggregate `json:"aggregate,omitempty"`
}

// jsonResult is one run in -json output; the field names are the
// document's keys.
type jsonResult struct {
	Offered       int // admissible requests presented
	Routed        int
	Blocked       int
	Starved       int // arrivals no admissible request could be built for
	MaxConcurrent int
	MeanFanout    float64
	TotalFanout   int
	Repacked      int
	ByFanout      map[int]traffic.FanoutStats
}

func toJSON(s traffic.Stats) jsonResult {
	r := jsonResult{
		Offered: s.Connects, Routed: s.Routed, Blocked: s.Blocked, Starved: s.Unoffered,
		MaxConcurrent: s.PeakLive, TotalFanout: s.TotalFanout, Repacked: s.Repacked,
	}
	if s.Connects > 0 {
		r.MeanFanout = float64(s.TotalFanout) / float64(s.Connects)
		r.ByFanout = s.ByFanout
	}
	return r
}

// jsonAggregate is a point's multi-seed summary in -json output.
type jsonAggregate struct {
	Runs    []jsonResult
	Seeds   []int64
	MeanP   float64
	MaxP    float64
	StddevP float64
	Blocked int
	Offered int
}

// jsonDoc is the -json document: enough configuration to rebuild the
// run plus every point, so live blocking numbers (wdmload's, or
// wdm_blocked_total on wdmserve's /metrics) and offline ones can be
// diffed by scripts.
type jsonDoc struct {
	N            int         `json:"n"`
	K            int         `json:"k"`
	R            int         `json:"r"`
	NPerModule   int         `json:"n_per_module"`
	X            int         `json:"x"`
	Model        string      `json:"model"`
	Construction string      `json:"construction"`
	Requests     int         `json:"requests"`
	Load         float64     `json:"load"`
	MaxFanout    int         `json:"max_fanout"`
	Seed         int64       `json:"seed"`
	Seeds        int         `json:"seeds"`
	Rearrange    bool        `json:"rearrangeable"`
	Points       []jsonPoint `json:"points"`
}

func emitJSON(off traffic.Offline, points []traffic.MPoint, aggs []*traffic.Aggregate, nSeeds int) {
	norm, err := off.Base.Normalize()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wdmsim:", err)
		os.Exit(1)
	}
	doc := jsonDoc{
		N: norm.N, K: norm.K, R: norm.R,
		NPerModule:   norm.N / norm.R,
		X:            norm.X,
		Model:        norm.Model.String(),
		Construction: norm.Construction.String(),
		Requests:     off.Engine.Arrivals,
		Load:         off.Engine.Erlangs,
		MaxFanout:    off.Engine.MaxFanout,
		Seed:         off.Engine.Seed,
		Seeds:        nSeeds,
		Rearrange:    off.Repack,
	}
	for i, pt := range points {
		jp := jsonPoint{M: pt.M, AtBound: pt.AtBound, PaperMinM: pt.PaperMin, Result: toJSON(pt.Stats)}
		if i < len(aggs) {
			a := aggs[i]
			ja := &jsonAggregate{Seeds: a.Seeds, MeanP: a.MeanP, MaxP: a.MaxP, StddevP: a.StddevP, Blocked: a.Blocked, Offered: a.Offered}
			for _, r := range a.Runs {
				ja.Runs = append(ja.Runs, toJSON(r))
			}
			jp.Aggregate = ja
		}
		doc.Points = append(doc.Points, jp)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "wdmsim:", err)
		os.Exit(1)
	}
}
