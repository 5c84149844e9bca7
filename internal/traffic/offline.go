package traffic

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/multistage"
)

// Offline is an in-process experiment on one family of three-stage
// networks: the engine runs in virtual time against a freshly built
// Lite network per point, through a NetworkSink. It regenerates the
// repository's blocking-vs-m series, seed spreads and empirical minimal
// m (EXPERIMENTS.md) — the executable counterpart of Theorems 1 and 2,
// which the paper proves without an empirical section.
type Offline struct {
	// Base is the fabric; every run sets its own M.
	Base multistage.Params
	// Engine is the workload (Arrivals, Erlangs, MaxFanout, ...); Run
	// sets the Sink and Seed.
	Engine Config
	// Repack runs every network rearrangeably (NewRepackSink).
	Repack bool
}

// Run builds the network with m middle modules and runs the workload
// on it once under seed.
func (o Offline) Run(m int, seed int64) (Stats, error) {
	p := o.Base
	p.M, p.Lite = m, true
	net, err := multistage.New(p)
	if err != nil {
		return Stats{}, fmt.Errorf("traffic: building network with m=%d: %w", m, err)
	}
	cfg := o.Engine
	cfg.Seed = seed
	cfg.Sink = NewNetworkSink(net, net.Params())
	if o.Repack {
		cfg.Sink = NewRepackSink(net)
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		return Stats{}, err
	}
	rep, err := eng.Run(context.Background())
	if err != nil {
		return Stats{}, fmt.Errorf("traffic: m=%d seed=%d: %w", m, seed, err)
	}
	return rep.Stats, nil
}

// MPoint is one point of a middle-stage sweep.
type MPoint struct {
	M        int
	AtBound  bool // m is the sufficient (nonblocking) bound
	PaperMin int  // the paper's stated theorem bound, for reference
	Stats    Stats
}

// SweepM runs the workload once per m under Engine.Seed, in ms order.
func (o Offline) SweepM(ms []int) ([]MPoint, error) {
	suffM, paperM, err := o.bounds()
	if err != nil {
		return nil, err
	}
	points := make([]MPoint, 0, len(ms))
	for _, m := range ms {
		s, err := o.Run(m, o.Engine.Seed)
		if err != nil {
			return nil, err
		}
		points = append(points, MPoint{M: m, AtBound: m == suffM, PaperMin: paperM, Stats: s})
	}
	return points, nil
}

// DefaultMs is a sweep range around the sufficient bound: a few
// heavily undersized points, the paper bound, the sufficient bound and
// one above, in the order they were added.
func (o Offline) DefaultMs() []int {
	suffM, paperM, err := o.bounds()
	if err != nil {
		return nil
	}
	var ms []int
	for _, m := range []int{1, suffM / 4, suffM / 2, 3 * suffM / 4, paperM, suffM, suffM + suffM/4} {
		if m >= 1 && !slices.Contains(ms, m) {
			ms = append(ms, m)
		}
	}
	return ms
}

// bounds returns Base's sufficient and paper middle-stage counts.
func (o Offline) bounds() (suffM, paperM int, err error) {
	norm, err := o.Base.Normalize()
	if err != nil {
		return 0, 0, err
	}
	n := norm.N / norm.R
	suffM, _ = multistage.SufficientMinM(norm.Construction, norm.Model, n, norm.R, norm.K)
	paperM, _ = multistage.PaperMinM(norm.Construction, n, norm.R, norm.K)
	return suffM, paperM, nil
}

// Aggregate summarizes one configuration run under several seeds —
// the standard way to report a blocking probability with its spread.
type Aggregate struct {
	Runs    []Stats
	Seeds   []int64
	MeanP   float64 // mean blocking probability
	MaxP    float64 // worst seed
	StddevP float64 // spread across seeds
	Blocked int     // total blocked over all runs
	Offered int
}

// Seeds runs the workload at m once per seed and aggregates the
// blocking probabilities.
func (o Offline) Seeds(m int, seeds []int64) (*Aggregate, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("traffic: Seeds needs at least one seed")
	}
	agg := &Aggregate{Seeds: append([]int64(nil), seeds...)}
	var sum, sumSq float64
	for _, seed := range seeds {
		s, err := o.Run(m, seed)
		if err != nil {
			return nil, err
		}
		agg.Runs = append(agg.Runs, s)
		p := s.PBlock()
		sum += p
		sumSq += p * p
		agg.MaxP = max(agg.MaxP, p)
		agg.Blocked += s.Blocked
		agg.Offered += s.Connects
	}
	n := float64(len(seeds))
	agg.MeanP = sum / n
	if variance := sumSq/n - agg.MeanP*agg.MeanP; variance > 0 {
		agg.StddevP = math.Sqrt(variance)
	}
	return agg, nil
}

// MinBlockFreeM returns the smallest m in [lo, hi] at which every
// seed's run routes without a single block, or hi+1 if none does — the
// empirical analogue of the theorems' minimal m, which the ablation
// benchmarks compare across routing strategies and link semantics.
// Blocking falls with m only statistically, so the scan is linear.
func (o Offline) MinBlockFreeM(seeds []int64, lo, hi int) (int, error) {
	for m := lo; m <= hi; m++ {
		free := true
		for _, seed := range seeds {
			s, err := o.Run(m, seed)
			if err != nil {
				return 0, err
			}
			if s.Blocked > 0 {
				free = false
				break
			}
		}
		if free {
			return m, nil
		}
	}
	return hi + 1, nil
}
