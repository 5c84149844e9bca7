// In-process engine tests: the same request loop as engine_test.go,
// driven through NetworkSink straight into the routing networks, in
// virtual time with no server in between.
package traffic_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/crossbar"
	"repro/internal/multistage"
	"repro/internal/traffic"
	"repro/internal/wdm"
)

// runInProcess drives cfg against sink and returns the run's stats.
func runInProcess(t *testing.T, sink traffic.Sink, cfg traffic.Config) traffic.Stats {
	t.Helper()
	cfg.Sink = sink
	eng, err := traffic.NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	rep, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep.Stats
}

func TestCrossbarNeverBlocks(t *testing.T) {
	// The strictly nonblocking crossbars must route every admissible
	// dynamic request, under every model.
	for _, m := range wdm.Models {
		p := multistage.Params{N: 6, K: 2, Model: m}
		s := runInProcess(t, traffic.NewNetworkSink(crossbar.NewLite(m, wdm.Shape{In: 6, Out: 6, K: 2}), p),
			traffic.Config{Seed: 11, Arrivals: 3000, Erlangs: 8, MaxFanout: 4})
		if s.Blocked != 0 {
			t.Errorf("%v: crossbar blocked %d requests", m, s.Blocked)
		}
		if s.Routed == 0 {
			t.Errorf("%v: nothing routed", m)
		}
	}
}

func TestMultistageAtBoundNeverBlocks(t *testing.T) {
	// At the sufficient middle-stage count, dynamic traffic of any mix
	// must never block, across constructions, models and seeds.
	for _, constr := range []multistage.Construction{multistage.MSWDominant, multistage.MAWDominant} {
		for _, model := range wdm.Models {
			off := traffic.Offline{
				Base:   multistage.Params{N: 16, K: 2, R: 4, Model: model, Construction: constr},
				Engine: traffic.Config{Arrivals: 2500, Erlangs: 12, MaxFanout: 8},
			}
			norm, err := off.Base.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(0); seed < 3; seed++ {
				s, err := off.Run(norm.M, seed)
				if err != nil {
					t.Fatalf("%v/%v seed %d: %v", constr, model, seed, err)
				}
				if s.Blocked != 0 {
					t.Errorf("%v/%v seed %d: %d of %d blocked at the sufficient bound m=%d",
						constr, model, seed, s.Blocked, s.Connects, norm.M)
				}
			}
		}
	}
}

func TestNetworkSinkSharedByWorkers(t *testing.T) {
	// Four workers, each on its own port slice, share one network
	// through one sink: calls must serialize (run under -race), nothing
	// blocks at the bound, and the drain leaves the network empty.
	net, err := multistage.New(multistage.Params{N: 16, K: 2, R: 4, Model: wdm.MSW, Lite: true})
	if err != nil {
		t.Fatal(err)
	}
	s := runInProcess(t, traffic.NewNetworkSink(net, net.Params()), traffic.Config{
		Seed: 2, Arrivals: 2000, Erlangs: 8, MaxFanout: 4, WorkersPerFabric: 4,
		Churn: traffic.ChurnConfig{Rate: 0.3},
	})
	if s.BlockedTotal() != 0 || s.Routed == 0 {
		t.Errorf("routed %d, blocked %d at the bound", s.Routed, s.BlockedTotal())
	}
	if net.Len() != 0 {
		t.Errorf("%d sessions left on the network after the drain", net.Len())
	}
}

func TestUndersizedMiddleStageBlocks(t *testing.T) {
	// With m = 1 the network must visibly block under load — the sanity
	// check that the in-process loop detects blocking at all.
	off := traffic.Offline{
		Base:   multistage.Params{N: 16, K: 2, R: 4, X: 1, Model: wdm.MSW},
		Engine: traffic.Config{Arrivals: 2000, Erlangs: 12, MaxFanout: 8},
	}
	s, err := off.Run(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Blocked == 0 {
		t.Error("m=1 network never blocked under heavy load")
	}
}

// verifyingSink runs the network's full self-check after every
// mutation the engine makes.
type verifyingSink struct {
	traffic.Sink
	net    *multistage.Network
	checks int
	err    error
}

func (s *verifyingSink) verify() {
	s.checks++
	if err := s.net.Verify(); err != nil && s.err == nil {
		s.err = err
	}
}

func (s *verifyingSink) Connect(ctx context.Context, fabric int, c wdm.Connection) (traffic.Reply, error) {
	r, err := s.Sink.Connect(ctx, fabric, c)
	s.verify()
	return r, err
}

func (s *verifyingSink) Branch(ctx context.Context, session uint64, leaf wdm.PortWave) (string, error) {
	code, err := s.Sink.Branch(ctx, session, leaf)
	s.verify()
	return code, err
}

func (s *verifyingSink) Disconnect(ctx context.Context, session uint64) (string, error) {
	code, err := s.Sink.Disconnect(ctx, session)
	s.verify()
	return code, err
}

func TestVerifyCleanAfterChurn(t *testing.T) {
	// A gate-level network stays self-consistent through connects,
	// branch grows, shrink re-admits and teardowns.
	net, err := multistage.New(multistage.Params{
		N: 8, K: 2, R: 4, Model: wdm.MAW, Construction: multistage.MAWDominant,
	})
	if err != nil {
		t.Fatal(err)
	}
	sink := &verifyingSink{Sink: traffic.NewNetworkSink(net, net.Params()), net: net}
	s := runInProcess(t, sink, traffic.Config{
		Seed: 5, Arrivals: 400, Erlangs: 6, MaxFanout: 4,
		Churn: traffic.ChurnConfig{Rate: 0.5},
	})
	if sink.err != nil {
		t.Fatalf("verification failed during the run: %v", sink.err)
	}
	if s.Branches == 0 || s.Shrinks == 0 || sink.checks == 0 {
		t.Errorf("churn inactive: branches=%d shrinks=%d checks=%d", s.Branches, s.Shrinks, sink.checks)
	}
	if net.Len() != 0 || s.Disconnects != s.Routed {
		t.Errorf("run left %d sessions; disconnects=%d routed=%d", net.Len(), s.Disconnects, s.Routed)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := traffic.NewEngine(traffic.Config{Erlangs: 1}); err == nil {
		t.Error("engine without a sink accepted")
	}
	sink := traffic.NewNetworkSink(crossbar.NewLite(wdm.MSW, wdm.Shape{In: 2, Out: 2, K: 1}), multistage.Params{N: 0, K: 1})
	for _, erl := range []float64{0, -1} {
		if _, err := traffic.NewEngine(traffic.Config{Sink: sink, Arrivals: 10, Erlangs: erl}); err == nil {
			t.Errorf("engine with %g Erlangs of offered load accepted", erl)
		}
	}
	eng, err := traffic.NewEngine(traffic.Config{Sink: sink, Arrivals: 10, Erlangs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); err == nil {
		t.Error("N=0 target accepted")
	}
}

func TestStatsAccounting(t *testing.T) {
	p := multistage.Params{N: 4, K: 1, Model: wdm.MSW}
	s := runInProcess(t, traffic.NewNetworkSink(crossbar.NewLite(wdm.MSW, wdm.Shape{In: 4, Out: 4, K: 1}), p),
		traffic.Config{Seed: 9, Arrivals: 500, Erlangs: 4})
	if s.Connects != s.Routed+s.Blocked {
		t.Errorf("connects %d != routed %d + blocked %d", s.Connects, s.Routed, s.Blocked)
	}
	if s.Connects+s.Unoffered != 500 {
		t.Errorf("connects %d + unoffered %d != 500 arrivals", s.Connects, s.Unoffered)
	}
	if s.TotalFanout < s.Connects || s.PeakLive < 1 {
		t.Errorf("total fanout %d below %d connects, peak live %d", s.TotalFanout, s.Connects, s.PeakLive)
	}
	if s.Disconnects != s.Routed {
		t.Errorf("%d of %d routed sessions torn down", s.Disconnects, s.Routed)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	// Same seed, same request stream and the same counts, in process.
	run := func() (traffic.Stats, string) {
		var log bytes.Buffer
		s := runInProcess(t, traffic.NewNetworkSink(crossbar.NewLite(wdm.MAW, wdm.Shape{In: 6, Out: 6, K: 2}), multistage.Params{N: 6, K: 2, Model: wdm.MAW}),
			traffic.Config{Seed: 77, Arrivals: 800, Erlangs: 5, MaxFanout: 3, StreamLog: &log})
		return s, log.String()
	}
	a, logA := run()
	b, logB := run()
	if logA == "" || logA != logB {
		t.Fatalf("same seed, different streams (%d vs %d bytes)", len(logA), len(logB))
	}
	if a.Connects != b.Connects || a.Routed != b.Routed || a.Unoffered != b.Unoffered ||
		a.PeakLive != b.PeakLive || !reflect.DeepEqual(a.ByFanout, b.ByFanout) {
		t.Errorf("same seed, different counts: %+v vs %+v", a, b)
	}
}

func TestFanoutStratification(t *testing.T) {
	// On an undersized network, larger multicasts must block at least as
	// often as unicasts (they need more middle-stage coverage), and the
	// strata must sum to the totals.
	off := traffic.Offline{
		Base:   multistage.Params{N: 16, K: 2, R: 4, X: 2, Model: wdm.MSW},
		Engine: traffic.Config{Arrivals: 3000, Erlangs: 10, MaxFanout: 8},
	}
	s, err := off.Run(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	var offered, blocked int
	for _, fs := range s.ByFanout {
		offered += fs.Offered
		blocked += fs.Blocked
	}
	if offered != s.Connects || blocked != s.Blocked {
		t.Errorf("strata sum to (%d, %d), totals are (%d, %d)", offered, blocked, s.Connects, s.Blocked)
	}
	p := func(f int) float64 { return float64(s.ByFanout[f].Blocked) / float64(s.ByFanout[f].Offered) }
	if n := s.ByFanout[1].Offered; n < 100 {
		t.Fatalf("too few unicasts (%d) for a meaningful comparison", n)
	}
	// Compare unicast blocking against the widest well-sampled stratum.
	for f := 8; f >= 4; f-- {
		if s.ByFanout[f].Offered >= 30 {
			if p(f) < p(1) {
				t.Errorf("fanout-%d blocking %.3f below unicast %.3f", f, p(f), p(1))
			}
			return
		}
	}
	t.Skip("no wide stratum sampled enough")
}

// undersized is the blocking family the seed tests aggregate over.
var undersized = traffic.Offline{
	Base:   multistage.Params{N: 16, K: 2, R: 4, X: 2, Model: wdm.MSW},
	Engine: traffic.Config{Arrivals: 800, Erlangs: 10, MaxFanout: 8},
}

func TestSeedsAggregates(t *testing.T) {
	agg, err := undersized.Seeds(3, []int64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Runs) != 4 {
		t.Fatalf("%d runs", len(agg.Runs))
	}
	if agg.MeanP <= 0 || agg.StddevP <= 0 {
		t.Errorf("undersized network: mean P_block %g, stddev %g", agg.MeanP, agg.StddevP)
	}
	if agg.MaxP < agg.MeanP {
		t.Error("max below mean")
	}
	blocked, offered := 0, 0
	for _, r := range agg.Runs {
		blocked += r.Blocked
		offered += r.Connects
	}
	if blocked != agg.Blocked || offered != agg.Offered {
		t.Errorf("aggregate %d/%d, runs sum to %d/%d", agg.Blocked, agg.Offered, blocked, offered)
	}
}

func TestSeedsMatchRuns(t *testing.T) {
	agg, err := undersized.Seeds(3, []int64{7})
	if err != nil {
		t.Fatal(err)
	}
	single, err := undersized.Run(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if r := agg.Runs[0]; r.Connects != single.Connects || r.Blocked != single.Blocked || r.Routed != single.Routed {
		t.Errorf("aggregated run differs from a single run: %+v vs %+v", r, single)
	}
}

func TestSeedsPropagatesErrors(t *testing.T) {
	if _, err := undersized.Seeds(3, nil); err == nil {
		t.Error("no seeds accepted")
	}
	if _, err := undersized.Seeds(-5, []int64{1}); err == nil {
		t.Error("invalid m accepted")
	}
}

func TestSweepMMatchesRuns(t *testing.T) {
	off := traffic.Offline{
		Base:   multistage.Params{N: 16, K: 2, R: 4, Model: wdm.MSW},
		Engine: traffic.Config{Seed: 21, Arrivals: 800, Erlangs: 10, MaxFanout: 8},
	}
	ms := []int{1, 3, 6, 13}
	points, err := off.SweepM(ms)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range points {
		s, err := off.Run(ms[i], 21)
		if err != nil {
			t.Fatal(err)
		}
		if pt.M != ms[i] || pt.Stats.Connects != s.Connects || pt.Stats.Blocked != s.Blocked {
			t.Errorf("point %d: m=%d %d/%d, single run %d/%d", i, pt.M, pt.Stats.Blocked, pt.Stats.Connects, s.Blocked, s.Connects)
		}
		if pt.AtBound != (pt.M == 13) || pt.PaperMin != 13 {
			t.Errorf("point m=%d: at_bound=%v paper_min=%d", pt.M, pt.AtBound, pt.PaperMin)
		}
	}
}

func TestSweepMPropagatesErrors(t *testing.T) {
	base := multistage.Params{N: 16, K: 2, R: 4, Model: wdm.MSW}
	if _, err := (traffic.Offline{Base: base, Engine: traffic.Config{Arrivals: 10, Erlangs: 1}}).SweepM([]int{-5}); err == nil {
		t.Error("invalid m accepted")
	}
	bad := multistage.Params{N: 15, K: 2, R: 4, Model: wdm.MSW}
	if _, err := (traffic.Offline{Base: bad, Engine: traffic.Config{Arrivals: 10, Erlangs: 1}}).SweepM([]int{3}); err == nil {
		t.Error("invalid base params accepted")
	}
}

func TestLoadSweep(t *testing.T) {
	loads := []float64{2, 6, 12, 20}
	pBlock := func(base multistage.Params, m int) []float64 {
		var ps []float64
		for _, load := range loads {
			off := traffic.Offline{Base: base, Engine: traffic.Config{Arrivals: 1200, Erlangs: load, MaxFanout: 8}}
			s, err := off.Run(m, 4)
			if err != nil {
				t.Fatal(err)
			}
			ps = append(ps, s.PBlock())
		}
		return ps
	}
	// Undersized: blocking must rise with load.
	under := pBlock(multistage.Params{N: 16, K: 2, R: 4, X: 2, Model: wdm.MSW}, 3)
	if under[0] >= under[len(under)-1] {
		t.Errorf("blocking did not rise with load: %.4f .. %.4f", under[0], under[len(under)-1])
	}
	// At the bound: zero at every load (nonblocking is load-independent).
	for i, p := range pBlock(multistage.Params{N: 16, K: 2, R: 4, Model: wdm.MSW}, 13) {
		if p != 0 {
			t.Errorf("load %.1f: P_block %g at the sufficient bound", loads[i], p)
		}
	}
}

func TestSweepMBlockingMonotoneTrend(t *testing.T) {
	// Blocking probability should fall (weakly) as m grows, hitting zero
	// at the sufficient bound.
	off := traffic.Offline{
		Base:   multistage.Params{N: 16, K: 2, R: 4, Model: wdm.MSW},
		Engine: traffic.Config{Seed: 13, Arrivals: 1500, Erlangs: 10, MaxFanout: 8},
	}
	ms := off.DefaultMs()
	sort.Ints(ms)
	points, err := off.SweepM(ms)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 4 {
		t.Fatalf("sweep produced %d points", len(points))
	}
	if last := points[len(points)-1]; last.Stats.Blocked != 0 {
		t.Errorf("largest m=%d still blocks %d", last.M, last.Stats.Blocked)
	}
	if first := points[0]; first.Stats.Blocked == 0 {
		t.Errorf("smallest m=%d never blocks — sweep range uninformative", first.M)
	}
	for _, pt := range points {
		if pt.AtBound && pt.Stats.Blocked != 0 {
			t.Errorf("m at sufficient bound (%d) blocked %d requests", pt.M, pt.Stats.Blocked)
		}
	}
}

func TestDefaultMsCoverRange(t *testing.T) {
	ms := traffic.Offline{Base: multistage.Params{N: 16, K: 2, R: 4, Model: wdm.MSW}}.DefaultMs()
	if len(ms) < 4 {
		t.Fatalf("only %d sweep points", len(ms))
	}
	sort.Ints(ms)
	suffM, _ := multistage.SufficientMinM(multistage.MSWDominant, wdm.MSW, 4, 4, 2)
	found := false
	for _, m := range ms {
		found = found || m == suffM
		if m < 1 {
			t.Errorf("sweep point %d below 1", m)
		}
	}
	if !found {
		t.Error("sweep range misses the sufficient bound")
	}
	if ms[0] >= suffM {
		t.Error("sweep range has no undersized points")
	}
}

func TestMinBlockFreeM(t *testing.T) {
	off := traffic.Offline{
		Base:   multistage.Params{N: 16, K: 2, R: 4, Model: wdm.MSW},
		Engine: traffic.Config{Arrivals: 800, Erlangs: 10, MaxFanout: 8},
	}
	m, err := off.MinBlockFreeM([]int64{1, 2}, 1, 13)
	if err != nil {
		t.Fatal(err)
	}
	// m=1 must block under this load, and the bound must not.
	if m < 2 || m > 13 {
		t.Errorf("empirical min m = %d, expected within (1, 13]", m)
	}
	// Rearrangeable operation never needs more middles than strict.
	off.Repack = true
	rm, err := off.MinBlockFreeM([]int64{1, 2}, 1, 13)
	if err != nil {
		t.Fatal(err)
	}
	if rm > m {
		t.Errorf("rearrangeable min m = %d above strict %d", rm, m)
	}
}

func TestNetworkSinkFailsOnNonBlockingError(t *testing.T) {
	// A refusal that is not a block means the engine offered something
	// inadmissible: it ends the run instead of being counted.
	sink := traffic.NewNetworkSink(refusingNet{}, multistage.Params{N: 4, K: 1, Model: wdm.MSW})
	eng, err := traffic.NewEngine(traffic.Config{Sink: sink, Arrivals: 10, Erlangs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); err == nil || !errors.Is(err, errRefused) {
		t.Errorf("run error %v, want the network's refusal", err)
	}
}

var errRefused = fmt.Errorf("refused")

// refusingNet rejects every request with a non-blocking error.
type refusingNet struct{}

func (refusingNet) Add(wdm.Connection) (int, error) { return 0, errRefused }
func (refusingNet) Release(int) error               { return nil }
