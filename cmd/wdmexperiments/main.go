// wdmexperiments regenerates every experiment artifact of the
// reproduction in one run, writing tables (.txt) and plot series (.csv)
// plus a MANIFEST into a results directory:
//
//	wdmexperiments -out results/
//
// It is the "make reproduction" entry point: Table 1 (capacities +
// costs, with enumeration cross-checks), Table 2, the theorem-bound
// tables, the Fig. 10 scenario, the Theorem 1 gap demonstration, the
// blocking-vs-m and blocking-vs-load validation series, the scheduling
// rounds comparison, and the unicast cost hierarchy. Exit status is
// non-zero if any verification embedded in the artifacts fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/benes"
	"repro/internal/capacity"
	"repro/internal/crossbar"
	"repro/internal/multistage"
	"repro/internal/report"
	"repro/internal/schedule"
	"repro/internal/traffic"
	"repro/internal/wdm"
)

type runner struct {
	dir      string
	manifest []string
	failed   bool
}

func main() {
	out := flag.String("out", "results", "output directory")
	requests := flag.Int("requests", 3000, "arrivals per simulation point")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "wdmexperiments:", err)
		os.Exit(1)
	}
	r := &runner{dir: *out}

	r.table1Capacity()
	r.table1Cost()
	r.table2()
	r.theoremBounds()
	r.fig10()
	r.theorem1Gap()
	r.blockingSeries(*requests, *seed)
	r.schedulingRounds()
	r.hierarchy()

	manifest := strings.Join(r.manifest, "\n") + "\n"
	if err := os.WriteFile(filepath.Join(r.dir, "MANIFEST.txt"), []byte(manifest), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "wdmexperiments:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d artifacts to %s\n", len(r.manifest), r.dir)
	if r.failed {
		fmt.Fprintln(os.Stderr, "wdmexperiments: one or more embedded verifications FAILED")
		os.Exit(1)
	}
}

func (r *runner) write(name, description, content string) {
	if err := os.WriteFile(filepath.Join(r.dir, name), []byte(content), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "wdmexperiments:", err)
		os.Exit(1)
	}
	r.manifest = append(r.manifest, fmt.Sprintf("%-28s %s", name, description))
}

func (r *runner) fail(what string, err error) {
	fmt.Fprintf(os.Stderr, "wdmexperiments: %s: %v\n", what, err)
	r.failed = true
}

func (r *runner) table1Capacity() {
	var b strings.Builder
	for _, k := range []int64{1, 2, 4} {
		t := report.New(fmt.Sprintf("Table 1 — multicast capacity (k=%d, full / any)", k),
			"N", "MSW full", "MSDW full", "MAW full", "MSW any", "MSDW any", "MAW any")
		for _, n := range []int64{2, 3, 4, 8} {
			t.AddRow(report.Int(int(n)),
				report.Big(capacity.FullMSW(n, k)), report.Big(capacity.FullMSDW(n, k)), report.Big(capacity.FullMAW(n, k)),
				report.Big(capacity.AnyMSW(n, k)), report.Big(capacity.AnyMSDW(n, k)), report.Big(capacity.AnyMAW(n, k)))
		}
		t.Fprint(&b)
		b.WriteString("\n")
	}
	// Embedded verification: enumeration == lemmas on all small sizes.
	for _, d := range []wdm.Dim{{N: 2, K: 2}, {N: 3, K: 2}, {N: 2, K: 3}} {
		for _, m := range wdm.Models {
			enum := capacity.CountByEnumeration(m, d, false)
			lemma := capacity.Any(m, int64(d.N), int64(d.K))
			status := "OK"
			if enum.Cmp(lemma) != 0 {
				status = "MISMATCH"
				r.fail("table1 capacity check", fmt.Errorf("%v N=%d k=%d: %s vs %s", m, d.N, d.K, enum, lemma))
			}
			fmt.Fprintf(&b, "check %v N=%d k=%d: enumeration %s == lemma %s: %s\n", m, d.N, d.K, enum, lemma, status)
		}
	}
	r.write("table1_capacity.txt", "Lemmas 1-3 capacities + enumeration checks", b.String())
}

func (r *runner) table1Cost() {
	var b strings.Builder
	t := report.New("Table 1 — crossbar cost (audited against constructed fabrics)",
		"N", "k", "model", "crosspoints", "converters")
	for _, size := range []struct{ n, k int }{{4, 2}, {8, 2}, {8, 4}} {
		for _, m := range wdm.Models {
			sw := crossbar.New(m, wdm.Dim{N: size.n, K: size.k})
			c := sw.Cost()
			if c.Crosspoints != crossbar.FormulaCrosspoints(m, size.n, size.k) ||
				c.Converters != crossbar.FormulaConverters(m, size.n, size.k) {
				r.fail("table1 cost audit", fmt.Errorf("%v N=%d k=%d: %+v", m, size.n, size.k, c))
			}
			t.AddRow(report.Int(size.n), report.Int(size.k), m.String(),
				report.Int(c.Crosspoints), report.Int(c.Converters))
		}
	}
	t.Footnote = "every row audited: element counts of the built fabric equal the closed forms"
	t.Fprint(&b)
	r.write("table1_cost.txt", "crossbar crosspoints/converters, audited", b.String())
}

func (r *runner) table2() {
	var b strings.Builder
	const k = 2
	t := report.New("Table 2 — crossbar (CB) vs three-stage (MS), MSW-dominant, k=2",
		"N", "model", "CB xpts", "MS xpts", "ratio", "CB conv", "MS conv", "m", "x")
	for _, n := range []int{64, 256, 1024, 4096} {
		rr := split(n)
		for _, m := range wdm.Models {
			cb := crossbar.CostFormula(m, wdm.Shape{In: n, Out: n, K: k})
			mm, xx := multistage.SufficientMinM(multistage.MSWDominant, m, n/rr, rr, k)
			ms, err := multistage.CostFormula(multistage.Params{
				N: n, K: k, R: rr, M: mm, X: xx, Model: m, Construction: multistage.MSWDominant,
			})
			if err != nil {
				r.fail("table2", err)
				continue
			}
			t.AddRow(report.Int(n), m.String(), report.Int(cb.Crosspoints), report.Int(ms.Crosspoints),
				report.Ratio(float64(cb.Crosspoints), float64(ms.Crosspoints)),
				report.Int(cb.Converters), report.Int(ms.Converters), report.Int(mm), report.Int(xx))
		}
	}
	t.Fprint(&b)
	r.write("table2_cost.txt", "crossbar vs multistage cost (Table 2)", b.String())
}

func (r *runner) theoremBounds() {
	var b strings.Builder
	t := report.New("Nonblocking middle-stage bounds", "n", "r", "k",
		"Theorem1 m", "x", "Theorem2 m", "corrected m (MAW model)", "asymptotic m")
	for _, nr := range [][2]int{{4, 4}, {8, 8}, {16, 16}, {32, 32}} {
		n, rr := nr[0], nr[1]
		for _, k := range []int{2, 4} {
			mFix, _ := multistage.SufficientMinM(multistage.MSWDominant, wdm.MAW, n, rr, k)
			t.AddRow(report.Int(n), report.Int(rr), report.Int(k),
				report.Int(multistage.Theorem1MinM(n, rr)), report.Int(multistage.Theorem1BestX(n, rr)),
				report.Int(multistage.Theorem2MinM(n, rr, k)),
				report.Int(mFix),
				report.Int(multistage.AsymptoticM(n, rr)))
		}
	}
	t.Fprint(&b)
	r.write("theorem_bounds.txt", "Theorem 1/2 exact bounds + corrected bound", b.String())
}

func (r *runner) fig10() {
	var b strings.Builder
	a := wdm.Connection{Source: wdm.PortWave{Port: 0, Wave: 0}, Dests: []wdm.PortWave{{Port: 3, Wave: 0}}}
	bb := wdm.Connection{Source: wdm.PortWave{Port: 1, Wave: 0}, Dests: []wdm.PortWave{{Port: 2, Wave: 0}}}
	fmt.Fprintln(&b, "Fig. 10: N=4, k=2, r=2, m=1, MAW model.")
	for _, constr := range []multistage.Construction{multistage.MSWDominant, multistage.MAWDominant} {
		net, err := multistage.New(multistage.Params{
			N: 4, K: 2, R: 2, M: 1, X: 1, Model: wdm.MAW, Construction: constr, Lite: true,
		})
		if err != nil {
			r.fail("fig10", err)
			return
		}
		if _, err := net.Add(a); err != nil {
			r.fail("fig10", err)
			return
		}
		_, err = net.Add(bb)
		blocked := multistage.IsBlocked(err)
		fmt.Fprintf(&b, "%v: request B blocked = %v\n", constr, blocked)
		if (constr == multistage.MSWDominant) != blocked {
			r.fail("fig10", fmt.Errorf("%v: unexpected outcome", constr))
		}
	}
	r.write("fig10_scenario.txt", "middle-stage MSW blocking vs MAW-dominant", b.String())
}

func (r *runner) theorem1Gap() {
	var b strings.Builder
	n, rr, k := 4, 4, 4
	mPaper := multistage.Theorem1MinM(n, rr)
	mFix, xFix := multistage.SufficientMinM(multistage.MSWDominant, wdm.MAW, n, rr, k)
	fmt.Fprintf(&b, "Theorem 1 gap (MAW model, MSW-dominant, n=r=%d, k=%d)\n", n, k)
	fmt.Fprintf(&b, "paper bound m=%d, corrected m=%d\n", mPaper, mFix)
	run := func(m, x int) bool {
		net, err := multistage.New(multistage.Params{
			N: n * rr, K: k, R: rr, M: m, X: x, Model: wdm.MAW,
			Construction: multistage.MSWDominant, Lite: true,
		})
		if err != nil {
			r.fail("gap", err)
			return false
		}
		for i := 0; i < mPaper; i++ {
			c := wdm.Connection{
				Source: wdm.PortWave{Port: wdm.Port(i), Wave: 0},
				Dests:  []wdm.PortWave{{Port: wdm.Port(i / k), Wave: wdm.Wavelength(i % k)}},
			}
			if _, err := net.Add(c); err != nil {
				r.fail("gap prefix", err)
				return false
			}
		}
		probe := wdm.Connection{Source: wdm.PortWave{Port: wdm.Port(mPaper), Wave: 0},
			Dests: []wdm.PortWave{{Port: 3, Wave: 2}}}
		_, err = net.Add(probe)
		return multistage.IsBlocked(err)
	}
	blockedAtPaper := run(mPaper, multistage.Theorem1BestX(n, rr))
	blockedAtFix := run(mFix, xFix)
	fmt.Fprintf(&b, "probe blocked at paper bound: %v (expected true)\n", blockedAtPaper)
	fmt.Fprintf(&b, "probe blocked at corrected bound: %v (expected false)\n", blockedAtFix)
	if !blockedAtPaper || blockedAtFix {
		r.fail("gap", fmt.Errorf("unexpected outcomes %v/%v", blockedAtPaper, blockedAtFix))
	}
	r.write("theorem1_gap.txt", "adversarial demonstration of the Theorem 1 gap", b.String())
}

func (r *runner) blockingSeries(requests int, seed int64) {
	base := multistage.Params{N: 16, K: 2, R: 4, Model: wdm.MSW, Lite: true}
	norm, err := base.Normalize()
	if err != nil {
		r.fail("blocking series", err)
		return
	}
	var ms []int
	for m := 1; m <= norm.M+3; m++ {
		ms = append(ms, m)
	}
	off := traffic.Offline{Base: base, Engine: traffic.Config{Seed: seed, Arrivals: requests, Erlangs: 10, MaxFanout: 8}}
	points, err := off.SweepM(ms)
	if err != nil {
		r.fail("blocking series", err)
		return
	}
	t := report.New("", "m", "offered", "blocked", "p_block", "at_bound")
	for _, pt := range points {
		if pt.AtBound && pt.Stats.Blocked != 0 {
			r.fail("blocking series", fmt.Errorf("blocking at the sufficient bound m=%d", pt.M))
		}
		t.AddRow(report.Int(pt.M), report.Int(pt.Stats.Connects), report.Int(pt.Stats.Blocked),
			fmt.Sprintf("%.6f", pt.Stats.PBlock()), fmt.Sprintf("%v", pt.AtBound))
	}
	var b strings.Builder
	if err := t.FprintCSV(&b); err != nil {
		r.fail("blocking series", err)
		return
	}
	r.write("blocking_vs_m.csv", "blocking probability vs middle-stage size", b.String())
}

func (r *runner) schedulingRounds() {
	var reqs []schedule.Request
	for rep := 0; rep < 2; rep++ {
		for s := 0; s < 16; s++ {
			q := schedule.Request{Source: wdm.Port(s)}
			for d := 1; d <= 6; d++ {
				q.Dests = append(q.Dests, wdm.Port((s+d)%16))
			}
			reqs = append(reqs, q)
		}
	}
	t := report.New("", "k", "lower_bound", "MSW", "MSDW", "MAW")
	for _, k := range []int{1, 2, 4, 8} {
		dim := wdm.Dim{N: 16, K: k}
		row := []string{report.Int(k), report.Int(schedule.LowerBound(dim, reqs))}
		for _, m := range wdm.Models {
			plan, err := schedule.Schedule(m, dim, reqs)
			if err != nil {
				r.fail("scheduling", err)
				return
			}
			row = append(row, report.Int(plan.NumRounds()))
		}
		t.AddRow(row...)
	}
	var b strings.Builder
	if err := t.FprintCSV(&b); err != nil {
		r.fail("scheduling", err)
		return
	}
	r.write("scheduling_rounds.csv", "rounds to carry a fixed batch vs k and model", b.String())
}

func (r *runner) hierarchy() {
	const k = 2
	t := report.New("", "N", "crossbar", "clos", "benes")
	for _, n := range []int{16, 64, 256, 1024, 4096} {
		rr := split(n)
		mm, xx := multistage.SufficientMinM(multistage.MSWDominant, wdm.MSW, n/rr, rr, k)
		ms, err := multistage.CostFormula(multistage.Params{
			N: n, K: k, R: rr, M: mm, X: xx, Model: wdm.MSW, Construction: multistage.MSWDominant,
		})
		if err != nil {
			r.fail("hierarchy", err)
			return
		}
		t.AddRow(report.Int(n), report.Int(k*n*n), report.Int(ms.Crosspoints),
			report.Int(k*benes.Crosspoints(pow2(n))))
	}
	var b strings.Builder
	if err := t.FprintCSV(&b); err != nil {
		r.fail("hierarchy", err)
		return
	}
	r.write("cost_hierarchy.csv", "crossbar / Clos / Beneš crosspoints", b.String())
}

func split(n int) int {
	best, bestDist := 2, 1<<62
	for rr := 2; rr <= n/2; rr++ {
		if n%rr != 0 || n/rr < 2 {
			continue
		}
		d := rr*rr - n
		if d < 0 {
			d = -d
		}
		if d < bestDist {
			best, bestDist = rr, d
		}
	}
	return best
}

func pow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}
