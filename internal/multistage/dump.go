package multistage

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/wdm"
)

// DumpState writes a human-readable snapshot of the network: parameters,
// per-link wavelength occupancy matrices (connection ids, '.' = free,
// 'X' column = failed middle), and the live connection list. Operators
// read this next to Explain output when diagnosing an incident.
func (net *Network) DumpState(w io.Writer) error {
	p := net.params
	if _, err := fmt.Fprintf(w, "three-stage network: N=%d k=%d r=%d n=%d m=%d x=%d %v %v depth=%d\n",
		p.N, p.K, p.R, p.n(), p.M, p.X, p.Model, p.Construction, p.Depth); err != nil {
		return err
	}
	if failed := net.FailedMiddles(); len(failed) > 0 {
		fmt.Fprintf(w, "failed middles: %v\n", failed)
	}
	dumpLinks := func(title, rowLabel string, l links) {
		fmt.Fprintf(w, "%s (rows: %s, cols: far end; cell: one char per wavelength)\n", title, rowLabel)
		for a := range l.xs {
			var b strings.Builder
			fmt.Fprintf(&b, "  %2d: ", a)
			for j := range l.ys {
				for _, v := range l.link(a, j) {
					if v == freeLink {
						b.WriteByte('.')
					} else {
						b.WriteString(fmt.Sprintf("%d", v%10))
					}
				}
				b.WriteByte(' ')
			}
			fmt.Fprintln(w, b.String())
		}
	}
	dumpLinks("input-stage links", "input module", net.inLink)
	dumpLinks("output-stage links", "middle module", net.outLink)

	ids := net.ids()
	fmt.Fprintf(w, "live connections (%d):\n", len(ids))
	for _, id := range ids {
		rc := net.conns[id]
		mids, _ := net.MiddlesUsed(id)
		fmt.Fprintf(w, "  %3d: %v via middles %v\n", id, rc.conn, mids)
	}
	u := net.Utilization()
	_, err := fmt.Fprintf(w, "utilization: in %.1f%%, out %.1f%% (busiest link %d/%d waves)\n",
		100*u.InLinkBusy, 100*u.OutLinkBusy, max(u.BusiestInLink, u.BusiestOutLink), p.K)
	return err
}

// WriteDOT renders the module-level structure of the network in
// Graphviz DOT (the paper's Figs. 8-9): input/middle/output modules as
// nodes labelled with their shape and model, one edge per inter-stage
// fiber, edge labels showing the current occupied/total wavelength
// count. Nested middle modules (Depth > 3) are labelled as subnetworks.
func (net *Network) WriteDOT(w io.Writer) error {
	p := net.params
	s12 := p.Construction.Stage12Model()
	if _, err := fmt.Fprintf(w,
		"digraph multistage {\n  rankdir=LR;\n  label=%q;\n  labelloc=t;\n  node [shape=box];\n",
		fmt.Sprintf("%d-stage %v network, N=%d k=%d r=%d m=%d (%v)", p.Depth, p.Model, p.N, p.K, p.R, p.M, p.Construction)); err != nil {
		return err
	}
	for a := 0; a < p.R; a++ {
		fmt.Fprintf(w, "  in%d [label=\"IN %d\\n%dx%d %v\"];\n", a, a, p.n(), p.M, s12)
		fmt.Fprintf(w, "  out%d [label=\"OUT %d\\n%dx%d %v\"];\n", a, a, p.M, p.n(), p.Model)
	}
	for j := range p.M {
		kind := fmt.Sprintf("%dx%d %v", p.R, p.R, p.Construction.MiddleModel())
		if net.mids != nil {
			kind = fmt.Sprintf("%dx%d %d-stage", p.R, p.R, p.Depth-2)
		}
		style := ""
		if net.failedMid[j] {
			style = `, style=filled, fillcolor="#ffb0b0"`
		}
		fmt.Fprintf(w, "  mid%d [label=\"MID %d\\n%s\"%s];\n", j, j, kind, style)
	}
	busy := func(link []int) int {
		n := 0
		for _, v := range link {
			if v != freeLink {
				n++
			}
		}
		return n
	}
	for a := range net.inLink.xs {
		for j := range net.inLink.ys {
			fmt.Fprintf(w, "  in%d -> mid%d [label=\"%d/%d\"];\n", a, j, busy(net.inLink.link(a, j)), p.K)
		}
	}
	for j := range net.outLink.xs {
		for pOut := range net.outLink.ys {
			fmt.Fprintf(w, "  mid%d -> out%d [label=\"%d/%d\"];\n", j, pOut, busy(net.outLink.link(j, pOut)), p.K)
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// RouteBatch routes a whole assignment from the network's current state
// in largest-fanout-first order (the packing order that gives the greedy
// selector the hardest connections while choice is widest), rolling back
// everything it added on failure. It returns the ids in the order of the
// *input* assignment. For batch (static) traffic this routes at
// middle-stage counts below what adversarial arrival orders need — the
// offline/online gap the repack machinery exploits dynamically.
func (net *Network) RouteBatch(a wdm.Assignment) ([]int, error) {
	order := make([]int, len(a))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		return a[order[x]].Fanout() > a[order[y]].Fanout()
	})
	ids := make([]int, len(a))
	var added []int
	for _, idx := range order {
		id, err := net.Add(a[idx])
		if err != nil {
			for _, rid := range added {
				_ = net.Release(rid)
			}
			return nil, fmt.Errorf("multistage: batch connection %d: %w", idx, err)
		}
		ids[idx] = id
		added = append(added, id)
	}
	return ids, nil
}
