package multistage

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/wdm"
)

// Candidate records how one available middle module looked to the
// selection loop for a particular request.
type Candidate struct {
	Middle  int
	Blocked []int // modules of the round's residual this middle cannot reach: those left uncovered after it
	Serves  []int // modules it was assigned (empty if not chosen)
	Chosen  bool
}

// Explanation is a dry-run account of how a request would route: which
// middle modules were available, what each one's destination
// (multi)set blocked, and which were selected in what order — the
// observable form of Lemma 4's condition. Explanations never mutate the
// network.
type Explanation struct {
	Request     wdm.Connection
	SourceMod   int
	DestMods    []int
	LastHopWave wdm.Wavelength // -1 = any free wavelength acceptable
	Available   []int
	Unavailable []int // middles with no usable input-stage link
	Rounds      []Candidate
	Routable    bool
	Residual    []int // uncovered modules when not routable
}

// Explain dry-runs the routing decision for an admissible request
// against the current network state. The request is not installed. It
// returns an error only for inadmissible requests (model violation or
// busy slots); a blocked request yields Routable=false with the
// uncovered modules listed. The search is the one Add runs
// (selectMiddles), so the rounds and residual are Add's.
func (net *Network) Explain(c wdm.Connection) (*Explanation, error) {
	if err := net.admit(c); err != nil {
		return nil, err
	}
	c = c.Normalize()
	srcMod, _ := net.splitPort(c.Source.Port)
	fanMods := net.destModules(c)
	ex := &Explanation{
		Request:     c,
		SourceMod:   srcMod,
		DestMods:    slices.Clone(fanMods),
		LastHopWave: net.lastHopWave(c.Source.Wave),
	}
	cv := net.selectMiddles(srcMod, c.Source.Wave, ex.LastHopWave, fanMods)

	// The search removes each chosen middle from the available list;
	// put them back to report what was available at the start.
	ex.Available = append([]int(nil), cv.avail...)
	residual := ex.DestMods
	for _, rd := range cv.rounds {
		cand := Candidate{Middle: rd.middle, Serves: slices.Clone(rd.serves), Chosen: true}
		for _, p := range residual {
			if !slices.Contains(rd.serves, p) {
				cand.Blocked = append(cand.Blocked, p)
			}
		}
		residual = cand.Blocked
		ex.Rounds = append(ex.Rounds, cand)
		ex.Available = append(ex.Available, rd.middle)
	}
	slices.Sort(ex.Available)
	for j := range net.params.M {
		if !slices.Contains(ex.Available, j) {
			ex.Unavailable = append(ex.Unavailable, j)
		}
	}
	ex.Residual = append([]int(nil), cv.residual...)
	ex.Routable = len(cv.residual) == 0
	return ex, nil
}

// String renders the explanation for humans (used by diagnostics).
func (ex *Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "request %v: input module %d -> output modules %v\n", ex.Request, ex.SourceMod, ex.DestMods)
	if ex.LastHopWave >= 0 {
		fmt.Fprintf(&b, "last hop pinned to λ%d\n", ex.LastHopWave)
	}
	fmt.Fprintf(&b, "available middles: %v (unavailable: %v)\n", ex.Available, ex.Unavailable)
	for i, c := range ex.Rounds {
		fmt.Fprintf(&b, "split %d: middle %d serves %v (blocked for %v)\n", i+1, c.Middle, c.Serves, c.Blocked)
	}
	if ex.Routable {
		b.WriteString("result: ROUTABLE\n")
	} else {
		fmt.Fprintf(&b, "result: BLOCKED — modules %v uncovered\n", ex.Residual)
	}
	return b.String()
}
