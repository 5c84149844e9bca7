package multistage

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/wdm"
)

// Blocking forensics. A blocking event — the condition Theorems 1 and 2
// make impossible at the sufficient middle-stage bound — is the single
// most actionable signal the router produces, and an opaque error wastes
// it. Every ErrBlocked returned by Add or AddBranch is therefore a
// *BlockedError carrying a BlockReport: the per-middle-module rejection
// reason (input-link wavelength busy vs. output-link busy vs. module out
// of service), the candidate wavelengths that were tried on each busy
// link, and the per-stage link occupancy at the moment of the block.
// Reports are built only on the blocking path, so the routed fast path
// pays nothing.

// MiddleState classifies how one middle module figured in a blocked
// routing attempt.
type MiddleState string

const (
	// MiddleSelected: the selection loop chose this module; Serves lists
	// the output modules it was to cover.
	MiddleSelected MiddleState = "selected"
	// MiddleFailed: the module is out of service (module-internal
	// fault, see FailMiddle) and the router skipped it.
	MiddleFailed MiddleState = "failed"
	// MiddleInLinkBusy: every candidate wavelength on the input-stage
	// link to this module was occupied, so the source could not reach it.
	MiddleInLinkBusy MiddleState = "in-link-busy"
	// MiddleOutLinkBusy: reachable from the source, but every uncovered
	// output module's link from this middle was wavelength-busy.
	MiddleOutLinkBusy MiddleState = "out-link-busy"
	// MiddleSplitLimit: could still cover at least one uncovered output
	// module, but the split limit x was exhausted before it was used.
	MiddleSplitLimit MiddleState = "split-limit"
)

// OutLinkDiag records why one output module was unreachable through a
// particular middle module: the candidate wavelengths on the link
// middle->output that were tried and found busy.
type OutLinkDiag struct {
	OutModule int   `json:"out_module"`
	BusyWaves []int `json:"busy_waves"`
}

// MiddleDiag is the per-middle-module line of a BlockReport.
type MiddleDiag struct {
	Middle int         `json:"middle"`
	State  MiddleState `json:"state"`
	// WavesTried are the candidate wavelengths examined on the
	// input-stage link to this module (all of them busy when State is
	// in-link-busy).
	WavesTried []int `json:"waves_tried,omitempty"`
	// Serves lists the output modules this middle was selected to cover
	// (selected), or could still have covered (split-limit).
	Serves []int `json:"serves,omitempty"`
	// BlockedOut details the uncovered output modules this middle could
	// not reach and on which wavelengths.
	BlockedOut []OutLinkDiag `json:"blocked_out,omitempty"`
}

// BlockReport is the structured account of one blocking event.
type BlockReport struct {
	// Op is "add" for a blocked Connect-style Add, "branch" for a
	// blocked AddBranch grow.
	Op string `json:"op"`
	// Conn is the blocked request in the wdm text codec.
	Conn string `json:"connection"`
	// SrcModule/SrcWave locate the request's entry into the fabric.
	SrcModule int `json:"src_module"`
	SrcWave   int `json:"src_wave"`
	// LastHopWave is the wavelength the final inter-stage hop had to
	// carry; -1 means any free wavelength was acceptable (MAW-dominant
	// with converting output modules).
	LastHopWave int `json:"last_hop_wave"`
	// X is the split limit; SplitsUsed how many splits the selection
	// loop committed before giving up.
	X          int `json:"x"`
	SplitsUsed int `json:"splits_used"`
	// Uncovered lists the output modules no admissible choice of middle
	// modules could reach.
	Uncovered []int `json:"uncovered"`
	// Middles diagnoses every middle module of the fabric.
	Middles []MiddleDiag `json:"middles"`
	// Utilization is the fabric's per-stage link occupancy at the moment
	// of the block.
	Utilization Utilization `json:"utilization"`
}

// String renders the report for humans, one middle module per line.
func (r *BlockReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "blocked %s %s: input module %d λ%d, %d/%d splits used, uncovered %v\n",
		r.Op, r.Conn, r.SrcModule, r.SrcWave, r.SplitsUsed, r.X, r.Uncovered)
	for _, md := range r.Middles {
		fmt.Fprintf(&b, "  middle %d: %s", md.Middle, md.State)
		if len(md.WavesTried) > 0 {
			fmt.Fprintf(&b, " (in-link λ%v tried)", md.WavesTried)
		}
		if len(md.Serves) > 0 {
			fmt.Fprintf(&b, " serves %v", md.Serves)
		}
		for _, od := range md.BlockedOut {
			fmt.Fprintf(&b, " out%d:λ%v busy", od.OutModule, od.BusyWaves)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  occupancy: in %d/%d out %d/%d\n",
		r.Utilization.InBusy, r.Utilization.InTotal, r.Utilization.OutBusy, r.Utilization.OutTotal)
	return b.String()
}

// Backend-specific rejection classes a BlockedError may carry. The
// strings are the stable wire error codes the serving path maps into
// its {"error":{code,message}} envelope; an empty Code is the generic
// "blocked" class.
const (
	// CodeWavelengthConflict: the AWG-Clos wavelength-routing law
	// λ = (dest module - src module) mod k found no middle with the
	// class wavelength free on both hops.
	CodeWavelengthConflict = "wavelength_conflict"
	// CodeSplitIncapable: a mesh request needs light splitting at a
	// multicast-incapable node — structurally unroutable under the
	// sparse-splitting placement, not an occupancy block.
	CodeSplitIncapable = "split_incapable"
)

// BlockedError is the concrete error Add and AddBranch return on a
// blocking event. It wraps ErrBlocked — errors.Is(err, ErrBlocked) and
// IsBlocked keep working — and carries the forensic report.
type BlockedError struct {
	// Code, when non-empty, classifies a backend-specific rejection
	// (CodeWavelengthConflict, CodeSplitIncapable).
	Code string
	// Detail is the human-readable cause, appended to ErrBlocked's text.
	Detail string
	// Report explains the block middle module by middle module.
	Report *BlockReport
}

func (e *BlockedError) Error() string { return ErrBlocked.Error() + ": " + e.Detail }

func (e *BlockedError) Unwrap() error { return ErrBlocked }

// BlockedCode extracts the backend-specific rejection class from a
// (possibly wrapped) blocking error; "" for nil, non-blocking, and
// generic blocks.
func BlockedCode(err error) string {
	var be *BlockedError
	if errors.As(err, &be) {
		return be.Code
	}
	return ""
}

// AsBlockReport extracts the forensic report from a (possibly wrapped)
// blocking error. It returns false for nil, non-blocking, and
// report-free errors.
func AsBlockReport(err error) (*BlockReport, bool) {
	var be *BlockedError
	if errors.As(err, &be) && be.Report != nil {
		return be.Report, true
	}
	return nil, false
}

// blockReport assembles the forensic account of a blocking event from
// the router's state at the failure point. rounds holds the middles the
// search had already chosen, residual the output modules left
// uncovered.
func (net *Network) blockReport(op string, c wdm.Connection, srcMod int,
	lastHopWave wdm.Wavelength, rounds []pick, residual []int) *BlockReport {

	r := &BlockReport{
		Op:          op,
		Conn:        wdm.FormatConnection(c),
		SrcModule:   srcMod,
		SrcWave:     int(c.Source.Wave),
		LastHopWave: int(lastHopWave),
		X:           net.params.X,
		SplitsUsed:  len(rounds),
		Uncovered:   append([]int(nil), residual...),
		Utilization: net.Utilization(),
	}
	sort.Ints(r.Uncovered)
	for j := range net.params.M {
		r.Middles = append(r.Middles, net.diagnoseMiddle(j, c.Source.Wave, srcMod, lastHopWave, rounds, r.Uncovered))
	}
	return r
}

// diagnoseMiddle classifies middle module j for a blocked request.
func (net *Network) diagnoseMiddle(j int, srcWave wdm.Wavelength, srcMod int,
	lastHopWave wdm.Wavelength, rounds []pick, uncovered []int) MiddleDiag {

	md := MiddleDiag{Middle: j}
	if net.failedMid[j] {
		md.State = MiddleFailed
		return md
	}
	for _, rd := range rounds {
		if rd.middle == j {
			md.State = MiddleSelected
			md.Serves = append([]int(nil), rd.serves...)
			return md
		}
	}
	if net.params.Construction == AWGClos {
		return net.diagnoseAWGMiddle(md, srcMod, uncovered)
	}
	if tried, free := net.inLinkCandidates(srcMod, j, srcWave); !free {
		md.State = MiddleInLinkBusy
		md.WavesTried = tried
		return md
	}
	// Reachable from the source: split the uncovered output modules into
	// those this middle could still serve and those its out-links refuse.
	for _, p := range uncovered {
		if net.middleBlocked(j, p, lastHopWave) {
			md.BlockedOut = append(md.BlockedOut, OutLinkDiag{
				OutModule: p,
				BusyWaves: net.outLinkBusyWaves(j, p, lastHopWave),
			})
		} else {
			md.Serves = append(md.Serves, p)
		}
	}
	if len(md.Serves) > 0 {
		md.State = MiddleSplitLimit
	} else {
		md.State = MiddleOutLinkBusy
	}
	return md
}

// inLinkCandidates returns the candidate wavelengths the router would
// try on the link srcMod->j and whether any of them is free — the
// availableMiddles test, with the evidence kept.
func (net *Network) inLinkCandidates(a, j int, srcWave wdm.Wavelength) (tried []int, free bool) {
	link := net.inLink.link(a, j)
	if net.params.Construction == MSWDominant {
		// Wavelength-locked first two stages: only the connection's own
		// wavelength is a candidate.
		return []int{int(srcWave)}, link[srcWave] == freeLink
	}
	if net.params.ConservativeLinks {
		// Plain-set ablation: any occupied wavelength poisons the link.
		for w, v := range link {
			if v != freeLink {
				tried = append(tried, w)
			}
		}
		return tried, len(tried) == 0
	}
	for w, v := range link {
		tried = append(tried, w)
		if v == freeLink {
			free = true
		}
	}
	return tried, free
}

// outLinkBusyWaves lists the candidate wavelengths on the link j->p
// that middleBlocked found occupied.
func (net *Network) outLinkBusyWaves(j, p int, needWave wdm.Wavelength) []int {
	link := net.outLink.link(j, p)
	if net.params.ConservativeLinks && net.params.Construction == MAWDominant {
		var busy []int
		for w, v := range link {
			if v != freeLink {
				busy = append(busy, w)
			}
		}
		return busy
	}
	if needWave >= 0 {
		return []int{int(needWave)}
	}
	busy := make([]int, 0, len(link))
	for w := range link {
		busy = append(busy, w)
	}
	return busy
}
