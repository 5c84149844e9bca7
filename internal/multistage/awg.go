package multistage

import "repro/internal/wdm"

// AWG-Clos routing (arXiv 1308.4477's passive-crosspoint construction,
// adapted to this repository's module geometry). The middle stage is
// built from arrayed-waveguide gratings: passive devices that neither
// convert wavelengths nor split light. Two consequences shape the
// router:
//
//  1. Wavelength law. The cyclic grating response fixes the wavelength
//     a connection from input module a to output module p must ride
//     through ANY middle to the class wavelength
//
//     λ(a, p) = (p - a) mod k,
//
//     on both the input-stage link a->j and the output-stage link j->p.
//     There is no wavelength choice to make — only a middle choice.
//
//  2. No middle multicast. A grating maps each (input, wavelength) to
//     exactly one output, so a middle serves exactly one destination
//     module per connection; a fanout over f destination modules costs
//     f distinct middles (hence x = r in AWGClosMinM).
//
// A request for which no middle has the class wavelength free on both
// hops is rejected with the stable wavelength_conflict code rather than
// the generic blocked class: the conflict is the AWG constraint at
// work, and clients distinguishing the two can respond differently
// (e.g. re-request under a different source slot).
//
// The middle search for this construction is coverAWG (route.go), which
// Add and Explain share with the greedy cover.

// awgWave returns the class wavelength the passive middle stage forces
// for the (input module a, output module p) pair.
func (net *Network) awgWave(a, p int) wdm.Wavelength {
	k := net.params.K
	return wdm.Wavelength(((p-a)%k + k) % k)
}

// diagnoseAWGMiddle classifies middle module j for a blocked AWG-Clos
// request: for each uncovered destination module the class wavelength
// is the only candidate, busy on the input-stage hop, the output-stage
// hop, or neither (the middle could still serve it — a split-limit or
// own-leg reservation). md arrives with Middle set and the
// failed/selected cases already handled.
func (net *Network) diagnoseAWGMiddle(md MiddleDiag, srcMod int, uncovered []int) MiddleDiag {
	j := md.Middle
	inBusyAll := true
	for _, p := range uncovered {
		w := net.awgWave(srcMod, p)
		inBusy := net.inLink.link(srcMod, j)[w] != freeLink
		outBusy := net.outLink.link(j, p)[w] != freeLink
		if inBusy {
			md.WavesTried = append(md.WavesTried, int(w))
		}
		if !inBusy && !outBusy {
			md.Serves = append(md.Serves, p)
			inBusyAll = false
			continue
		}
		if outBusy {
			md.BlockedOut = append(md.BlockedOut, OutLinkDiag{OutModule: p, BusyWaves: []int{int(w)}})
		}
		if !inBusy {
			inBusyAll = false
		}
	}
	switch {
	case len(md.Serves) > 0:
		md.State = MiddleSplitLimit
	case inBusyAll && len(uncovered) > 0:
		md.State = MiddleInLinkBusy
	default:
		md.State = MiddleOutLinkBusy
	}
	return md
}
