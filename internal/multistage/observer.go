package multistage

import "repro/internal/wdm"

// Route observation. The span tracer (internal/obs/span) wants one span
// per middle-stage decision — which middle each round chose, and, on a
// block, why every remaining candidate was rejected — without the
// router knowing anything about tracing. SetRouteObserver installs a
// callback that Add invokes at those decision points; when no observer
// is installed the routed fast path pays a single nil check.

// RouteStep is one middle-stage decision during a routing attempt.
// State reuses the forensics vocabulary: MiddleSelected for a chosen
// middle, MiddleFailed/MiddleInLinkBusy for candidates the availability
// scan rejected, MiddleOutLinkBusy/MiddleSplitLimit for candidates left
// over when the selection loop gave up.
type RouteStep struct {
	// Round is the selection-loop iteration (0-based); rejection steps
	// carry the round at which the attempt stopped.
	Round int
	// Middle is the middle module examined.
	Middle int
	// State classifies the decision.
	State MiddleState
	// Wave is the wavelength constraint in force: the source wavelength
	// for input-side states, the last-hop wavelength for output-side
	// states (-1 = any free wavelength acceptable).
	Wave int
	// Serves lists output modules this middle covers (selected) or could
	// still have covered (split-limit).
	Serves []int
	// Rejected lists uncovered output modules this middle cannot reach.
	Rejected []int
}

// SetRouteObserver installs fn as the routing observer (nil removes
// it). fn is called synchronously from Add under whatever lock guards
// the Network; it must not call back into the Network.
func (net *Network) SetRouteObserver(fn func(RouteStep)) { net.observer = fn }

// observeSelected reports the middle chosen in one selection round.
func (net *Network) observeSelected(round, middle int, srcWave int, serves []int) {
	if net.observer == nil {
		return
	}
	net.observer(RouteStep{
		Round:  round,
		Middle: middle,
		State:  MiddleSelected,
		Wave:   srcWave,
		Serves: append([]int(nil), serves...),
	})
}

// observeNoAvail reports every middle module after the availability scan
// came back empty: each is either out of service or input-link busy.
func (net *Network) observeNoAvail(srcWave int) {
	if net.observer == nil {
		return
	}
	for j, failed := range net.failedMid {
		st := MiddleInLinkBusy
		if failed {
			st = MiddleFailed
		}
		net.observer(RouteStep{Middle: j, State: st, Wave: srcWave})
	}
}

// observeLoopBlocked reports every candidate still available when the
// selection loop gave up with residual output modules uncovered: each
// either hit the split limit (it could still serve something) or has
// every residual out-link busy.
func (net *Network) observeLoopBlocked(round int, avail, residual []int, lastHopWave int) {
	if net.observer == nil {
		return
	}
	for _, j := range avail {
		var serve, rejected []int
		for _, p := range residual {
			if net.middleBlocked(j, p, wdm.Wavelength(lastHopWave)) {
				rejected = append(rejected, p)
			} else {
				serve = append(serve, p)
			}
		}
		st := MiddleOutLinkBusy
		if len(serve) > 0 {
			st = MiddleSplitLimit
		}
		net.observer(RouteStep{
			Round:    round,
			Middle:   j,
			State:    st,
			Wave:     lastHopWave,
			Serves:   serve,
			Rejected: rejected,
		})
	}
}
