package switchd

import (
	"time"

	"repro/internal/obs/span"
)

// Phase attribution: every serving request is split into the phases
// below, timed by a stack-allocated phaseTimer threaded through the
// controller's unexported hot-path methods. The timer is deliberately
// allocation-free — a fixed array of duration accumulators, nil-safe on
// every method — so the bench path can run with a nil timer (or a stack
// one) at zero heap cost, asserted in phase_test.go.
//
// The split is exported as the wdm_phase_seconds{phase} histograms on
// /metrics, and sampled spans carry it as attributes. A load generator
// that wants a per-run phase mean reads the histograms' sum and count
// deltas, as traffic.Sweep does.

type phase int

const (
	// phaseAdmission is time spent in the admission gate: draining
	// check, cap reservation, fabric pick — everything before the
	// fabric section.
	phaseAdmission phase = iota
	// phaseLockWait is the acquire-to-hold delta on the fabric plane
	// mutex: how long the request queued behind other holders. This is
	// the mutex-funnel number.
	phaseLockWait
	// phaseRouteSearch is time inside the fabric lock spent in the
	// router (Network.Add / AddBranch / Release).
	phaseRouteSearch
	// phaseWALAppend is time waiting for the durable plane's group
	// commit (fsync batch), excluding the replication ack below.
	phaseWALAppend
	// phaseReplAck is the slice of the group commit spent in the
	// cluster Committer barrier waiting for a standby acknowledgement.
	phaseReplAck
	// phaseRespond is response encoding and write (HTTP path only).
	phaseRespond

	numPhases
)

// phaseNames index by phase; these are the `phase` label values of
// wdm_phase_seconds.
var phaseNames = [numPhases]string{
	"admission_wait",
	"lock_wait",
	"route_search",
	"wal_append",
	"repl_ack",
	"respond",
}

// phaseAttrs are the span attribute keys, precomputed so annotating an
// active span never concatenates strings on the hot path.
var phaseAttrs = [numPhases]string{
	"phase_admission_wait_us",
	"phase_lock_wait_us",
	"phase_route_search_us",
	"phase_wal_append_us",
	"phase_repl_ack_us",
	"phase_respond_us",
}

// phaseTimer accumulates one request's per-phase durations. The zero
// value is ready; a nil *phaseTimer is a no-op on every method, so the
// exported Controller methods (which have no HTTP response to time)
// pass nil through unchanged.
type phaseTimer struct {
	d [numPhases]time.Duration
}

// add accumulates d into phase p.
func (pt *phaseTimer) add(p phase, d time.Duration) {
	if pt == nil || d < 0 {
		return
	}
	pt.d[p] += d
}

// observe folds the accumulated durations into the per-phase latency
// histograms. traceID attaches an exemplar to each touched phase when
// non-empty (the bench path passes "" and stays allocation-free).
func (pt *phaseTimer) observe(m *Metrics, traceID string) {
	if pt == nil {
		return
	}
	for p := phase(0); p < numPhases; p++ {
		if pt.d[p] > 0 {
			m.phase[p].observeEx(pt.d[p], traceID)
		}
	}
}

// annotate attaches the non-zero phases to sp as microsecond span
// attributes. SetAttr boxes its value, so this only runs against an
// active (sampled) span.
func (pt *phaseTimer) annotate(sp *span.Span) {
	if pt == nil || !sp.Active() {
		return
	}
	for p := phase(0); p < numPhases; p++ {
		if pt.d[p] > 0 {
			sp.SetAttr(phaseAttrs[p], pt.d[p].Microseconds())
		}
	}
}
