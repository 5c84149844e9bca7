package switchd

import (
	"sync"
	"time"

	"repro/internal/multistage"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wdm"
)

// Blocking forensics and live trace capture. A blocked request at
// sufficient m is a theorem violation; below the bound it is an expected
// event worth a post-mortem. Either way the controller keeps two
// artifacts:
//
//   - a ring buffer of the last N BlockIncidents, each carrying the
//     fabric's structured BlockReport (which middle modules were tried,
//     which link wavelength was busy, the occupancy snapshot) — served
//     at GET /v1/debug/blocking;
//   - optionally, the full per-fabric serving history in the
//     internal/trace line format — served at GET /v1/debug/trace — so
//     a live incident replays offline with wdmtrace against any
//     parameter set.

// BlockIncident is one blocked Connect or AddBranch, as kept in the
// forensics ring buffer.
type BlockIncident struct {
	// Seq numbers incidents monotonically from 1; the ring holds the
	// highest Seq values.
	Seq    int64     `json:"seq"`
	Time   time.Time `json:"time"`
	Op     string    `json:"op"` // connect | branch
	Fabric int       `json:"fabric"`
	// TraceID joins the incident to its trace at /v1/debug/spans (empty
	// for untraced requests).
	TraceID string                  `json:"trace_id,omitempty"`
	Session uint64                  `json:"session,omitempty"` // for branch: the session that failed to grow
	Conn    string                  `json:"connection"`
	Error   string                  `json:"error"`
	Report  *multistage.BlockReport `json:"report,omitempty"`
}

// blockLog keeps the most recent incidents in a fixed-capacity ring
// and numbers every incident ever recorded.
type blockLog struct {
	mu   sync.Mutex
	ring *obs.Ring[BlockIncident]
	seq  int64
}

func newBlockLog(capacity int) *blockLog {
	if capacity <= 0 {
		return nil
	}
	return &blockLog{ring: obs.NewRing[BlockIncident](capacity)}
}

func (l *blockLog) record(inc BlockIncident) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	inc.Seq = l.seq
	l.ring.Push(inc)
	return inc.Seq
}

// snapshot returns the buffered incidents oldest-first and the total
// ever recorded.
func (l *blockLog) snapshot() ([]BlockIncident, int64) {
	if l == nil {
		return nil, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.AppendTo(make([]BlockIncident, 0, l.ring.Len())), l.seq
}

// BlockIncidents returns the buffered incidents oldest-first and the
// total number of blocking events recorded since start (which may
// exceed the buffer length). With forensics disabled both are zero.
func (ctl *Controller) BlockIncidents() ([]BlockIncident, int64) {
	return ctl.blockLog.snapshot()
}

// traceCap captures one fabric's serving history as a replayable trace.
// It is guarded by the owning fabric's mutex — every event is recorded
// inside the same critical section as the fabric operation it mirrors,
// so the trace order IS the serialization order the fabric saw.
type traceCap struct {
	trace  trace.Trace
	ids    map[int]int // fabric connection id -> trace-local id
	nextID int
}

func newTraceCap() *traceCap {
	return &traceCap{ids: make(map[int]int)}
}

// add records one Add outcome; connID is meaningful only for ok.
func (tc *traceCap) add(c wdm.Connection, connID int, err error) {
	if tc == nil {
		return
	}
	ev := trace.Event{Op: trace.Add, Conn: c.Clone()}
	switch {
	case err == nil:
		ev.Outcome = trace.OK
		ev.ID = tc.nextID
		tc.ids[connID] = tc.nextID
		tc.nextID++
	case multistage.IsBlocked(err):
		ev.Outcome = trace.Blocked
	default:
		ev.Outcome = trace.Rejected
	}
	tc.trace.Events = append(tc.trace.Events, ev)
}

// release records one successful Release.
func (tc *traceCap) release(connID int) {
	if tc == nil {
		return
	}
	tc.trace.Events = append(tc.trace.Events, trace.Event{Op: trace.Release, ID: tc.ids[connID]})
	delete(tc.ids, connID)
}

// migrate records a failure-plane live migration in add/release
// vocabulary: the fabric re-routed the connection under a stable id, so
// the equivalent trace is release old; add same connection ok=new. A
// replay routes the re-add with the then-current occupancy, which is
// exactly the failure-plane situation being reproduced.
func (tc *traceCap) migrate(connID int, c wdm.Connection) {
	if tc == nil {
		return
	}
	tc.trace.Events = append(tc.trace.Events, trace.Event{Op: trace.Release, ID: tc.ids[connID]})
	delete(tc.ids, connID)
	tc.add(c, connID, nil)
}

// branch records an AddBranch in add/release vocabulary. The fabric
// implements a branch as release + add(grown) under a stable id,
// restoring the original on a blocked grow, so the equivalent trace is:
//
//	ok:      release old; add grown ok=new
//	blocked: release old; add grown blocked; add original ok=new
//
// (a rejected branch leaves the fabric untouched and records nothing).
// On the blocked path the fabric reinstalls the exact original route
// while a replay re-routes the original from scratch; the router is
// deterministic, but the re-route may differ from the reinstalled
// route, and Replay's divergence report flags any case where that
// matters.
func (tc *traceCap) branch(connID int, original, grown wdm.Connection, err error) {
	if tc == nil {
		return
	}
	if err != nil && !multistage.IsBlocked(err) {
		return
	}
	tc.trace.Events = append(tc.trace.Events, trace.Event{Op: trace.Release, ID: tc.ids[connID]})
	delete(tc.ids, connID)
	if err == nil {
		tc.add(grown, connID, nil)
		return
	}
	tc.trace.Events = append(tc.trace.Events, trace.Event{Op: trace.Add, Conn: grown.Clone(), Outcome: trace.Blocked})
	tc.add(original, connID, nil)
}

// Trace returns a snapshot of a fabric's captured serving history. It
// reports false when the fabric index is out of range or capture is
// disabled (Config.CaptureTrace unset).
func (ctl *Controller) Trace(fabric int) (*trace.Trace, bool) {
	if fabric < 0 || fabric >= len(ctl.fabrics) {
		return nil, false
	}
	f := ctl.fabrics[fabric]
	if f.cap == nil {
		return nil, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	t := &trace.Trace{Events: make([]trace.Event, len(f.cap.trace.Events))}
	copy(t.Events, f.cap.trace.Events)
	return t, true
}
