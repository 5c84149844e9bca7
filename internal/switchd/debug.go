package switchd

import (
	"slices"
	"sync"
	"time"

	"repro/internal/multistage"
	"repro/internal/obs"
	"repro/internal/trace"
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
//     parameter set. Each plane records into a trace.Recorder inside
//     the critical section of the operation it mirrors, so the trace
//     order is the serialization order the fabric saw.

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

// Trace returns a snapshot of a fabric's captured serving history. It
// reports false when the fabric index is out of range or capture is
// disabled (Config.CaptureTrace unset).
func (ctl *Controller) Trace(fabric int) (*trace.Trace, bool) {
	if fabric < 0 || fabric >= len(ctl.fabrics) {
		return nil, false
	}
	f := ctl.fabrics[fabric]
	if f.rec == nil {
		return nil, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return &trace.Trace{Events: slices.Clone(f.rec.Trace().Events)}, true
}
