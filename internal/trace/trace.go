// Package trace records and replays connection-event sequences against
// WDM switching networks. A trace is the exact interface history of a
// network — which multicasts were requested, in what order, which were
// torn down, and what the outcome was — serialized in a line-oriented
// text form:
//
//	# comment
//	add 0.0>1.1,2.0 ok=1
//	add 1.0>2.0 blocked
//	release 1
//
// Traces make blocking incidents reproducible: the traffic engine can
// record an in-process run, the failing prefix replays against any network
// configuration (different m, different construction, different
// strategy), and the outcome comparison shows exactly where behaviours
// diverge. The repository's regression corpus for the Theorem 1 gap is
// stored as such traces.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/wdm"
)

// Op is the event type.
type Op int

const (
	// Add requests a connection.
	Add Op = iota
	// Release tears one down (by the id the trace assigned).
	Release
)

// Outcome records what happened to an Add.
type Outcome int

const (
	// OK means the connection was routed; the event carries its id.
	OK Outcome = iota
	// Blocked means the network refused it for lack of internal paths.
	Blocked
	// Rejected means the request was inadmissible (busy slots, model
	// violation) — not a blocking event.
	Rejected
)

// Event is one step of a trace.
type Event struct {
	Op      Op
	Conn    wdm.Connection // for Add
	ID      int            // assigned id for OK adds; target id for Release
	Outcome Outcome        // for Add
}

// Trace is an ordered event list.
type Trace struct {
	Events []Event
}

// Recorder wraps a network and logs every Add/Release with its outcome.
type Recorder struct {
	net       Network
	isBlocked func(error) bool
	trace     Trace
	// ids maps network-assigned ids to trace-local ids (dense, stable
	// across replays even if the network numbers differently).
	ids    map[int]int
	nextID int
}

// Network is a routing network as the recorder, the replayer and the
// traffic engine's in-process sink drive it; backend.Backend,
// *multistage.Network and *crossbar.Switch all satisfy it.
type Network interface {
	Add(wdm.Connection) (int, error)
	Release(int) error
}

// NewRecorder wraps net; isBlocked classifies Add errors (nil means
// "nothing blocks").
func NewRecorder(net Network, isBlocked func(error) bool) *Recorder {
	if isBlocked == nil {
		isBlocked = func(error) bool { return false }
	}
	return &Recorder{net: net, isBlocked: isBlocked, ids: make(map[int]int)}
}

// Add forwards to the network and records the outcome. The returned id
// is the network's id (use it for Release as usual).
func (r *Recorder) Add(c wdm.Connection) (int, error) {
	id, err := r.net.Add(c)
	ev := Event{Op: Add, Conn: c.Clone()}
	switch {
	case err == nil:
		ev.Outcome = OK
		ev.ID = r.nextID
		r.ids[id] = r.nextID
		r.nextID++
	case r.isBlocked(err):
		ev.Outcome = Blocked
	default:
		ev.Outcome = Rejected
	}
	r.trace.Events = append(r.trace.Events, ev)
	return id, err
}

// Release forwards to the network and records the teardown.
func (r *Recorder) Release(id int) error {
	err := r.net.Release(id)
	if err == nil {
		r.trace.Events = append(r.trace.Events, Event{Op: Release, ID: r.ids[id]})
		delete(r.ids, id)
	}
	return err
}

// Trace returns the recorded history (shared storage; copy if you keep
// mutating the recorder).
func (r *Recorder) Trace() *Trace { return &r.trace }

// ReplayResult compares a replay against the recorded outcomes.
type ReplayResult struct {
	Applied    int   // events executed
	OKMatches  int   // adds that succeeded in both runs
	Divergence []int // event indices whose outcome differed
}

// Replay drives the trace's requests against another network and reports
// where outcomes diverge (e.g. an add that blocked in the recording but
// routes with a larger middle stage). Release events for adds that did
// not succeed in this replay are skipped. isBlocked classifies the
// replay network's errors.
func (t *Trace) Replay(net Network, isBlocked func(error) bool) (*ReplayResult, error) {
	if isBlocked == nil {
		isBlocked = func(error) bool { return false }
	}
	res := &ReplayResult{}
	ids := make(map[int]int) // trace id -> replay network id
	for i, ev := range t.Events {
		res.Applied++
		switch ev.Op {
		case Add:
			id, err := net.Add(ev.Conn)
			var got Outcome
			switch {
			case err == nil:
				got = OK
				// Only OK-recorded adds carry a trace id; registering a
				// succeeded-where-recorded-blocked add under ev.ID (zero
				// for blocked events) would clobber trace id 0's mapping.
				if ev.Outcome == OK {
					ids[ev.ID] = id
				}
			case isBlocked(err):
				got = Blocked
			default:
				got = Rejected
			}
			if got != ev.Outcome {
				res.Divergence = append(res.Divergence, i)
			}
			if got == OK && ev.Outcome == OK {
				res.OKMatches++
			}
			// A replay add that succeeded where the recording blocked
			// leaves a live connection the recording never released;
			// tear it down so subsequent slots match the recording.
			if got == OK && ev.Outcome != OK {
				if err := net.Release(id); err != nil {
					return res, fmt.Errorf("trace: event %d: cleanup release: %w", i, err)
				}
			}
		case Release:
			id, ok := ids[ev.ID]
			if !ok {
				continue // the corresponding add did not succeed here
			}
			if err := net.Release(id); err != nil {
				return res, fmt.Errorf("trace: event %d: release %d: %w", i, ev.ID, err)
			}
			delete(ids, ev.ID)
		default:
			return res, fmt.Errorf("trace: event %d: unknown op %d", i, ev.Op)
		}
	}
	return res, nil
}

// Write serializes the trace in the line format documented above.
func (t *Trace) Write(w io.Writer) error {
	for _, ev := range t.Events {
		var line string
		switch ev.Op {
		case Add:
			switch ev.Outcome {
			case OK:
				line = fmt.Sprintf("add %s ok=%d", wdm.FormatConnection(ev.Conn), ev.ID)
			case Blocked:
				line = fmt.Sprintf("add %s blocked", wdm.FormatConnection(ev.Conn))
			case Rejected:
				line = fmt.Sprintf("add %s rejected", wdm.FormatConnection(ev.Conn))
			}
		case Release:
			line = fmt.Sprintf("release %d", ev.ID)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// Read parses a serialized trace. Blank lines and lines starting with
// '#' are ignored.
func Read(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "add":
			if len(fields) != 3 {
				return nil, fmt.Errorf("trace: line %d: want 'add <conn> <outcome>'", lineNo)
			}
			conn, err := wdm.ParseConnection(fields[1])
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: %v", lineNo, err)
			}
			ev := Event{Op: Add, Conn: conn}
			switch {
			case strings.HasPrefix(fields[2], "ok="):
				id, err := strconv.Atoi(strings.TrimPrefix(fields[2], "ok="))
				if err != nil {
					return nil, fmt.Errorf("trace: line %d: bad id: %v", lineNo, err)
				}
				ev.Outcome, ev.ID = OK, id
			case fields[2] == "blocked":
				ev.Outcome = Blocked
			case fields[2] == "rejected":
				ev.Outcome = Rejected
			default:
				return nil, fmt.Errorf("trace: line %d: unknown outcome %q", lineNo, fields[2])
			}
			t.Events = append(t.Events, ev)
		case "release":
			if len(fields) != 2 {
				return nil, fmt.Errorf("trace: line %d: want 'release <id>'", lineNo)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad id: %v", lineNo, err)
			}
			t.Events = append(t.Events, Event{Op: Release, ID: id})
		default:
			return nil, fmt.Errorf("trace: line %d: unknown op %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}
