// Package durable is the crash-safe state plane of the serving path: a
// segmented, CRC32C-framed, append-only write-ahead log plus periodic
// snapshots, from which a controller recovers its full session table
// and failure-plane state after a hard stop.
//
// The design leans on the paper rather than on generality. The
// theorems' nonblocking guarantee is a statement about *state*: any
// admissible session set below the bound is realizable, and a recorded
// route (multistage.RouteRecord) re-applies through Reinstall with no
// router search. The log therefore stores exact routes, not requests —
// recovery replays records into an empty fabric of the same parameters,
// where a set of routes that coexisted at crash time is mutually
// conflict-free by construction. Recovery cannot block, whatever the
// middle-stage provisioning or failure state was.
//
// Log layout (one directory per controller):
//
//	wal-<first-seq, 16 hex>.log   segments: 8-byte magic, then frames
//	snap-<last-seq, 16 hex>.snap  snapshots: 8-byte magic, one frame
//
// Every frame is [4-byte LE payload length][4-byte LE CRC32C][payload],
// payload JSON of one Record. Appends are group-committed: the hot path
// buffers the frame, and an appender that finds no fsync in flight
// leads the batch — it flushes every buffered frame and runs one
// fsync for all of them — while appends that arrive during that fsync
// form the next batch. No timer holds a batch open: a lone append pays
// one fsync at once, and concurrent appenders share one. A record is
// acknowledged only after the fsync covering it returns.
//
// Recovery loads the newest CRC-valid snapshot, then replays the log
// tail (records with Seq beyond the snapshot). A corrupted or torn
// tail does not fail recovery: the log is truncated at the first bad
// frame, the byte offset is reported, and serving resumes from what
// was durably acknowledged — exactly the contract fsync gives.
//
// A data directory has one reader. Open, Verify and ReadState each run
// the same scan — report every snapshot, prime the state from the
// newest valid one, walk the log once — so recovery, the integrity
// check and offline tools agree on every count and on where a log is
// cut. A record has one encoding, too: the appender's. A standby's
// AppendReplica frames the payloads its stream delivers as received, so
// its log holds the primary's bytes.
//
// Replication streams are fed two ways. A stream that is caught up
// gets each batch from its group-commit leader: the payloads the
// appenders marshalled stay in memory until the leader publishes the
// batch, and the leader ships them to every caught-up stream right
// after flushing them and before its fsync, so the standby's fsync
// overlaps the primary's and no stream reads a segment. A stream that
// is behind (a standby joining, resuming or bootstrapped from a
// snapshot) is served from the segment files by a Follower, which
// hands it to the leader (Follower.Handoff) once it has delivered
// every published record.
package durable

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/multistage"
)

// Record operations. Connect/branch/fail records carry full
// RouteRecords, so replay is an idempotent upsert of per-session state:
// applying a record twice (possible across the snapshot boundary)
// converges to the same state.
const (
	// OpMeta is the first record of a fresh log: fabric parameters and
	// replica count, making the log self-describing for offline tools.
	OpMeta = "meta"
	// OpConnect acknowledges a new session with its exact route.
	OpConnect = "connect"
	// OpBranch acknowledges a session grow; Route is the full route
	// after the grow (not a delta).
	OpBranch = "branch"
	// OpDisconnect acknowledges a teardown. It is appended *before* the
	// fabric release, so a crash between the two recovers to the
	// acknowledged state (session gone).
	OpDisconnect = "disconnect"
	// OpFail records a middle-module failure together with the
	// post-migration routes of every moved session and the ids of
	// dropped ones.
	OpFail = "fail"
	// OpRepair records a middle-module repair.
	OpRepair = "repair"
	// OpSeal marks a clean drain: everything before it was flushed and
	// the controller shut down with an empty table.
	OpSeal = "seal"
)

// Meta identifies the fabric a log belongs to. Recovery refuses a log
// whose parameters do not match the serving configuration — replaying
// routes into a different geometry would corrupt link bookkeeping.
type Meta struct {
	Params   multistage.Params `json:"params"`
	Replicas int               `json:"replicas"`
	// Backend is the fabric backend the routes were exported by (msw,
	// maw, awg, mesh). Empty in logs written before pluggable backends
	// existed; BackendName derives the name from the construction then.
	Backend string `json:"backend,omitempty"`
}

// BackendName resolves which backend the log belongs to. Pre-backend
// logs recorded only the construction, so an empty Backend falls back
// to the construction's backend (mirrors backend.ForConstruction; kept
// local so the storage layer does not depend on the routing registry).
func (m Meta) BackendName() string {
	if m.Backend != "" {
		return m.Backend
	}
	switch m.Params.Construction {
	case multistage.MAWDominant:
		return "maw"
	case multistage.AWGClos:
		return "awg"
	default:
		return "msw"
	}
}

// Compatible reports whether two metas describe the same fabric
// geometry (the fields Reinstall depends on).
func (m Meta) Compatible(o Meta) bool {
	a, b := m.Params, o.Params
	return m.Replicas == o.Replicas &&
		m.BackendName() == o.BackendName() &&
		a.N == b.N && a.K == b.K && a.R == b.R && a.M == b.M &&
		a.Model == b.Model && a.Construction == b.Construction
}

// SessionRoute is one session's durable state: its stable id, the
// plane it rides, and its exact route.
type SessionRoute struct {
	Session    uint64                 `json:"session"`
	Fabric     int                    `json:"fabric"`
	Branches   int                    `json:"branches,omitempty"`
	Migrations int                    `json:"migrations,omitempty"`
	Route      multistage.RouteRecord `json:"route"`
}

// Record is one logical WAL entry. Seq is assigned by Append and is
// strictly increasing across segments.
type Record struct {
	Seq uint64 `json:"seq"`
	Op  string `json:"op"`
	// Session/Fabric/Route describe the affected session for
	// connect/branch/disconnect.
	Session    uint64                  `json:"session,omitempty"`
	Fabric     int                     `json:"fabric,omitempty"`
	Branches   int                     `json:"branches,omitempty"`
	Migrations int                     `json:"migrations,omitempty"`
	Route      *multistage.RouteRecord `json:"route,omitempty"`
	// Middle is the failed/repaired module for fail/repair.
	Middle int `json:"middle,omitempty"`
	// Migrated/Dropped are a fail record's session outcomes.
	Migrated []SessionRoute `json:"migrated,omitempty"`
	Dropped  []uint64       `json:"dropped,omitempty"`
	// Meta is set on OpMeta records.
	Meta *Meta `json:"meta,omitempty"`
	// TP is the W3C traceparent of the request that produced this
	// record, when its span was sampled. It rides the record through
	// replication streams so a standby's apply/fsync spans join the
	// primary's trace instead of starting orphan trees. Replay ignores
	// it.
	TP string `json:"tp,omitempty"`
}

// Snapshot is the periodic full-state checkpoint. LastSeq is the WAL
// position observed *before* the state was captured, so replaying
// records past LastSeq over the snapshot re-applies at most a few
// already-reflected upserts (harmless — see Record) and never misses
// one.
type Snapshot struct {
	Meta        Meta           `json:"meta"`
	LastSeq     uint64         `json:"last_seq"`
	NextSession uint64         `json:"next_session"`
	TakenUnixNs int64          `json:"taken_unix_ns"`
	Sessions    []SessionRoute `json:"sessions"`
	// Failed maps fabric plane -> failed middle modules.
	Failed map[int][]int `json:"failed,omitempty"`
}

// State is the materialized view a log replays into: the live session
// set, the failure plane, and the session-id high-water mark.
type State struct {
	Sessions    map[uint64]*SessionRoute
	Failed      map[int]map[int]bool
	NextSession uint64
	Sealed      bool
}

// NewState returns an empty state.
func NewState() *State {
	return &State{
		Sessions: make(map[uint64]*SessionRoute),
		Failed:   make(map[int]map[int]bool),
	}
}

// LoadSnapshot primes the state from a checkpoint.
func (s *State) LoadSnapshot(snap *Snapshot) {
	for i := range snap.Sessions {
		sr := snap.Sessions[i]
		s.Sessions[sr.Session] = &sr
	}
	for plane, mids := range snap.Failed {
		set := make(map[int]bool, len(mids))
		for _, m := range mids {
			set[m] = true
		}
		s.Failed[plane] = set
	}
	if snap.NextSession > s.NextSession {
		s.NextSession = snap.NextSession
	}
}

// Apply folds one record into the state. Unknown ops are ignored (a
// newer writer's records must not fail an older reader outright).
func (s *State) Apply(rec *Record) {
	if rec.Session >= s.NextSession {
		s.NextSession = rec.Session
	}
	switch rec.Op {
	case OpConnect, OpBranch:
		if rec.Route == nil {
			return
		}
		s.Sessions[rec.Session] = &SessionRoute{
			Session:    rec.Session,
			Fabric:     rec.Fabric,
			Branches:   rec.Branches,
			Migrations: rec.Migrations,
			Route:      *rec.Route,
		}
		s.Sealed = false
	case OpDisconnect:
		delete(s.Sessions, rec.Session)
	case OpFail:
		set := s.Failed[rec.Fabric]
		if set == nil {
			set = make(map[int]bool)
			s.Failed[rec.Fabric] = set
		}
		set[rec.Middle] = true
		for i := range rec.Migrated {
			sr := rec.Migrated[i]
			// Update-if-present only: a migrated session's connect
			// record always precedes the fail record, so if the id is
			// absent here a later disconnect removed it and the fail
			// record must not resurrect it.
			if _, ok := s.Sessions[sr.Session]; !ok {
				continue
			}
			s.Sessions[sr.Session] = &sr
			if sr.Session >= s.NextSession {
				s.NextSession = sr.Session
			}
		}
		for _, id := range rec.Dropped {
			delete(s.Sessions, id)
		}
	case OpRepair:
		delete(s.Failed[rec.Fabric], rec.Middle)
	case OpSeal:
		s.Sealed = true
	}
}

// SessionList returns the live sessions ordered by id.
func (s *State) SessionList() []SessionRoute {
	out := make([]SessionRoute, 0, len(s.Sessions))
	for _, sr := range s.Sessions {
		out = append(out, *sr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Session < out[j].Session })
	return out
}

// FailedList returns the failure plane as sorted middle lists per
// plane index.
func (s *State) FailedList() map[int][]int {
	out := make(map[int][]int, len(s.Failed))
	for plane, set := range s.Failed {
		if len(set) == 0 {
			continue
		}
		mids := make([]int, 0, len(set))
		for m := range set {
			mids = append(mids, m)
		}
		sort.Ints(mids)
		out[plane] = mids
	}
	return out
}

// Truncation reports where recovery cut a corrupted tail.
type Truncation struct {
	Segment string `json:"segment"`
	// Offset is the byte offset of the first bad frame within the
	// segment file (the new file size after the cut).
	Offset int64  `json:"offset"`
	Reason string `json:"reason"`
}

func (t *Truncation) String() string {
	return fmt.Sprintf("%s@%d: %s", t.Segment, t.Offset, t.Reason)
}

// Recovery is what Open reconstructed: the state to reinstall, where
// the log stands, and what recovery had to do to get there.
type Recovery struct {
	Meta     Meta
	Sessions []SessionRoute // ordered by id
	Failed   map[int][]int  // plane -> failed middles
	// NextSession is the session-id high-water mark; the controller
	// resumes its counter at this value.
	NextSession uint64
	LastSeq     uint64
	// SnapshotSeq is the LastSeq of the snapshot recovery loaded
	// (0 = replayed from the log's beginning).
	SnapshotSeq uint64
	// Records is how many log records were replayed over the snapshot.
	Records int
	// Sealed is true when the log tail is a clean-drain seal.
	Sealed bool
	// Truncated is non-nil when a corrupted tail was cut.
	Truncated *Truncation
	// Elapsed is recovery wall time (scan + replay, not reinstall).
	Elapsed time.Duration
}
