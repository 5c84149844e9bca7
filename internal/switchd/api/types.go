package api

import (
	"repro/internal/multistage"
	"repro/internal/obs/span"
)

// Request/response payloads of the serving endpoints. Connections use
// the repository's compact text codec ("<port>.<wave>><port>.<wave>,..."
// — see package wdm).

// ConnectRequest is the POST /v1/connect payload.
type ConnectRequest struct {
	// Connection in wdm codec form, e.g. "0.0>5.0,9.0".
	Connection string `json:"connection"`
	// Fabric pins the session to a replica; -1 or omitted lets the
	// controller choose.
	Fabric *int `json:"fabric,omitempty"`
}

// ConnectResponse is the POST /v1/connect success payload.
type ConnectResponse struct {
	Session uint64 `json:"session"`
	Fabric  int    `json:"fabric"`
}

// BranchRequest is the POST /v1/branch payload.
type BranchRequest struct {
	Session uint64   `json:"session"`
	Dests   []string `json:"dests"` // slots in wdm codec form, e.g. "12.0"
}

// DisconnectRequest is the POST /v1/disconnect payload.
type DisconnectRequest struct {
	Session uint64 `json:"session"`
}

// DisconnectResponse is the POST /v1/disconnect success payload.
type DisconnectResponse struct {
	Released uint64 `json:"released"`
}

// SessionInfo is the external snapshot of a session, returned by
// GET /v1/session and POST /v1/branch.
type SessionInfo struct {
	ID       uint64 `json:"session"`
	Fabric   int    `json:"fabric"`
	Conn     string `json:"connection"`
	Fanout   int    `json:"fanout"`
	Branches int    `json:"branches"`
	// Migrations counts how many times the session's route was moved
	// off a failed middle module (live migration, id preserved).
	Migrations int `json:"migrations,omitempty"`
}

// FabricStatus is one plane's slice of a Status snapshot.
type FabricStatus struct {
	Replica     int                    `json:"replica"`
	Active      int                    `json:"active"`
	Routed      int64                  `json:"routed"`
	Blocked     int64                  `json:"blocked"`
	Utilization multistage.Utilization `json:"utilization"`
}

// Status is the controller-wide snapshot served by GET /v1/status.
type Status struct {
	// Backend is the fabric backend serving this controller (msw, maw,
	// awg, mesh, ...); GET /v1/fabrics describes each one.
	Backend      string         `json:"backend"`
	Model        string         `json:"model"`
	Construction string         `json:"construction"`
	N            int            `json:"n"`
	K            int            `json:"k"`
	R            int            `json:"r"`
	M            int            `json:"m"`
	X            int            `json:"x"`
	SufficientM  int            `json:"sufficient_m"`
	Replicas     int            `json:"replicas"`
	MaxSessions  int            `json:"max_sessions"`
	Active       int64          `json:"active_sessions"`
	Draining     bool           `json:"draining"`
	Fabrics      []FabricStatus `json:"fabrics"`
}

// VersionInfo is the GET /v1/version payload: what binary produced a
// measurement. Revision is the VCS commit when the binary was built
// from a checkout (empty otherwise).
type VersionInfo struct {
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	Revision  string `json:"revision,omitempty"`
	Dirty     bool   `json:"dirty,omitempty"`
	// Backend is the fabric backend this instance serves with; empty in
	// contexts where no controller is attached (e.g. a build-info dump).
	Backend string `json:"backend,omitempty"`
}

// FabricInfo is one backend's capability card in GET /v1/fabrics: its
// stable name, its own nonblocking sufficiency bound, how it realizes
// multicast, and the backend-specific stable error codes it can return
// beyond the generic blocked class.
type FabricInfo struct {
	Name        string   `json:"name"`
	Description string   `json:"description"`
	Bound       string   `json:"bound"`
	Multicast   string   `json:"multicast"`
	ErrorCodes  []string `json:"error_codes,omitempty"`
	// Current marks the backend this instance is serving with.
	Current bool `json:"current,omitempty"`
}

// FabricsResponse is the GET /v1/fabrics payload: every backend the
// binary can serve, with the active one flagged.
type FabricsResponse struct {
	Current string       `json:"current"`
	Fabrics []FabricInfo `json:"fabrics"`
}

// SpansResponse is the GET /v1/debug/spans payload. Traces are ordered
// oldest-first by root span start.
type SpansResponse struct {
	// Kept/Dropped are the tracer's tail-sampling totals since start.
	Kept    int64              `json:"kept"`
	Dropped int64              `json:"dropped"`
	Traces  []span.TraceRecord `json:"traces"`
}

// Health states served by GET /v1/health.
const (
	// HealthOK: no failed middle modules anywhere.
	HealthOK = "ok"
	// HealthDegraded: at least one middle module is failed. The
	// admission cap is derated when a plane's effective middle count
	// drops below what its provisioning promised.
	HealthDegraded = "degraded"
	// HealthCritical: at least one plane has no working middle modules;
	// requests pinned there fail with CodeFabricFailed.
	HealthCritical = "critical"
	// HealthStandby: the node is a warm replication standby; it applies
	// its primary's log but serves no mutations (CodeNotPrimary) until
	// promoted.
	HealthStandby = "standby"
)

// Replication roles reported in ReplicationHealth.Role.
const (
	RolePrimary = "primary"
	RoleStandby = "standby"
)

// FabricHealth is one plane's slice of a Health snapshot.
type FabricHealth struct {
	Replica       int    `json:"replica"`
	FailedMiddles []int  `json:"failed_middles"`
	EffectiveM    int    `json:"effective_m"`
	Status        string `json:"status"`
}

// Health is the failure-plane snapshot served by GET /v1/health
// (HTTP 200 for ok/degraded, 503 for critical, so a load balancer can
// eject a critical instance with a plain status-code check).
type Health struct {
	Status      string `json:"status"` // ok | degraded | critical
	Degraded    bool   `json:"degraded"`
	M           int    `json:"m"`
	SufficientM int    `json:"sufficient_m"`
	// FailedMiddles is the total failed middle-module count across all
	// planes; the per-plane lists are in Fabrics.
	FailedMiddles    int   `json:"failed_middles"`
	MigratedSessions int64 `json:"migrated_sessions"`
	DroppedSessions  int64 `json:"dropped_sessions"`
	// MaxSessions is the configured admission cap (0 = unlimited);
	// EffectiveMaxSessions the derated cap admission currently enforces
	// (0 = unlimited, only possible when not degraded).
	MaxSessions          int            `json:"max_sessions"`
	EffectiveMaxSessions int            `json:"effective_max_sessions"`
	Fabrics              []FabricHealth `json:"fabrics"`
	// Durability is the durable-state-plane row; absent when the
	// controller runs without a data directory.
	Durability *DurabilityHealth `json:"durability,omitempty"`
	// Replication is the log-shipping row; absent when the node is not
	// part of a cluster.
	Replication *ReplicationHealth `json:"replication,omitempty"`
	// Federation is the per-peer reachability row of a federating node;
	// absent when no federation peers are configured. Any down peer
	// degrades an otherwise-ok instance (the fleet view is incomplete).
	Federation []FederationPeerHealth `json:"federation,omitempty"`
}

// FederationPeerHealth is one federation peer's reachability as seen
// by this node's background prober (and refreshed opportunistically by
// federation scrapes).
type FederationPeerHealth struct {
	Shard string `json:"shard"`
	URL   string `json:"url"`
	Up    bool   `json:"up"`
	Error string `json:"error,omitempty"`
	// LastProbeSeconds is the age of the newest probe result; -1 before
	// the first probe completes.
	LastProbeSeconds float64 `json:"last_probe_seconds"`
}

// DurabilityHealth reports the write-ahead log, snapshot, and recovery
// state of a controller running with a data directory.
type DurabilityHealth struct {
	Enabled bool `json:"enabled"`
	// Healthy is false once the log is poisoned by a write or fsync
	// failure; every mutating request returns storage_failed until the
	// process restarts and recovers.
	Healthy bool   `json:"healthy"`
	Error   string `json:"error,omitempty"`
	// LastSeq is the newest assigned record sequence; SyncedSeq the
	// newest made durable by group commit. The gap between them is
	// bounded by the group-commit latency cap.
	LastSeq       uint64 `json:"last_seq"`
	SyncedSeq     uint64 `json:"synced_seq"`
	UnsyncedBytes int64  `json:"unsynced_bytes"`
	Segments      int    `json:"segments"`
	Sealed        bool   `json:"sealed"`
	// SnapshotAgeSeconds is -1 until the first checkpoint lands.
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds"`
	SnapshotSeq        uint64  `json:"snapshot_seq,omitempty"`
	// Recovery facts from this process's startup.
	RecoveredSessions int    `json:"recovered_sessions"`
	ReplayedRecords   int    `json:"replayed_records,omitempty"`
	RecoveryMillis    int64  `json:"recovery_millis,omitempty"`
	TruncatedTail     string `json:"truncated_tail,omitempty"`
}

// ReplicationHealth is the cluster log-shipping row of GET /v1/health,
// reported by both roles. On a primary, SyncedSeq is its own durable
// high-water mark and AckedSeq the newest sequence a standby has
// acknowledged durable; on a standby, AppliedSeq is its own durable
// high-water mark and SyncedSeq the primary's, as of the last
// heartbeat.
type ReplicationHealth struct {
	Role  string `json:"role"` // primary | standby
	Shard int    `json:"shard"`
	// Connected: a primary has at least one attached standby; a standby
	// has a live stream to its primary.
	Connected  bool   `json:"connected"`
	Standbys   int    `json:"standbys,omitempty"`
	SyncedSeq  uint64 `json:"synced_seq"`
	AckedSeq   uint64 `json:"acked_seq,omitempty"`
	AppliedSeq uint64 `json:"applied_seq,omitempty"`
	// LagRecords is how many durable records the standby trails by;
	// LagSeconds the staleness of the newest acknowledgement (primary)
	// or heartbeat (standby). Both are 0 when fully caught up.
	LagRecords uint64  `json:"lag_records"`
	LagSeconds float64 `json:"lag_seconds"`
	// SyncTimeouts counts group commits that gave up waiting for a
	// standby ack and degraded to asynchronous replication.
	SyncTimeouts uint64 `json:"sync_timeouts,omitempty"`
	// Reconnects and Snapshots count a standby's stream re-dials and
	// snapshot bootstraps (resume points that had been pruned).
	Reconnects uint64 `json:"reconnects,omitempty"`
	Snapshots  uint64 `json:"snapshots,omitempty"`
	Promoted   bool   `json:"promoted,omitempty"`
}

// PromoteResponse is the POST /v1/admin/promote success payload on a
// standby: the node has taken over as primary for its shard.
type PromoteResponse struct {
	Promoted bool `json:"promoted"`
	Shard    int  `json:"shard"`
	// Sessions is the live session count recovered from the replicated
	// log at promotion; Millis how long the flip took.
	Sessions int   `json:"sessions"`
	Millis   int64 `json:"millis"`
}

// FailRequest is the POST /v1/admin/fail and /v1/admin/repair payload:
// one middle module of one fabric plane.
type FailRequest struct {
	Fabric int `json:"fabric"`
	Middle int `json:"middle"`
}

// FailReport is the POST /v1/admin/fail success payload: what the
// controller did to the sessions riding the failed module.
type FailReport struct {
	Fabric   int `json:"fabric"`
	Middle   int `json:"middle"`
	Affected int `json:"affected"`
	// Migrated lists the session ids re-routed in place (ids preserved);
	// Dropped those no spare capacity could restore (released).
	Migrated []uint64 `json:"migrated_sessions,omitempty"`
	Dropped  []uint64 `json:"dropped_sessions,omitempty"`
	Health   Health   `json:"health"`
}

// RepairReport is the POST /v1/admin/repair success payload.
type RepairReport struct {
	Fabric int    `json:"fabric"`
	Middle int    `json:"middle"`
	Health Health `json:"health"`
}
