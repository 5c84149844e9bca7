// Package switchd is the online control plane for the paper's WDM
// multicast switching networks: a long-lived session controller that
// owns one or more fabric replicas and serves Connect / AddBranch /
// Disconnect / Status requests concurrently. Replicas are built behind
// the pluggable backend interface (internal/fabric/backend): the
// three-stage Clos constructions (msw, maw, awg) and the sparse-
// splitting mesh all serve through the same routing, durability, and
// failure planes, selected by Config.Backend.
//
// The offline packages prove and simulate the nonblocking theorems;
// switchd turns them into an externally observable serving invariant:
// when every fabric is provisioned with m at or above the Theorem 1/2
// sufficient bound, the controller's blocked counter stays at zero no
// matter how much admissible traffic arrives, and the metrics endpoint
// exposes exactly that counter.
//
// The same margin is the fault-tolerance budget: middle modules beyond
// the bound are spare capacity, and the failure plane (FailMiddle /
// RepairMiddle, POST /v1/admin/fail|repair) spends it deliberately —
// failing a module live-migrates every session riding it onto the
// spares (ids preserved), and when failures eat into the bound the
// controller enters degraded mode, derating the admission cap in
// proportion to the surviving middle capacity (GET /v1/health).
//
// Concurrency model. A multistage.Network is not safe for concurrent
// use, and the paper's routing is inherently serial per fabric (each
// decision reads the full link-occupancy state). The controller
// therefore serializes route/release per fabric with one mutex per
// replica and gets its concurrency *across* replicas — independent
// fabric planes of identical parameters, the way a real switch stacks
// parallel switching planes. Sessions are recorded in a sharded table
// (hash of the session id picks the shard) so table bookkeeping never
// funnels through a single lock. Lock order is always shard -> fabric;
// no path takes them in the other order, so the pair cannot deadlock.
// The failure plane adds failMu, which serializes fail/repair
// operations against each other only; it is never held together with a
// shard or fabric lock.
package switchd

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/fabric/backend"
	"repro/internal/multistage"
	"repro/internal/obs/prof"
	"repro/internal/obs/span"
	"repro/internal/obs/tsdb"
	"repro/internal/switchd/api"
	"repro/internal/wdm"
)

// Sentinel errors mapped to the api error envelope by the handlers
// (http.go).
var (
	// ErrOverCapacity is returned by Connect when admission control
	// rejects the request: the in-flight session count has reached the
	// effective cap (Config.MaxSessions, derated in degraded mode). The
	// request was never offered to a fabric.
	ErrOverCapacity = errors.New("switchd: session capacity reached")
	// ErrDraining is returned once Drain has begun: the controller no
	// longer accepts new work.
	ErrDraining = errors.New("switchd: controller is draining")
	// ErrUnknownSession is returned for operations on session ids that
	// are not live.
	ErrUnknownSession = errors.New("switchd: unknown session")
	// ErrFabricFailed is returned when the target fabric plane has no
	// working middle modules left (all failed, none repaired).
	ErrFabricFailed = errors.New("switchd: fabric has no working middle modules")
	// ErrStorageFailed is returned when the durable log could not record
	// a mutation (write or fsync failure). The log is fail-stop: once
	// poisoned, every subsequent mutating call returns this error while
	// reads keep serving; restarting the process recovers everything
	// that was acknowledged before the failure.
	ErrStorageFailed = errors.New("switchd: durable log write failed")
)

// Wire types re-exported from the api package (the /v1 contract shared
// with the typed client); switchd keeps the old names as aliases.
type (
	Status        = api.Status
	FabricStatus  = api.FabricStatus
	SessionInfo   = api.SessionInfo
	SpansResponse = api.SpansResponse
	Health        = api.Health
)

// Config parameterizes a Controller.
type Config struct {
	// Fabric is the parameter set every replica is built from. It is
	// normalized by New, so M = 0 gives each replica the sufficient
	// nonblocking bound of its backend.
	Fabric multistage.Params
	// Backend names the fabric backend every replica is built with
	// (msw, maw, awg, mesh — see internal/fabric/backend). Empty
	// derives the backend from Fabric.Construction, so configurations
	// written before backends existed keep working unchanged.
	Backend string
	// Replicas is the number of independent fabric planes (default 1).
	// Sessions are spread across planes by session id; requests against
	// different planes proceed concurrently.
	Replicas int
	// Shards is the session-table shard count (default 16).
	Shards int
	// MaxSessions caps live sessions across all replicas; Connect
	// returns ErrOverCapacity beyond it. 0 means unlimited. In degraded
	// mode (failed middle modules eating into the nonblocking bound) the
	// enforced cap is derated below this — see Controller.Health.
	MaxSessions int
	// BlockLog is the capacity of the blocking-forensics ring buffer
	// served at /v1/debug/blocking. 0 means the default (128); a
	// negative value disables forensics.
	BlockLog int
	// CaptureTrace records every fabric operation as a replayable
	// internal/trace history, served at /v1/debug/trace. Off by default:
	// the trace grows without bound for the life of the controller, so
	// it is a debugging mode, not a production default.
	CaptureTrace bool
	// Spans configures the request tracer served at /v1/debug/spans. The
	// zero value enables tracing with defaults (256-trace ring, 5ms slow
	// threshold, 1-in-16 routine sampling); Capacity < 0 disables it.
	Spans span.Config
	// Prof configures the profiling harness served at /v1/debug/prof:
	// mutex/block sampling rates and the periodic profile-snapshot ring.
	// The zero value serves on-demand profiles only and touches no
	// process-global profiler rate.
	Prof prof.Config
	// Logger receives the controller's structured log output (blocked
	// requests, drains, failure-plane events). Nil means slog.Default().
	Logger *slog.Logger
	// DataDir, when non-empty, enables the durable state plane: every
	// acknowledged mutation is journaled to a write-ahead log under this
	// directory before the request returns, the session table is
	// checkpointed periodically, and New recovers whatever a previous
	// process left behind (see durability.go). Appends are group
	// committed without a timer: a lone mutation is fsynced at once, and
	// mutations that arrive during an fsync share the next one.
	DataDir string
	// WALSegmentBytes is the log segment rotation size (default 16MiB).
	WALSegmentBytes int64
	// SnapshotInterval is the checkpoint cadence (default 30s); negative
	// disables the background snapshotter (tests drive WriteSnapshot
	// directly).
	SnapshotInterval time.Duration
	// WALCommitter, when set together with DataDir, extends the group
	// commit's durability barrier: it is called after each batch fsync
	// and before the appends it covers are acknowledged. The cluster
	// replication server uses it to wait for the standby's ack, making
	// "request acknowledged" imply "durable on the standby" (see
	// internal/cluster).
	WALCommitter func(upTo uint64)
	// HistoryInterval enables the embedded metrics history: a background
	// self-scraper samples the controller's own /metrics registry into an
	// in-process time-series store every interval, served at /v1/query
	// (instant and range queries) with downsampling tiers and bounded
	// memory. The SLO view (/v1/slo and the wdm_slo_* gauges) reads its
	// window baselines from this history. 0 disables the scraper, the
	// alerting engine and the SLO view entirely (the default — history
	// costs a per-interval allocation and tests that pin zero-alloc hot
	// paths must not see it).
	HistoryInterval time.Duration
	// Alerts are the rules the alerting engine evaluates after every
	// scrape, served at /v1/alerts. Nil means tsdb.DefaultRules(); an
	// explicit empty slice disables alerting while keeping history.
	Alerts []tsdb.Rule
	// AlertWebhook, when non-empty, receives a JSON POST on every alert
	// state transition (pending, firing, resolved).
	AlertWebhook string
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.BlockLog == 0 {
		c.BlockLog = 128
	}
	return c
}

// fabric is one serialized switching plane. cap, when non-nil, records
// the plane's serving history; it is guarded by mu like the network.
// failedMids mirrors len(net.FailedMiddles()) so admission paths can
// read it without the fabric lock. byConn (guarded by mu) maps live
// fabric connection ids to their durable-state metadata; it is only
// populated when the durable log is enabled.
type fabric struct {
	mu         sync.Mutex
	net        backend.Backend
	cap        *traceCap
	byConn     map[int]*connMeta
	failedMids atomic.Int32
}

// Controller is the live control plane. All methods are safe for
// concurrent use.
type Controller struct {
	cfg         Config
	params      multistage.Params // normalized
	backendName string            // resolved fabric backend name
	suffM       int               // the backend's sufficient bound
	fabrics     []*fabric
	sessions    *sessionTable
	metrics     *Metrics
	blockLog    *blockLog
	tracer      *span.Tracer
	prof        *prof.Harness
	logger      *slog.Logger

	nextSession atomic.Uint64
	// admitted counts admission-control slots (in-flight Connect
	// attempts plus routed sessions) and is what the effective cap
	// bounds; active counts only routed live sessions and is what
	// ActiveSessions/Status report.
	admitted atomic.Int64
	active   atomic.Int64
	// inflight counts Connect calls between entry and return; Drain
	// waits for it to reach zero so no call that slipped past the
	// draining check can repopulate a swept shard.
	inflight atomic.Int64
	draining atomic.Bool

	// failMu serializes failure-plane operations (FailMiddle /
	// RepairMiddle) and the degraded-state recompute. It is never held
	// together with a shard or fabric lock.
	failMu sync.Mutex
	// effectiveCap is the admission cap Connect enforces: MaxSessions
	// normally, derated below it in degraded mode (0 = unlimited).
	effectiveCap atomic.Int64
	degraded     atomic.Bool

	// Durable state plane (nil/zero unless Config.DataDir is set).
	wal       *durable.Plane
	recovery  *durable.Recovery
	snapStop  chan struct{}
	snapDone  chan struct{}
	snapOnce  sync.Once
	closeOnce sync.Once

	// replProbe, when set, reports the node's replication role and lag
	// for /v1/health and /metrics (see SetReplicationProbe).
	replProbe atomic.Pointer[func() *api.ReplicationHealth]
	// fedProbe, when set, reports federation peer reachability for
	// /v1/health (see SetFederationProbe in history.go).
	fedProbe atomic.Pointer[func() []api.FederationPeerHealth]

	// Metrics history plane (nil unless Config.HistoryInterval > 0).
	startTime  time.Time
	store      *tsdb.Store
	alertEng   *tsdb.AlertEngine
	histCancel context.CancelFunc
	histDone   chan struct{}
}

// DurableMeta is the fabric identity a controller built from c records
// in its write-ahead log: the resolved backend, its normalized
// parameters and the replica count. A cluster standby proves the same
// identity to its primary.
func (c Config) DurableMeta() (durable.Meta, error) {
	_, meta, err := c.withDefaults().resolveFabric()
	return meta, err
}

// resolveFabric looks up c's backend (Backend, else the construction's)
// and normalizes c.Fabric for it. c carries its defaults.
func (c Config) resolveFabric() (backend.Descriptor, durable.Meta, error) {
	name := c.Backend
	if name == "" {
		name = backend.ForConstruction(c.Fabric.Construction)
	}
	desc, err := backend.Get(name)
	if err != nil {
		return backend.Descriptor{}, durable.Meta{}, fmt.Errorf("switchd: %w", err)
	}
	norm, err := desc.Normalize(c.Fabric)
	if err != nil {
		return backend.Descriptor{}, durable.Meta{}, err
	}
	return desc, durable.Meta{Params: norm, Replicas: c.Replicas, Backend: desc.Name}, nil
}

// New builds a controller with cfg.Replicas freshly constructed fabric
// replicas.
func New(cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	desc, meta, err := cfg.resolveFabric()
	if err != nil {
		return nil, err
	}
	norm := meta.Params
	ctl := &Controller{
		cfg:         cfg,
		params:      norm,
		backendName: desc.Name,
		suffM:       desc.Sufficient(norm),
		sessions:    newSessionTable(cfg.Shards),
		metrics:     newMetrics(norm, cfg.Replicas),
		blockLog:    newBlockLog(cfg.BlockLog),
		tracer:      span.NewTracer(cfg.Spans),
		prof:        prof.Start(cfg.Prof),
		logger:      cfg.Logger,
		startTime:   time.Now(),
	}
	if ctl.logger == nil {
		ctl.logger = slog.Default()
	}
	ctl.effectiveCap.Store(int64(cfg.MaxSessions))
	for i := 0; i < cfg.Replicas; i++ {
		net, err := desc.New(norm)
		if err != nil {
			return nil, fmt.Errorf("switchd: building fabric replica %d: %w", i, err)
		}
		f := &fabric{net: net, byConn: make(map[int]*connMeta)}
		if cfg.CaptureTrace {
			f.cap = newTraceCap()
		}
		ctl.fabrics = append(ctl.fabrics, f)
	}
	if cfg.DataDir != "" {
		if err := ctl.openDurable(meta); err != nil {
			return nil, err
		}
	}
	// The self-scraper starts last: its Collect callback walks the fully
	// built controller (fabrics, durable plane), so nothing may start it
	// earlier.
	if cfg.HistoryInterval > 0 {
		if err := ctl.startHistory(); err != nil {
			ctl.Close()
			return nil, err
		}
	}
	return ctl, nil
}

// Params returns the normalized fabric parameters shared by every
// replica.
func (ctl *Controller) Params() multistage.Params { return ctl.params }

// Backend returns the resolved fabric backend name every replica is
// built with.
func (ctl *Controller) Backend() string { return ctl.backendName }

// Replicas returns the number of fabric planes.
func (ctl *Controller) Replicas() int { return len(ctl.fabrics) }

// ActiveSessions returns the current live session count.
func (ctl *Controller) ActiveSessions() int64 { return ctl.active.Load() }

// Metrics returns the controller's metrics registry.
func (ctl *Controller) Metrics() *Metrics { return ctl.metrics }

// routeSpanObserver adapts the multistage route observer to the span
// tracer: every middle-stage decision of one fabric operation becomes a
// leaf span under parent. Rejection steps (everything but "selected")
// are marked blocked — they only ever fire on a blocking event, so a
// blocked trace always carries its per-middle rejection spans.
func routeSpanObserver(parent *span.Span) func(multistage.RouteStep) {
	return func(step multistage.RouteStep) {
		ms := parent.StartChild("route.middle")
		ms.SetAttr("middle", step.Middle)
		ms.SetAttr("state", string(step.State))
		ms.SetAttr("wave", step.Wave)
		ms.SetAttr("round", step.Round)
		if len(step.Serves) > 0 {
			ms.SetAttr("serves", step.Serves)
		}
		if len(step.Rejected) > 0 {
			ms.SetAttr("rejected", step.Rejected)
		}
		if step.State != multistage.MiddleSelected {
			ms.SetBlocked("middle " + string(step.State))
		}
		ms.End()
	}
}

// fabricDead reports whether plane i has no working middle modules.
func (ctl *Controller) fabricDead(i int) bool {
	return int(ctl.fabrics[i].failedMids.Load()) >= ctl.params.M
}

// pickFabric maps a session id to its plane. A non-negative pin selects
// a plane explicitly (clients that manage their own slot occupancy pin
// the plane so their admissibility bookkeeping holds); pinning a plane
// with no working middles, or having no working plane at all, returns
// ErrFabricFailed.
func (ctl *Controller) pickFabric(id uint64, pin int) (int, error) {
	if pin >= 0 {
		if pin >= len(ctl.fabrics) {
			return 0, fmt.Errorf("switchd: fabric %d out of range (have %d)", pin, len(ctl.fabrics))
		}
		if ctl.fabricDead(pin) {
			return 0, fmt.Errorf("%w: fabric %d", ErrFabricFailed, pin)
		}
		return pin, nil
	}
	// Unpinned: hash to a plane, then probe past fully-failed ones.
	start := int(id % uint64(len(ctl.fabrics)))
	for off := 0; off < len(ctl.fabrics); off++ {
		plane := (start + off) % len(ctl.fabrics)
		if !ctl.fabricDead(plane) {
			return plane, nil
		}
	}
	return 0, ErrFabricFailed
}

// Connect routes a new multicast session under the caller's context:
// cancellation and deadline are honored up to the moment the fabric
// lock is taken (a routing decision already in flight is never
// abandoned half-way), and when ctx carries an active span (the HTTP
// middleware's root) the controller nests switchd.connect -> fabric.add
// -> route.middle spans under it. pin selects a fabric plane (-1 =
// controller's choice). It returns the session id and the plane the
// session landed on.
func (ctl *Controller) Connect(ctx context.Context, c wdm.Connection, pin int) (id uint64, plane int, err error) {
	return ctl.connect(ctx, nil, c, pin)
}

// connect is Connect's body with phase attribution threaded through: pt
// (nil-safe, usually a caller's stack variable) accumulates where the
// request's time went — admission gate, fabric-lock wait, route search,
// WAL group commit, replication ack. The HTTP handlers pass a stack
// timer and fold it into the phase histograms; the exported method
// passes nil and costs nothing.
func (ctl *Controller) connect(ctx context.Context, pt *phaseTimer, c wdm.Connection, pin int) (id uint64, plane int, err error) {
	// Count the attempt before the draining check so Drain can wait out
	// every Connect that might still put a session into the table.
	ctl.inflight.Add(1)
	defer ctl.inflight.Add(-1)

	ctx, sp := span.Start(ctx, "switchd.connect")
	defer sp.End()
	defer pt.annotate(sp) // runs before sp.End (LIFO)
	sp.SetAttr("connection", wdm.FormatConnection(c))

	admStart := time.Now()
	if ctl.draining.Load() {
		ctl.metrics.drainRejects.Add(1)
		sp.SetError(ErrDraining.Error())
		return 0, 0, ErrDraining
	}
	// Admission control: claim a slot optimistically, release on any
	// failure. This never lets more than the effective cap through even
	// under concurrent contention; the price is that a burst of requests
	// that will fail anyway can transiently hold slots and 429 a request
	// that would have routed. Slots are tracked separately from the
	// routed-session count, so in-flight attempts never appear in
	// ActiveSessions/Status.
	if cap := ctl.effectiveCap.Load(); cap > 0 {
		if ctl.admitted.Add(1) > cap {
			ctl.admitted.Add(-1)
			ctl.metrics.capRejects.Add(1)
			sp.SetError(ErrOverCapacity.Error())
			return 0, 0, ErrOverCapacity
		}
	} else {
		ctl.admitted.Add(1)
	}
	defer func() {
		if err != nil {
			ctl.admitted.Add(-1)
		}
	}()

	id = ctl.nextSession.Add(1)
	plane, err = ctl.pickFabric(id, pin)
	if err != nil {
		ctl.metrics.inadmissible.Add(1)
		sp.SetError(err.Error())
		return 0, 0, err
	}
	sp.SetAttr("session", id)
	sp.SetAttr("fabric", plane)

	// Last cancellation point before the serialized fabric section.
	if cerr := ctx.Err(); cerr != nil {
		sp.SetError(cerr.Error())
		return 0, 0, cerr
	}
	pt.add(phaseAdmission, time.Since(admStart))

	f := ctl.fabrics[plane]
	var connID int
	var addErr error
	var elapsed, lockWait time.Duration
	_, fabSp := span.Start(ctx, "fabric.add")
	fabSp.SetAttr("fabric", plane)
	lockStart := time.Now()
	func() {
		f.mu.Lock()
		lockWait = time.Since(lockStart)
		defer f.mu.Unlock()
		if fabSp.Active() {
			f.net.SetRouteObserver(routeSpanObserver(fabSp))
			defer f.net.SetRouteObserver(nil)
		}
		start := time.Now()
		connID, addErr = f.net.Add(c)
		elapsed = time.Since(start)
		f.cap.add(c, connID, addErr)
	}()
	pt.add(phaseLockWait, lockWait)
	pt.add(phaseRouteSearch, elapsed)

	ctl.metrics.connectLat.observeEx(elapsed, sp.TraceID())
	switch {
	case addErr == nil:
		ctl.metrics.perFabric[plane].routed.Add(1)
		ctl.metrics.perFabric[plane].active.Add(1)
		fabSp.End()
	case multistage.IsBlocked(addErr):
		ctl.metrics.perFabric[plane].blocked.Add(1)
		ctl.metrics.blocked.Add(1)
		fabSp.SetBlocked(addErr.Error())
		fabSp.End()
		rep, _ := multistage.AsBlockReport(addErr)
		ctl.blockLog.record(BlockIncident{
			Time: time.Now(), Op: "connect", Fabric: plane, TraceID: sp.TraceID(),
			Conn: wdm.FormatConnection(c), Error: addErr.Error(), Report: rep,
		})
		return 0, plane, addErr
	default:
		ctl.metrics.inadmissible.Add(1)
		fabSp.SetError(addErr.Error())
		fabSp.End()
		return 0, plane, addErr
	}

	// Publish the session: table insert plus (when durable) the WAL
	// append, in one shard-lock critical section, so the log's record
	// order matches the table's. A journaling failure rolls the route
	// back — the session was never acknowledged.
	s := &session{ID: id, Fabric: plane, ConnID: connID, Conn: c.Normalize()}
	if err = ctl.commitConnect(sp, pt, f, plane, s); err != nil {
		ctl.metrics.perFabric[plane].active.Add(-1)
		sp.SetError(err.Error())
		return 0, plane, err
	}
	ctl.metrics.connectOK.Add(1)
	ctl.active.Add(1)
	return id, plane, nil
}

// AddBranch grows session id by additional destination slots (a new
// receiver joining the multicast) under the caller's context, with the
// same span nesting as Connect (switchd.branch -> fabric.branch ->
// route.middle). The grow is atomic: on failure the session keeps its
// original destination set. Cancellation is honored before the shard
// and fabric locks are taken.
func (ctl *Controller) AddBranch(ctx context.Context, id uint64, dests ...wdm.PortWave) error {
	return ctl.addBranch(ctx, nil, id, dests...)
}

// addBranch is AddBranch's body with phase attribution (see connect).
func (ctl *Controller) addBranch(ctx context.Context, pt *phaseTimer, id uint64, dests ...wdm.PortWave) error {
	ctx, sp := span.Start(ctx, "switchd.branch")
	defer sp.End()
	defer pt.annotate(sp)
	sp.SetAttr("session", id)

	admStart := time.Now()
	if ctl.draining.Load() {
		ctl.metrics.drainRejects.Add(1)
		sp.SetError(ErrDraining.Error())
		return ErrDraining
	}
	if cerr := ctx.Err(); cerr != nil {
		sp.SetError(cerr.Error())
		return cerr
	}
	sh := ctl.sessions.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s, ok := sh.m[id]
	if !ok {
		err := fmt.Errorf("%w: %d", ErrUnknownSession, id)
		sp.SetError(err.Error())
		return err
	}
	f := ctl.fabrics[s.Fabric]
	sp.SetAttr("fabric", s.Fabric)
	original := s.Conn
	grown := s.Conn.Clone()
	grown.Dests = append(grown.Dests, dests...)
	grown = grown.Normalize()
	sp.SetAttr("connection", wdm.FormatConnection(grown))
	pt.add(phaseAdmission, time.Since(admStart))
	var err error
	var elapsed, lockWait time.Duration
	_, fabSp := span.Start(ctx, "fabric.branch")
	fabSp.SetAttr("fabric", s.Fabric)
	lockStart := time.Now()
	func() {
		f.mu.Lock()
		lockWait = time.Since(lockStart)
		defer f.mu.Unlock()
		if fabSp.Active() {
			f.net.SetRouteObserver(routeSpanObserver(fabSp))
			defer f.net.SetRouteObserver(nil)
		}
		start := time.Now()
		err = f.net.AddBranch(s.ConnID, dests...)
		elapsed = time.Since(start)
		f.cap.branch(s.ConnID, original, grown, err)
	}()
	pt.add(phaseLockWait, lockWait)
	pt.add(phaseRouteSearch, elapsed)
	ctl.metrics.branchLat.observeEx(elapsed, sp.TraceID())
	switch {
	case err == nil:
		s.Conn = grown
		s.Branches++
		fabSp.End()
		// Journal the grown route. On failure the grow stays applied —
		// tearing down a live receiver over a bookkeeping error would be
		// worse — but the caller sees storage_failed: the branch may not
		// survive a crash, and the poisoned log fails every later
		// mutation anyway.
		if werr := ctl.commitBranch(sp, pt, f, s); werr != nil {
			sp.SetError(werr.Error())
			return werr
		}
		ctl.metrics.branchOK.Add(1)
		return nil
	case multistage.IsBlocked(err):
		ctl.metrics.perFabric[s.Fabric].blocked.Add(1)
		ctl.metrics.blocked.Add(1)
		fabSp.SetBlocked(err.Error())
		fabSp.End()
		rep, _ := multistage.AsBlockReport(err)
		ctl.blockLog.record(BlockIncident{
			Time: time.Now(), Op: "branch", Fabric: s.Fabric, Session: id, TraceID: sp.TraceID(),
			Conn: wdm.FormatConnection(grown), Error: err.Error(), Report: rep,
		})
		return err
	default:
		ctl.metrics.inadmissible.Add(1)
		fabSp.SetError(err.Error())
		fabSp.End()
		return err
	}
}

// Disconnect tears down a session and frees every slot and link
// wavelength it occupied. Cancellation is honored before the shard lock
// is taken; past that point the release always completes (a half-freed
// session would be worse than a late one).
func (ctl *Controller) Disconnect(ctx context.Context, id uint64) error {
	return ctl.disconnect(ctx, nil, id)
}

// disconnect is Disconnect's body with phase attribution (see connect).
func (ctl *Controller) disconnect(ctx context.Context, pt *phaseTimer, id uint64) error {
	_, sp := span.Start(ctx, "switchd.disconnect")
	defer sp.End()
	defer pt.annotate(sp)
	sp.SetAttr("session", id)
	if cerr := ctx.Err(); cerr != nil {
		sp.SetError(cerr.Error())
		return cerr
	}
	sh := ctl.sessions.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := ctl.disconnectLocked(sp, pt, sh, id); err != nil {
		sp.SetError(err.Error())
		return err
	}
	return nil
}

// disconnectLocked is Disconnect's body; the caller holds sh.mu.
func (ctl *Controller) disconnectLocked(sp *span.Span, pt *phaseTimer, sh *sessionShard, id uint64) error {
	s, ok := sh.m[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSession, id)
	}
	// Journal before releasing: a connect reusing the freed slots must
	// append after this record (see durability.go). On failure the
	// session stays live and visible.
	if werr := ctl.commitDisconnect(sp, pt, s); werr != nil {
		return werr
	}
	f := ctl.fabrics[s.Fabric]
	var err error
	var elapsed, lockWait time.Duration
	lockStart := time.Now()
	func() {
		f.mu.Lock()
		lockWait = time.Since(lockStart)
		defer f.mu.Unlock()
		start := time.Now()
		err = f.net.Release(s.ConnID)
		elapsed = time.Since(start)
		if err == nil {
			f.cap.release(s.ConnID)
		}
	}()
	pt.add(phaseLockWait, lockWait)
	pt.add(phaseRouteSearch, elapsed)
	ctl.metrics.disconnectLat.observe(elapsed)
	if err != nil {
		// A release failure means controller and fabric bookkeeping have
		// diverged; keep the session visible rather than leaking silently.
		return fmt.Errorf("switchd: releasing session %d: %w", id, err)
	}
	delete(sh.m, id)
	ctl.active.Add(-1)
	ctl.admitted.Add(-1)
	ctl.metrics.perFabric[s.Fabric].active.Add(-1)
	ctl.metrics.disconnectOK.Add(1)
	return nil
}

// Session returns a snapshot of a live session.
func (ctl *Controller) Session(id uint64) (SessionInfo, bool) {
	sh := ctl.sessions.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s, ok := sh.m[id]
	if !ok {
		return SessionInfo{}, false
	}
	return s.info(), true
}

// Sessions snapshots every live session, ordered by id. Shards are
// locked briefly in turn; the listing is per-shard consistent.
func (ctl *Controller) Sessions() []SessionInfo {
	out := make([]SessionInfo, 0, ctl.sessions.len())
	for _, sh := range ctl.sessions.shards {
		sh.mu.Lock()
		for _, s := range sh.m {
			out = append(out, s.info())
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Status snapshots every plane. Each fabric is locked briefly in turn;
// the snapshot is per-plane consistent, not globally atomic.
func (ctl *Controller) Status() Status {
	p := ctl.params
	st := Status{
		Backend:      ctl.backendName,
		Model:        p.Model.String(),
		Construction: p.Construction.String(),
		N:            p.N,
		K:            p.K,
		R:            p.R,
		M:            p.M,
		X:            p.X,
		SufficientM:  ctl.suffM,
		Replicas:     len(ctl.fabrics),
		MaxSessions:  ctl.cfg.MaxSessions,
		Active:       ctl.active.Load(),
		Draining:     ctl.draining.Load(),
	}
	for i, f := range ctl.fabrics {
		// Routed and blocked come from the registry, as on /metrics: the
		// backend's own Stats count the re-Adds of live migrations and
		// miss the sessions recovery reinstalls.
		fs := FabricStatus{
			Replica: i,
			Routed:  ctl.metrics.perFabric[i].routed.Load(),
			Blocked: ctl.metrics.perFabric[i].blocked.Load(),
		}
		func() {
			f.mu.Lock()
			defer f.mu.Unlock()
			fs.Active = f.net.Len()
			fs.Utilization = f.net.Utilization()
		}()
		st.Fabrics = append(st.Fabrics, fs)
	}
	return st
}

// DrainSummary reports what Drain tore down.
type DrainSummary struct {
	Released int           `json:"released"`
	Errors   int           `json:"errors"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	// Canceled is set when the caller's context expired before the
	// sweep could prove the table empty; sessions may remain.
	Canceled bool `json:"canceled,omitempty"`
	// StorageError carries the durable-log failure, if any, that the
	// drain hit while journaling disconnects or sealing the log
	// (storage_failed in the error envelope).
	StorageError string `json:"storage_error,omitempty"`
}

// Drain stops admitting new work (Connect and AddBranch return
// ErrDraining) and releases every live session. It is idempotent and
// safe to call while traffic is still arriving: a Connect that passed
// the draining check before it flipped is waited out and its session
// released, so when Drain returns the table holds no releasable session
// and no in-flight request can repopulate it. If ctx expires mid-sweep
// the partial summary is returned with Canceled set (admission stays
// closed; a later Drain call finishes the job).
func (ctl *Controller) Drain(ctx context.Context) DrainSummary {
	start := time.Now()
	ctl.draining.Store(true)
	var sum DrainSummary
	// Sessions whose fabric release failed stay in the table by design
	// (bookkeeping divergence must stay visible); track them so they are
	// counted once and do not keep the sweep loop alive.
	failed := make(map[uint64]bool)
	for {
		if ctx.Err() != nil {
			sum.Canceled = true
			break
		}
		// Observe the in-flight count before sweeping: if it is zero
		// here, every session that will ever exist is already in the
		// table (later Connects see draining and reject), so a full
		// sweep that leaves the table empty means we are done.
		idle := ctl.inflight.Load() == 0
		for _, sh := range ctl.sessions.shards {
			sh.mu.Lock()
			ids := make([]uint64, 0, len(sh.m))
			for id := range sh.m {
				ids = append(ids, id)
			}
			for _, id := range ids {
				if failed[id] {
					continue
				}
				if err := ctl.disconnectLocked(nil, nil, sh, id); err != nil {
					failed[id] = true
					sum.Errors++
					if errors.Is(err, ErrStorageFailed) && sum.StorageError == "" {
						sum.StorageError = err.Error()
					}
					continue
				}
				sum.Released++
			}
			sh.mu.Unlock()
		}
		if idle && ctl.sessions.len() <= len(failed) {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Flush and seal the durable log: a clean, complete drain leaves an
	// explicit clean-shutdown marker; a partial one (canceled or
	// release/storage errors, sessions remaining) only flushes, so the
	// log still reflects the surviving sessions.
	if ctl.wal != nil && !sum.Canceled && !ctl.wal.Stats().Sealed {
		ctl.stopSnapshots()
		var serr error
		if sum.Errors == 0 {
			serr = ctl.wal.Seal()
		} else {
			serr = ctl.wal.Sync()
		}
		if serr != nil && sum.StorageError == "" {
			sum.StorageError = serr.Error()
			ctl.logger.Error("drain: sealing durable log", slog.String("error", serr.Error()))
		}
	}
	sum.Elapsed = time.Since(start)
	return sum
}

// Draining reports whether Drain has begun.
func (ctl *Controller) Draining() bool { return ctl.draining.Load() }
