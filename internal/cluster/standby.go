package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/switchd"
	"repro/internal/switchd/api"
)

// Standby defaults.
const (
	DefaultDialTimeout = 2 * time.Second
	DefaultReconnect   = 250 * time.Millisecond
)

// StandbyConfig configures a shard standby.
type StandbyConfig struct {
	// Shard is the shard this standby replicates; it must match the
	// primary's or the handshake is rejected.
	Shard int
	// Primary is the primary's replication address (host:port of the
	// cluster.Server listener, not its HTTP address).
	Primary string
	// DataDir is the standby's own durable log directory. On promotion
	// the new primary recovers from exactly this directory.
	DataDir string
	// Serving is the switchd configuration the node runs with once
	// promoted; its Fabric/Replicas also define the durable meta the
	// handshake proves to the primary. DataDir inside it is ignored
	// (StandbyConfig.DataDir wins).
	Serving switchd.Config

	// DialTimeout bounds one connection attempt (default 2s); Reconnect
	// is the pause between attempts (default 250ms).
	DialTimeout time.Duration
	Reconnect   time.Duration
	// FailoverAfter, when positive, arms the watchdog: if the primary
	// goes silent (no records, no heartbeats) for this long after having
	// been reachable at least once, the standby promotes itself.
	FailoverAfter time.Duration

	Logger *slog.Logger
}

// Standby is the shard's spare: a log follower. It follows the
// primary's WAL over TCP, appends every record to its own durable log
// (seq-preserving), and acknowledges only after its own fsync — the
// other half of the primary's semi-sync barrier. Records the stream
// has already delivered share one fsync and one ack. It builds no fabrics
// while following: until promotion its HTTP surface serves
// health/metrics and rejects mutations with not_primary, and Promote
// (admin request or watchdog) closes the stream and boots a full
// switchd.Controller from the replicated log — the same recovery a
// restarted primary runs.
type Standby struct {
	cfg  StandbyConfig
	meta durable.Meta

	// tracer records repl.apply/repl.fsync spans. Replicated records
	// carry the primary's traceparent (durable.Record.TP), so a sampled
	// request's trace continues across the replication stream: the
	// standby's apply span shares the primary's trace id and is served
	// at the standby's /v1/debug/spans.
	tracer *span.Tracer

	mu      sync.Mutex
	plane   *durable.Plane
	conn    net.Conn
	started bool
	fatal   error

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	appliedSeq    atomic.Uint64 // durable (fsynced) high-water mark
	primarySynced atomic.Uint64 // primary's synced seq per last heartbeat
	lastContactNs atomic.Int64
	connected     atomic.Bool
	reconnects    atomic.Uint64
	snapshots     atomic.Uint64

	promoteOnce sync.Once
	promoted    atomic.Bool
	ctl         atomic.Pointer[switchd.Controller]
	handler     atomic.Value // http.Handler once promoted
	promoteErr  error
	promoteInfo api.PromoteResponse
}

// NewStandby opens (or recovers) the standby's durable log, resuming
// from whatever a previous process left behind. Call Start to begin
// following the primary.
func NewStandby(cfg StandbyConfig) (*Standby, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("cluster: standby needs a data directory")
	}
	if cfg.Primary == "" {
		return nil, fmt.Errorf("cluster: standby needs a primary address")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	if cfg.Reconnect <= 0 {
		cfg.Reconnect = DefaultReconnect
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	meta, err := cfg.Serving.DurableMeta()
	if err != nil {
		return nil, fmt.Errorf("cluster: standby fabric: %w", err)
	}
	s := &Standby{
		cfg:    cfg,
		meta:   meta,
		tracer: span.NewTracer(cfg.Serving.Spans),
		stop:   make(chan struct{}),
	}
	if err := s.openPlane(); err != nil {
		return nil, err
	}
	return s, nil
}

// openPlane opens the durable log and resumes from its last record.
// Caller must not hold s.mu.
func (s *Standby) openPlane() error {
	opts := durable.Options{
		Dir:          s.cfg.DataDir,
		SegmentBytes: s.cfg.Serving.WALSegmentBytes,
		Logger:       s.cfg.Logger,
	}
	plane, rec, err := durable.Open(opts, s.meta)
	if err != nil {
		return fmt.Errorf("cluster: standby log: %w", err)
	}
	s.mu.Lock()
	s.plane = plane
	s.mu.Unlock()
	s.appliedSeq.Store(rec.LastSeq)
	return nil
}

// Start launches the follow loop (and the failover watchdog when
// FailoverAfter is set).
func (s *Standby) Start() {
	s.mu.Lock()
	if s.started || s.promoted.Load() {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.done = make(chan struct{})
	s.mu.Unlock()
	go s.run()
	if s.cfg.FailoverAfter > 0 {
		go s.watchdog()
	}
}

// AppliedSeq returns the standby's durable high-water mark.
func (s *Standby) AppliedSeq() uint64 { return s.appliedSeq.Load() }

// Reconnects returns how many times the stream re-dialed after its
// first successful connection.
func (s *Standby) Reconnects() uint64 { return s.reconnects.Load() }

// Promoted reports whether this node has taken over as primary.
func (s *Standby) Promoted() bool { return s.promoted.Load() }

// Controller returns the promoted controller, nil before promotion.
func (s *Standby) Controller() *switchd.Controller { return s.ctl.Load() }

// run follows the primary until stopped or promoted.
func (s *Standby) run() {
	defer close(s.done)
	first := true
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		if !first {
			select {
			case <-s.stop:
				return
			case <-time.After(s.cfg.Reconnect):
			}
		}
		first = false
		if err := s.followOnce(); err != nil {
			s.mu.Lock()
			fatal := s.fatal
			s.mu.Unlock()
			if fatal != nil {
				s.cfg.Logger.Error("standby stopping", "shard", s.cfg.Shard, "err", fatal)
				return
			}
			s.cfg.Logger.Debug("replication stream lost; retrying",
				"shard", s.cfg.Shard, "primary", s.cfg.Primary, "err", err)
		}
	}
}

// followOnce dials the primary, resumes from the standby's durable
// position, and consumes the stream until it breaks.
func (s *Standby) followOnce() error {
	s.mu.Lock()
	plane := s.plane
	s.mu.Unlock()
	hs := handshakeMsg{Shard: s.cfg.Shard, HaveSeq: plane.LastSeq(), Meta: s.meta}
	c, br, bw, err := dialAndHandshake(s.cfg.Primary, s.cfg.DialTimeout, hs)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.conn = c
	s.mu.Unlock()
	defer func() {
		c.Close()
		s.connected.Store(false)
		s.mu.Lock()
		s.conn = nil
		s.mu.Unlock()
	}()
	if s.connected.Swap(true) {
		// already counted
	} else if s.lastContactNs.Load() != 0 {
		s.reconnects.Add(1)
	}
	s.lastContactNs.Store(time.Now().UnixNano())
	s.cfg.Logger.Info("following primary",
		"shard", s.cfg.Shard, "primary", s.cfg.Primary, "have_seq", hs.HaveSeq)

	for {
		typ, payload, err := readFrame(br)
		if err != nil {
			return err
		}
		s.lastContactNs.Store(time.Now().UnixNano())
		switch typ {
		case frameRecord:
			seq, err := s.applyBatch(br, payload)
			if err != nil {
				return err
			}
			if err := s.ack(bw, seq); err != nil {
				return err
			}
		case frameSnapshot:
			var snap durable.Snapshot
			if err := json.Unmarshal(payload, &snap); err != nil {
				return fmt.Errorf("cluster: decode snapshot: %w", err)
			}
			if err := s.bootstrapFromSnapshot(&snap); err != nil {
				s.setFatal(fmt.Errorf("cluster: snapshot bootstrap: %w", err))
				return err
			}
			s.snapshots.Add(1)
			if err := s.syncUpTo(snap.LastSeq, nil); err != nil {
				return err
			}
			if err := s.ack(bw, snap.LastSeq); err != nil {
				return err
			}
		case frameHeartbeat:
			var hb heartbeatMsg
			if err := json.Unmarshal(payload, &hb); err != nil {
				return fmt.Errorf("cluster: decode heartbeat: %w", err)
			}
			s.primarySynced.Store(hb.SyncedSeq)
			if err := s.ack(bw, s.appliedSeq.Load()); err != nil {
				return err
			}
		case frameReject:
			var rej rejectMsg
			json.Unmarshal(payload, &rej)
			s.setFatal(fmt.Errorf("cluster: primary rejected standby: %s", rej.Reason))
			return s.fatalErr()
		}
	}
}

// applyBatch appends the record in payload and every whole record frame
// the stream has already delivered behind it, then makes them all
// durable with one fsync, and returns the batch's last seq for one ack.
// It never waits for a frame: any other frame, or a partial one, ends
// the batch, so a heartbeat queued behind a record is handled only
// after that record is synced and acked. Each record keeps its own
// repl.apply span, ended before the ack that covers it.
//
// A payload is decoded once, as input validation: the decode supplies
// the seq check and the span's traceparent and op, and a payload that
// does not decode ends the stream unappended, so the log never holds a
// frame its own recovery would cut. The log then frames the payload
// itself — the primary's bytes, not a re-encoding.
func (s *Standby) applyBatch(br *bufio.Reader, payload []byte) (uint64, error) {
	var batch []*span.Span
	defer func() {
		for _, sp := range batch {
			sp.End()
		}
	}()
	var last uint64
	for {
		var rec durable.Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return 0, fmt.Errorf("cluster: decode record: %w", err)
		}
		// A record carrying the primary's traceparent continues that
		// trace here: the apply span shares the primary request's
		// trace id. Records without one (unsampled requests) are
		// applied untraced — no orphan trace trees.
		var sp *span.Span
		if rec.TP != "" {
			sp = s.tracer.Root("repl.apply", rec.TP)
			sp.SetAttr("shard", s.cfg.Shard)
			sp.SetAttr("seq", rec.Seq)
			sp.SetAttr("op", rec.Op)
			batch = append(batch, sp)
		}
		if err := s.applyRecord(&rec, payload); err != nil {
			sp.SetError(err.Error())
			return 0, err
		}
		last = rec.Seq
		if !recordBuffered(br) {
			break
		}
		var err error
		if _, payload, err = readFrame(br); err != nil {
			return 0, err
		}
	}
	return last, s.syncUpTo(last, batch)
}

// syncUpTo makes everything up to seq durable on the standby. It must
// precede ack: the fsync-before-ack order is the zero-loss contract,
// since the primary only releases acknowledged clients on sequences
// the standby cannot lose. Each active span in parents gets a
// repl.fsync child covering the one durability barrier they share.
func (s *Standby) syncUpTo(seq uint64, parents []*span.Span) error {
	s.mu.Lock()
	plane := s.plane
	s.mu.Unlock()
	fsyncs := make([]*span.Span, len(parents))
	for i, parent := range parents {
		fsyncs[i] = parent.StartChild("repl.fsync")
		fsyncs[i].SetAttr("seq", seq)
	}
	err := plane.Sync()
	for _, fs := range fsyncs {
		if err != nil {
			fs.SetError(err.Error())
		}
		fs.End()
	}
	if err != nil {
		s.setFatal(fmt.Errorf("cluster: standby fsync: %w", err))
	}
	return err
}

// ack publishes seq as the durable high-water mark (it never moves
// back) and acknowledges it to the primary.
func (s *Standby) ack(bw *bufio.Writer, seq uint64) error {
	if seq > s.appliedSeq.Load() {
		s.appliedSeq.Store(seq)
	}
	if err := writeFrame(bw, frameAck, ackMsg{AppliedSeq: s.appliedSeq.Load()}); err != nil {
		return err
	}
	return bw.Flush()
}

// applyRecord appends one replicated record, rec decoded from payload,
// to the standby's log. Duplicates (already-held sequences, possible
// across reconnects) are skipped; gaps are stream errors.
func (s *Standby) applyRecord(rec *durable.Record, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	last := s.plane.LastSeq()
	if rec.Seq <= last {
		return nil
	}
	if rec.Seq != last+1 {
		return fmt.Errorf("cluster: stream gap: got seq %d, have %d", rec.Seq, last)
	}
	if err := s.plane.AppendReplica(rec, payload); err != nil {
		err = fmt.Errorf("cluster: standby append: %w", err)
		s.fatal = err
		return err
	}
	return nil
}

// bootstrapFromSnapshot replaces the standby's entire durable state
// with a primary-shipped checkpoint: the resume point was pruned on the
// primary, so the local log prefix is unusable. The old log files are
// removed, the snapshot written durably, and the plane reopened at the
// snapshot's sequence (records then stream from LastSeq+1).
func (s *Standby) bootstrapFromSnapshot(snap *durable.Snapshot) error {
	s.mu.Lock()
	plane := s.plane
	s.mu.Unlock()
	if err := plane.Close(); err != nil {
		return err
	}
	entries, err := os.ReadDir(s.cfg.DataDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "wal-") || strings.HasPrefix(name, "snap-") {
			if err := os.Remove(filepath.Join(s.cfg.DataDir, name)); err != nil {
				return err
			}
		}
	}
	snap.Meta = s.meta
	if err := durable.WriteSnapshotTo(s.cfg.DataDir, snap); err != nil {
		return err
	}
	s.cfg.Logger.Info("bootstrapped from primary snapshot",
		"shard", s.cfg.Shard, "snapshot_seq", snap.LastSeq, "sessions", len(snap.Sessions))
	return s.openPlane()
}

func (s *Standby) setFatal(err error) {
	s.mu.Lock()
	if s.fatal == nil {
		s.fatal = err
	}
	s.mu.Unlock()
}

func (s *Standby) fatalErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fatal
}

// watchdog promotes the standby when the primary goes silent for
// FailoverAfter after having been reachable at least once.
func (s *Standby) watchdog() {
	interval := s.cfg.FailoverAfter / 4
	if interval < 20*time.Millisecond {
		interval = 20 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
		if s.promoted.Load() {
			return
		}
		last := s.lastContactNs.Load()
		if last == 0 {
			continue // never reached the primary: nothing to fail over from
		}
		silent := time.Since(time.Unix(0, last))
		if silent >= s.cfg.FailoverAfter {
			s.cfg.Logger.Warn("primary heartbeat lost; promoting",
				"shard", s.cfg.Shard, "silent", silent.String())
			if _, err := s.Promote("heartbeat loss"); err != nil {
				s.cfg.Logger.Error("automatic promotion failed", "err", err)
			}
			return
		}
	}
}

// Promote flips the standby to primary: the follow stream stops, the
// replicated log closes, and a full switchd.Controller boots from it —
// the same recovery path a crashed primary would take, applied to the
// replica's byte-equivalent log. Safe to call from the watchdog, the
// admin endpoint, or an operator; only the first call promotes.
func (s *Standby) Promote(reason string) (*switchd.Controller, error) {
	s.promoteOnce.Do(func() {
		start := time.Now()
		s.stopFollowing()
		s.mu.Lock()
		plane := s.plane
		s.mu.Unlock()
		if plane != nil {
			plane.Close()
		}
		serving := s.cfg.Serving
		serving.DataDir = s.cfg.DataDir
		if serving.Logger == nil {
			serving.Logger = s.cfg.Logger
		}
		ctl, err := switchd.New(serving)
		if err != nil {
			s.mu.Lock()
			s.promoteErr = fmt.Errorf("cluster: promotion: %w", err)
			s.mu.Unlock()
			return
		}
		st := ctl.Status()
		s.promoteInfo = api.PromoteResponse{
			Promoted: true,
			Shard:    s.cfg.Shard,
			Sessions: int(st.Active),
			Millis:   time.Since(start).Milliseconds(),
		}
		shard := s.cfg.Shard
		ctl.SetReplicationProbe(func() *api.ReplicationHealth {
			rh := &api.ReplicationHealth{
				Role:     api.RolePrimary,
				Shard:    shard,
				Promoted: true,
			}
			if wal := ctl.WAL(); wal != nil {
				rh.SyncedSeq = wal.SyncedSeq()
			}
			return rh
		})
		s.ctl.Store(ctl)
		s.handler.Store(ctl.Handler())
		s.promoted.Store(true)
		s.cfg.Logger.Info("standby promoted to primary",
			"shard", s.cfg.Shard, "reason", reason,
			"sessions", st.Active, "millis", s.promoteInfo.Millis)
	})
	s.mu.Lock()
	err := s.promoteErr
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return s.ctl.Load(), nil
}

// stopFollowing halts the run loop and waits for it to exit.
func (s *Standby) stopFollowing() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.mu.Lock()
	c := s.conn
	done := s.done
	started := s.started
	s.mu.Unlock()
	if c != nil {
		c.Close()
	}
	if started && done != nil {
		<-done
	}
}

// Close stops the standby (or the promoted controller).
func (s *Standby) Close() error {
	s.stopFollowing()
	if ctl := s.ctl.Load(); ctl != nil {
		return ctl.Close()
	}
	s.mu.Lock()
	plane := s.plane
	s.plane = nil
	s.mu.Unlock()
	if plane != nil {
		return plane.Close()
	}
	return nil
}

// ReplicationHealth reports the standby's view of the stream.
func (s *Standby) ReplicationHealth() *api.ReplicationHealth {
	if ctl := s.ctl.Load(); ctl != nil {
		// Promoted: the controller's probe answers.
		h := ctl.Health()
		return h.Replication
	}
	applied := s.appliedSeq.Load()
	primary := s.primarySynced.Load()
	rh := &api.ReplicationHealth{
		Role:       api.RoleStandby,
		Shard:      s.cfg.Shard,
		Connected:  s.connected.Load(),
		SyncedSeq:  primary,
		AppliedSeq: applied,
		Reconnects: s.reconnects.Load(),
		Snapshots:  s.snapshots.Load(),
	}
	if primary > applied {
		rh.LagRecords = primary - applied
	}
	if t := s.lastContactNs.Load(); t > 0 {
		rh.LagSeconds = time.Since(time.Unix(0, t)).Seconds()
	}
	return rh
}

// Handler serves the standby's HTTP surface. Before promotion it
// answers health/metrics/promote and rejects everything else with
// not_primary (503), so a ShardedClient naturally fails over; after
// promotion every request transparently reaches the promoted
// controller's full /v1 handler.
func (s *Standby) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/health", s.handleHealth)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/debug/spans", s.handleSpans)
	mux.HandleFunc("/v1/admin/promote", s.handlePromote)
	mux.HandleFunc("/", s.handleNotPrimary)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h, ok := s.handler.Load().(http.Handler); ok && h != nil {
			h.ServeHTTP(w, r)
			return
		}
		mux.ServeHTTP(w, r)
	})
}

func (s *Standby) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := api.Health{
		Status:      api.HealthStandby,
		Replication: s.ReplicationHealth(),
	}
	writeJSONResponse(w, http.StatusOK, h)
}

func (s *Standby) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var pw obs.PromWriter
	switchd.WriteReplicationProm(&pw, s.ReplicationHealth())
	s.mu.Lock()
	plane := s.plane
	s.mu.Unlock()
	if plane != nil {
		st := plane.Stats()
		pw.Gauge("wdm_wal_last_seq", "Newest record sequence in the standby's replicated log.", float64(st.LastSeq))
		pw.Gauge("wdm_wal_synced_seq", "Newest fsynced record sequence in the standby's replicated log.", float64(st.SyncedSeq))
	}
	w.Header().Set("Content-Type", obs.ContentType)
	w.Write(pw.Bytes())
}

// handleSpans serves the standby's repl.apply/repl.fsync traces —
// continuations, via the replicated traceparent, of the primary's
// request traces.
func (s *Standby) handleSpans(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		writeAPIError(w, http.StatusNotFound, api.CodeNotFound, "span tracing disabled (Spans.Capacity < 0)")
		return
	}
	kept, dropped := s.tracer.Stats()
	writeJSONResponse(w, http.StatusOK, api.SpansResponse{Kept: kept, Dropped: dropped, Traces: s.tracer.Snapshot()})
}

func (s *Standby) handlePromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeAPIError(w, http.StatusMethodNotAllowed, api.CodeBadRequest, "POST required")
		return
	}
	if _, err := s.Promote("admin request"); err != nil {
		writeAPIError(w, http.StatusInternalServerError, api.CodeStorageFailed, err.Error())
		return
	}
	writeJSONResponse(w, http.StatusOK, s.promoteInfo)
}

func (s *Standby) handleNotPrimary(w http.ResponseWriter, r *http.Request) {
	writeAPIError(w, api.StatusFor(api.CodeNotPrimary), api.CodeNotPrimary,
		fmt.Sprintf("shard %d standby: not serving until promoted", s.cfg.Shard))
}

func writeJSONResponse(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeAPIError(w http.ResponseWriter, status int, code, msg string) {
	writeJSONResponse(w, status, api.Envelope{Error: &api.Error{Code: code, Message: msg}})
}
