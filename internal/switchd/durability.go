package switchd

import (
	"fmt"
	"log/slog"
	"sort"
	"time"

	"repro/internal/durable"
	"repro/internal/multistage"
	"repro/internal/obs/span"
	"repro/internal/switchd/api"
	"repro/internal/wdm"
)

// Durable state plane. With Config.DataDir set the controller journals
// every acknowledged mutation — connect, branch, disconnect, middle
// fail/repair — to a write-ahead log before the request returns, and
// periodically checkpoints the full session table. Recovery loads the
// newest valid snapshot and replays the log tail through
// multistage.Reinstall: routes are restored exactly as recorded, no
// router search runs, so a session set that was conflict-free before
// the crash reinstalls without blocking by construction.
//
// Consistency design. Each operation's WAL append shares a critical
// section with its table mutation (the session shard lock), so the
// log order of records matches the order in which the table — and
// through byConn, any snapshot — observed them. Three orderings carry
// the correctness argument:
//
//   - Disconnect appends its record *before* releasing the fabric
//     slots, so any later connect reusing those slots appends after
//     it. Combined with truncate-at-first-bad-frame recovery (a
//     corrupted record never hides an earlier one), every surviving
//     log prefix's final session set is mutually conflict-free and
//     Reinstall cannot fail at startup.
//   - FailMiddle appends its record while still holding the fabric
//     lock, so a connect admitted after the failure (whose route may
//     reuse slots freed by dropped sessions) appends after the fail
//     record that freed them.
//   - Snapshots capture the synced sequence number *before* scanning
//     fabric state, so the checkpoint is a superset of every record
//     it claims to cover; tail records replay as idempotent upserts
//     carrying absolute branch/migration counts.
//
// Failure policy is fail-stop: a write or fsync error poisons the log,
// every subsequent mutating call returns ErrStorageFailed
// (storage_failed, HTTP 503), and reads keep serving. Restarting the
// process recovers everything that was acknowledged.

// connMeta is the fabric-side view of a session, keyed by fabric
// connection id under the fabric mutex. It lets FailMiddle and the
// snapshotter translate connection ids to session ids (and absolute
// branch/migration counts) without touching the sharded session table,
// which keeps snapshot capture free of shard locks and keeps the fail
// record buildable inside the fabric critical section.
type connMeta struct {
	session    uint64
	branches   int
	migrations int
}

// openDurable opens (or creates) the write-ahead log under
// cfg.DataDir for the fabric identity meta, reinstalls every recovered
// session, and starts the snapshotter. Called from New before the
// controller is published.
func (ctl *Controller) openDurable(meta durable.Meta) error {
	cfg := ctl.cfg
	opts := durable.Options{
		Dir:          cfg.DataDir,
		SegmentBytes: cfg.WALSegmentBytes,
		OnFsync:      func(d time.Duration) { ctl.metrics.walFsync.observe(d) },
		Committer:    cfg.WALCommitter,
		Logger:       ctl.logger,
	}
	sp := ctl.tracer.Root("wal.recover", "")
	defer sp.End()
	wal, rec, err := durable.Open(opts, meta)
	if err != nil {
		sp.SetError(err.Error())
		return fmt.Errorf("switchd: opening durable log: %w", err)
	}
	ctl.wal = wal
	ctl.recovery = rec
	if err := ctl.reinstallRecovered(rec, sp); err != nil {
		sp.SetError(err.Error())
		wal.Close()
		return err
	}
	sp.SetAttr("sessions", len(rec.Sessions))
	sp.SetAttr("records", rec.Records)
	sp.SetAttr("last_seq", rec.LastSeq)

	interval := cfg.SnapshotInterval
	if interval == 0 {
		interval = 30 * time.Second
	}
	if interval > 0 {
		ctl.snapStop = make(chan struct{})
		ctl.snapDone = make(chan struct{})
		go ctl.snapshotLoop(interval)
	} else {
		ctl.snapDone = make(chan struct{})
		close(ctl.snapDone)
	}
	return nil
}

// reinstallRecovered replays the recovered state into the fabrics and
// the session table. New is single-threaded here, so no locks are
// needed; everything must succeed — a session that was acknowledged
// durable but cannot be reinstalled is a corruption-class invariant
// violation, and serving without it would silently break the
// durability contract.
func (ctl *Controller) reinstallRecovered(rec *durable.Recovery, sp *span.Span) error {
	for plane, mids := range rec.Failed {
		if plane < 0 || plane >= len(ctl.fabrics) {
			return fmt.Errorf("switchd: recovery: fabric %d out of range (have %d)", plane, len(ctl.fabrics))
		}
		f := ctl.fabrics[plane]
		for _, mid := range mids {
			if err := f.net.FailMiddle(mid); err != nil {
				return fmt.Errorf("switchd: recovery: marking fabric %d middle %d failed: %w", plane, mid, err)
			}
		}
		ctl.metrics.perFabric[plane].failedMiddles.Store(int64(len(mids)))
	}
	for _, sr := range rec.Sessions {
		if sr.Fabric < 0 || sr.Fabric >= len(ctl.fabrics) {
			return fmt.Errorf("switchd: recovery: session %d on fabric %d out of range", sr.Session, sr.Fabric)
		}
		f := ctl.fabrics[sr.Fabric]
		connID, err := f.net.Reinstall(sr.Route)
		if err != nil {
			return fmt.Errorf("switchd: recovery: reinstalling session %d on fabric %d: %w", sr.Session, sr.Fabric, err)
		}
		conn, err := wdm.ParseConnection(sr.Route.Conn)
		if err != nil {
			return fmt.Errorf("switchd: recovery: session %d connection: %w", sr.Session, err)
		}
		ctl.sessions.put(&session{
			ID: sr.Session, Fabric: sr.Fabric, ConnID: connID,
			Conn: conn.Normalize(), Branches: sr.Branches, Migrations: sr.Migrations,
		})
		f.byConn[connID] = &connMeta{session: sr.Session, branches: sr.Branches, migrations: sr.Migrations}
		ctl.active.Add(1)
		ctl.admitted.Add(1)
		ctl.metrics.perFabric[sr.Fabric].active.Add(1)
		ctl.metrics.perFabric[sr.Fabric].routed.Add(1)
	}
	ctl.nextSession.Store(rec.NextSession)
	ctl.metrics.recovered.Store(int64(len(rec.Sessions)))
	ctl.failMu.Lock()
	ctl.recomputeDegradedLocked()
	ctl.failMu.Unlock()
	if len(rec.Sessions) > 0 || rec.Records > 0 || rec.Truncated != nil {
		attrs := []any{
			"sessions", len(rec.Sessions), "records", rec.Records,
			"last_seq", rec.LastSeq, "snapshot_seq", rec.SnapshotSeq,
			"sealed", rec.Sealed, "elapsed", rec.Elapsed,
		}
		if rec.Truncated != nil {
			attrs = append(attrs, "truncated_segment", rec.Truncated.Segment,
				"truncated_offset", rec.Truncated.Offset, "truncated_reason", rec.Truncated.Reason)
		}
		ctl.logger.Info("recovered durable state", attrs...)
	}
	return nil
}

// walAppend journals one record and waits for the group commit to make
// it durable. A failure is wrapped in ErrStorageFailed; the log is
// poisoned from that point on (fail-stop). pt (nil-safe) receives the
// wait split into wal_append (frame + batch fsync) and repl_ack (the
// Committer barrier's slice). When sp is an active sampled span, the
// record also carries its traceparent, so a replication standby's
// apply/fsync spans join this trace instead of starting orphans.
func (ctl *Controller) walAppend(sp *span.Span, pt *phaseTimer, rec *durable.Record) error {
	if sp.Active() {
		rec.TP = sp.Traceparent()
	}
	start := time.Now()
	seq, fsyncD, commitD, err := ctl.wal.AppendTimed(rec)
	total := time.Since(start)
	pt.add(phaseReplAck, commitD)
	pt.add(phaseWALAppend, total-commitD)
	if sp.Active() {
		ws := sp.StartChild("wal.append")
		ws.SetAttr("op", rec.Op)
		if seq > 0 {
			ws.SetAttr("seq", seq)
		}
		ws.SetAttr("fsync_us", fsyncD.Microseconds())
		if commitD > 0 {
			ws.SetAttr("repl_ack_us", commitD.Microseconds())
		}
		if err != nil {
			ws.SetError(err.Error())
		}
		ws.End()
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrStorageFailed, err)
	}
	return nil
}

// commitConnect publishes a freshly routed session, in memory and
// durable alike: under the session shard lock it confirms, under a
// brief nested fabric lock (shard -> fabric is the repo-wide lock
// order), that the fabric still holds the connection, then inserts the
// session and, when durable, journals it with the route read at that
// moment, so the recorded route is exactly what the fabric holds at the
// record's log position. A FailMiddle that ran between the route and
// this publish could not see the session in the table; if it dropped
// the fresh route, the connect fails with ErrFabricFailed instead of
// publishing a session the fabric no longer holds. On append failure
// the connection is rolled back and never acknowledged.
func (ctl *Controller) commitConnect(sp *span.Span, pt *phaseTimer, f *fabric, plane int, s *session) error {
	sh := ctl.sessions.shardFor(s.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var route multistage.RouteRecord
	var ok bool
	f.mu.Lock()
	if ctl.wal != nil {
		if route, ok = f.net.RouteRecord(s.ConnID); ok {
			f.byConn[s.ConnID] = &connMeta{session: s.ID}
		}
	} else {
		_, ok = f.net.Connection(s.ConnID)
	}
	f.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: fabric %d dropped connection %d before it was published", ErrFabricFailed, plane, s.ConnID)
	}
	sh.m[s.ID] = s
	if ctl.wal == nil {
		return nil
	}
	err := ctl.walAppend(sp, pt, &durable.Record{
		Op: durable.OpConnect, Session: s.ID, Fabric: plane, Route: &route,
	})
	if err == nil {
		return nil
	}
	// Roll back: the session was never acknowledged, so it must not
	// survive in any state the log cannot reproduce.
	delete(sh.m, s.ID)
	f.mu.Lock()
	delete(f.byConn, s.ConnID)
	if rerr := f.net.Release(s.ConnID); rerr == nil {
		f.cap.release(s.ConnID)
	}
	f.mu.Unlock()
	return err
}

// commitBranch journals a successful AddBranch. The caller holds the
// session shard lock and has already applied the grow; on append
// failure the grow stays applied (tearing down a live receiver over a
// bookkeeping error would be worse) and the caller surfaces
// storage_failed — the client knows the branch may or may not survive
// a crash, and every subsequent mutation fails anyway (fail-stop).
func (ctl *Controller) commitBranch(sp *span.Span, pt *phaseTimer, f *fabric, s *session) error {
	if ctl.wal == nil {
		return nil
	}
	var route multistage.RouteRecord
	var ok bool
	f.mu.Lock()
	route, ok = f.net.RouteRecord(s.ConnID)
	if meta := f.byConn[s.ConnID]; meta != nil {
		meta.branches = s.Branches
	}
	f.mu.Unlock()
	if !ok {
		return fmt.Errorf("switchd: connection %d vanished before journaling", s.ConnID)
	}
	return ctl.walAppend(sp, pt, &durable.Record{
		Op: durable.OpBranch, Session: s.ID, Fabric: s.Fabric,
		Branches: s.Branches, Migrations: s.Migrations, Route: &route,
	})
}

// commitDisconnect journals a disconnect before the fabric slots are
// released (see the ordering argument in the package comment: the
// record must precede any connect record that reuses the slots). The
// byConn entry is removed first so a concurrent FailMiddle does not
// journal a migration for a session whose disconnect record is
// already ahead of it. The caller holds the session shard lock.
func (ctl *Controller) commitDisconnect(sp *span.Span, pt *phaseTimer, s *session) error {
	if ctl.wal == nil {
		return nil
	}
	f := ctl.fabrics[s.Fabric]
	f.mu.Lock()
	meta := f.byConn[s.ConnID]
	delete(f.byConn, s.ConnID)
	f.mu.Unlock()
	err := ctl.walAppend(sp, pt, &durable.Record{Op: durable.OpDisconnect, Session: s.ID})
	if err != nil {
		f.mu.Lock()
		if meta != nil {
			f.byConn[s.ConnID] = meta
		}
		f.mu.Unlock()
	}
	return err
}

// buildFailRecordLocked folds a middle failure into byConn and builds
// the fail record: post-migration routes with absolute counts for the
// survivors, session ids for the drops. Caller holds the fabric lock —
// the record must be appended before the lock is released so no
// post-failure connect (possibly reusing a dropped session's slots)
// can journal ahead of it.
func (ctl *Controller) buildFailRecordLocked(f *fabric, plane, middle int, migrations []multistage.Migration, droppedIDs []int) *durable.Record {
	rec := &durable.Record{Op: durable.OpFail, Fabric: plane, Middle: middle}
	for _, mig := range migrations {
		meta := f.byConn[mig.ID]
		if meta == nil {
			continue
		}
		meta.migrations++
		route, ok := f.net.RouteRecord(mig.ID)
		if !ok {
			continue
		}
		rec.Migrated = append(rec.Migrated, durable.SessionRoute{
			Session: meta.session, Fabric: plane,
			Branches: meta.branches, Migrations: meta.migrations, Route: route,
		})
	}
	for _, id := range droppedIDs {
		if meta := f.byConn[id]; meta != nil {
			rec.Dropped = append(rec.Dropped, meta.session)
			delete(f.byConn, id)
		}
	}
	return rec
}

// snapshotLoop checkpoints the controller state every interval until
// stopped.
func (ctl *Controller) snapshotLoop(interval time.Duration) {
	defer close(ctl.snapDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctl.snapStop:
			return
		case <-t.C:
			if err := ctl.WriteSnapshot(); err != nil {
				ctl.logger.Warn("snapshot failed", slog.String("error", err.Error()))
			}
		}
	}
}

// WriteSnapshot checkpoints the session table and failure plane to the
// data directory, then prunes log segments the checkpoint covers. The
// synced sequence number is captured before the fabric scan, so every
// record the snapshot claims to cover is reflected in it (records
// landing during the scan replay idempotently on top). Safe to call
// concurrently with serving; no session-shard lock is taken.
func (ctl *Controller) WriteSnapshot() error {
	if ctl.wal == nil {
		return nil
	}
	sp := ctl.tracer.Root("wal.snapshot", "")
	defer sp.End()
	snap := ctl.SnapshotState()
	sp.SetAttr("sessions", len(snap.Sessions))
	sp.SetAttr("last_seq", snap.LastSeq)
	err := ctl.wal.WriteSnapshot(snap)
	if err != nil {
		sp.SetError(err.Error())
	}
	return err
}

// SnapshotState captures the checkpoint WriteSnapshot would persist:
// the live session routes, the failure plane, and the synced sequence
// they cover. The replication server ships it to bootstrap a standby
// whose resume point has been pruned. The sequence is captured before
// the fabric scan, so the state is a superset of every record it claims
// to cover. Must only be called with the durable plane enabled.
func (ctl *Controller) SnapshotState() *durable.Snapshot {
	snap := &durable.Snapshot{
		LastSeq:     ctl.wal.SyncedSeq(),
		NextSession: ctl.nextSession.Load(),
	}
	for plane, f := range ctl.fabrics {
		f.mu.Lock()
		for connID, meta := range f.byConn {
			route, ok := f.net.RouteRecord(connID)
			if !ok {
				continue
			}
			snap.Sessions = append(snap.Sessions, durable.SessionRoute{
				Session: meta.session, Fabric: plane,
				Branches: meta.branches, Migrations: meta.migrations, Route: route,
			})
		}
		if failed := f.net.FailedMiddles(); len(failed) > 0 {
			if snap.Failed == nil {
				snap.Failed = make(map[int][]int)
			}
			snap.Failed[plane] = failed
		}
		f.mu.Unlock()
	}
	sort.Slice(snap.Sessions, func(i, j int) bool { return snap.Sessions[i].Session < snap.Sessions[j].Session })
	return snap
}

// stopSnapshots halts the snapshotter goroutine (idempotent).
func (ctl *Controller) stopSnapshots() {
	ctl.snapOnce.Do(func() {
		if ctl.snapStop != nil {
			close(ctl.snapStop)
		}
		if ctl.snapDone != nil {
			<-ctl.snapDone
		}
	})
}

// Close stops the snapshotter and flushes and closes the durable log.
// Idempotent; a no-op without a data directory.
func (ctl *Controller) Close() error {
	var err error
	ctl.closeOnce.Do(func() {
		ctl.stopHistory()
		ctl.stopSnapshots()
		ctl.prof.Stop()
		if ctl.wal != nil {
			err = ctl.wal.Close()
		}
	})
	return err
}

// Crash hard-stops the controller's durable log the way kill -9 would:
// buffered, never-fsynced frames are dropped — exactly the records
// whose requests were never acknowledged. For fault drills and tests;
// the controller itself keeps serving reads until abandoned.
func (ctl *Controller) Crash() {
	ctl.closeOnce.Do(func() {
		ctl.stopHistory()
		ctl.stopSnapshots()
		ctl.prof.Stop()
		if ctl.wal != nil {
			ctl.wal.Crash()
		}
	})
}

// Recovery reports what startup restored from the data directory (nil
// without one).
func (ctl *Controller) Recovery() *durable.Recovery { return ctl.recovery }

// WAL exposes the durable log (nil without a data directory); tests
// and the serving binary use it for stats and shutdown.
func (ctl *Controller) WAL() *durable.Plane { return ctl.wal }

// SetReplicationProbe registers (or clears, with nil) the callback
// that reports the node's replication role and lag. The cluster layer
// sets it on primaries; its result appears as the replication row of
// GET /v1/health and as wdm_replication_* metrics.
func (ctl *Controller) SetReplicationProbe(probe func() *api.ReplicationHealth) {
	if probe == nil {
		ctl.replProbe.Store(nil)
		return
	}
	ctl.replProbe.Store(&probe)
}

// replicationHealth runs the registered probe, if any.
func (ctl *Controller) replicationHealth() *api.ReplicationHealth {
	if p := ctl.replProbe.Load(); p != nil {
		return (*p)()
	}
	return nil
}

// durabilityHealth builds the durability row of GET /v1/health.
func (ctl *Controller) durabilityHealth() *api.DurabilityHealth {
	if ctl.wal == nil {
		return nil
	}
	st := ctl.wal.Stats()
	d := &api.DurabilityHealth{
		Enabled:       true,
		Healthy:       true,
		LastSeq:       st.LastSeq,
		SyncedSeq:     st.SyncedSeq,
		UnsyncedBytes: st.UnsyncedBytes,
		Segments:      st.Segments,
		Sealed:        st.Sealed,
	}
	if err := ctl.wal.Err(); err != nil {
		d.Healthy = false
		d.Error = err.Error()
	}
	if st.LastSnapshotUnixNs > 0 {
		d.SnapshotAgeSeconds = time.Since(time.Unix(0, st.LastSnapshotUnixNs)).Seconds()
		d.SnapshotSeq = st.LastSnapshotSeq
	} else {
		d.SnapshotAgeSeconds = -1
	}
	if rec := ctl.recovery; rec != nil {
		d.RecoveredSessions = len(rec.Sessions)
		d.ReplayedRecords = rec.Records
		d.RecoveryMillis = rec.Elapsed.Milliseconds()
		if rec.Truncated != nil {
			d.TruncatedTail = fmt.Sprintf("%s@%d: %s", rec.Truncated.Segment, rec.Truncated.Offset, rec.Truncated.Reason)
		}
	}
	return d
}
