package switchd

import (
	"fmt"
	"log/slog"
	"sort"
	"time"

	"repro/internal/durable"
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
// One rule orders the log. Every plane mutation changes the fabric,
// updates the plane's connection -> session index (byConn) and enqueues
// its record inside one critical section of that plane's lock, and
// waits for the group commit only after releasing it. So the log holds
// each plane's mutations in the order the fabric applied them, each
// record carries the route the fabric held at that moment, and the
// fold of any log prefix is a state the plane was in: a session's
// connect record precedes the fail record that migrates it, and a
// disconnect or drop precedes every connect that reuses its slots.
// Combined with truncate-at-first-bad-frame recovery (a corrupted
// record never hides an earlier one), every surviving prefix's final
// session set is mutually conflict-free and rides no failed middle, so
// Reinstall cannot fail at startup; a log that breaks this fails New
// loudly, naming the session.
//
// A mutation the poisoned log refuses (lockPlane) changes nothing. Once
// a mutation has applied it stands in memory; if its enqueue or wait
// then fails, the caller sees storage_failed. Failure policy is
// fail-stop: a write or fsync error poisons the log, every subsequent
// mutating call returns ErrStorageFailed (storage_failed, HTTP 503),
// and reads keep serving. Restarting the process recovers everything
// that was acknowledged.
//
// Snapshots capture the synced sequence number before scanning the
// planes, so a checkpoint is a superset of every record it claims to
// cover, and are written only once every record the scan reflects is
// durable; tail records replay as idempotent upserts carrying absolute
// branch/migration counts.

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
		s := &session{
			ID: sr.Session, Fabric: sr.Fabric, ConnID: connID,
			Conn: conn.Normalize(), Branches: sr.Branches,
		}
		s.Migrations.Store(int64(sr.Migrations))
		ctl.sessions.shardFor(s.ID).m[s.ID] = s
		f.byConn[connID] = s
		ctl.active.Add(1)
		ctl.admitted.Add(1)
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

// lockPlane takes plane f's lock for one mutation, adding the wait to
// lock_wait. While the durable log is poisoned it refuses instead and
// leaves the lock free: a mutation refused before its record is
// enqueued changes nothing.
func (ctl *Controller) lockPlane(pt *phaseTimer, f *fabric) error {
	start := time.Now()
	f.mu.Lock()
	pt.add(phaseLockWait, time.Since(start))
	if ctl.wal == nil {
		return nil
	}
	if err := ctl.wal.Err(); err != nil {
		f.mu.Unlock()
		return fmt.Errorf("%w: %v", ErrStorageFailed, err)
	}
	return nil
}

// enqueue gives rec its log position; the caller holds the lock of the
// plane rec mutates, so the log order is that plane's mutation order.
// The time counts as wal_append. Without a data directory nothing is
// journaled and the zero ticket comes back. When sp is an active
// sampled span the record carries its traceparent, so a replication
// standby's apply/fsync spans join this trace instead of starting
// orphans.
func (ctl *Controller) enqueue(sp *span.Span, pt *phaseTimer, rec *durable.Record) (durable.Ticket, error) {
	if ctl.wal == nil {
		return durable.Ticket{}, nil
	}
	if sp.Active() {
		rec.TP = sp.Traceparent()
	}
	start := time.Now()
	t, err := ctl.wal.Enqueue(rec)
	pt.add(phaseWALAppend, time.Since(start))
	if err != nil {
		return t, fmt.Errorf("%w: %v", ErrStorageFailed, err)
	}
	return t, nil
}

// enqueueRoute journals op (connect or branch) for session s with the
// route the fabric holds for it now. The caller holds s's plane lock.
func (ctl *Controller) enqueueRoute(sp *span.Span, pt *phaseTimer, f *fabric, op string, s *session) (durable.Ticket, error) {
	if ctl.wal == nil {
		return durable.Ticket{}, nil
	}
	route, _ := f.net.RouteRecord(s.ConnID)
	return ctl.enqueue(sp, pt, &durable.Record{
		Op: op, Session: s.ID, Fabric: s.Fabric,
		Branches: s.Branches, Migrations: int(s.Migrations.Load()), Route: &route,
	})
}

// wait finishes a mutation once its plane lock is released: unless
// err (the mutation's own outcome) is set, it blocks until the group
// commit covering t is durable. A wait failure is wrapped in
// ErrStorageFailed; the log is poisoned from that point on. pt
// (nil-safe) receives the wait split into wal_append (batch fsync) and
// repl_ack (the Committer barrier's slice), and an active span gets a
// wal.append child with the batch's split. An error also marks sp.
func (ctl *Controller) wait(sp *span.Span, pt *phaseTimer, op string, t durable.Ticket, err error) error {
	if err == nil && t.Seq != 0 {
		start := time.Now()
		fsyncD, commitD, werr := ctl.wal.Wait(t)
		total := time.Since(start)
		pt.add(phaseReplAck, commitD)
		pt.add(phaseWALAppend, total-commitD)
		if sp.Active() {
			ws := sp.StartChild("wal.append")
			ws.SetAttr("op", op)
			ws.SetAttr("seq", t.Seq)
			ws.SetAttr("fsync_us", fsyncD.Microseconds())
			if commitD > 0 {
				ws.SetAttr("repl_ack_us", commitD.Microseconds())
			}
			if werr != nil {
				ws.SetError(werr.Error())
			}
			ws.End()
		}
		if werr != nil {
			err = fmt.Errorf("%w: %v", ErrStorageFailed, werr)
		}
	}
	if err != nil {
		sp.SetError(err.Error())
	}
	return err
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
// landing during the scan replay idempotently on top). The scan also
// sees mutations whose records are still waiting for their group
// commit, so the log is made durable through them before the file is
// written: a crash right after the checkpoint must not replay an older
// record, such as a connect on slots a later session now holds, over a
// state its successors already changed. Safe to call concurrently with
// serving; no session-shard lock is taken.
func (ctl *Controller) WriteSnapshot() error {
	if ctl.wal == nil {
		return nil
	}
	sp := ctl.tracer.Root("wal.snapshot", "")
	defer sp.End()
	snap := ctl.SnapshotState()
	sp.SetAttr("sessions", len(snap.Sessions))
	sp.SetAttr("last_seq", snap.LastSeq)
	err := ctl.wal.Sync()
	if err == nil {
		err = ctl.wal.WriteSnapshot(snap)
	}
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
		for connID, s := range f.byConn {
			route, _ := f.net.RouteRecord(connID)
			snap.Sessions = append(snap.Sessions, durable.SessionRoute{
				Session: s.ID, Fabric: plane,
				Branches: s.Branches, Migrations: int(s.Migrations.Load()), Route: route,
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
