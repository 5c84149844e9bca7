package switchd

import (
	"context"
	"fmt"

	"repro/internal/durable"
	"repro/internal/obs/span"
	"repro/internal/switchd/api"
)

// Controller failure plane. The nonblocking margin is also the
// fault-tolerance budget: every middle module above the Theorem 1/2
// sufficient bound is spare capacity, and m = bound + f tolerates any f
// simultaneous middle failures with zero dropped sessions (the
// multistage failure tests assert the fabric half of that claim; the
// chaos tests assert it end to end over HTTP).
//
// FailMiddle spends the budget: it marks the module failed, re-routes
// every session riding it onto the spares in place — fabric connection
// ids, and therefore session ids, survive the move — and mirrors the
// move into the sessions, the trace capture, the span tracer, and the
// metrics. When failures eat through the spare margin the
// controller degrades: the admission cap is derated in proportion to
// the surviving middle capacity of each plane, so the fraction of
// traffic the weakened fabric can still serve nonblocking is the
// fraction admission lets in.

// FailMiddle marks middle module `middle` of fabric plane `plane` as
// failed and live-migrates every session riding it. Sessions that no
// spare capacity can carry are dropped (released and removed from the
// table). Failure-plane operations are serialized by failMu; each takes
// the target plane's fabric lock for the mark-and-migrate and its
// record (see durability.go), so serving on other planes is never
// stalled.
func (ctl *Controller) FailMiddle(ctx context.Context, plane, middle int) (api.FailReport, error) {
	_, sp := span.Start(ctx, "switchd.fail_middle")
	defer sp.End()
	sp.SetAttr("fabric", plane)
	sp.SetAttr("middle", middle)

	if plane < 0 || plane >= len(ctl.fabrics) {
		err := &api.Error{Code: api.CodeNotFound, Message: fmt.Sprintf("fabric %d out of range (have %d)", plane, len(ctl.fabrics))}
		sp.SetError(err.Error())
		return api.FailReport{}, err
	}
	ctl.failMu.Lock()
	defer ctl.failMu.Unlock()

	f := ctl.fabrics[plane]
	if err := ctl.lockPlane(nil, f); err != nil {
		sp.SetError(err.Error())
		return api.FailReport{}, err
	}
	if err := f.net.FailMiddle(middle); err != nil {
		f.mu.Unlock()
		apiErr := &api.Error{Code: api.CodeNotFound, Message: err.Error()}
		sp.SetError(apiErr.Error())
		return api.FailReport{}, apiErr
	}
	migrations, droppedIDs, err := f.net.RerouteAroundReport(middle)
	if err != nil {
		f.mu.Unlock()
		// A re-route bookkeeping failure is a controller invariant
		// violation, not a client error; surface it loudly.
		err = fmt.Errorf("switchd: re-routing around fabric %d middle %d: %w", plane, middle, err)
		sp.SetError(err.Error())
		return api.FailReport{}, err
	}
	// byConn names the session of every connection the fabric moved or
	// dropped: the report, the trace and the record come from it, so
	// every affected session is listed.
	rep := api.FailReport{Fabric: plane, Middle: middle, Affected: len(migrations) + len(droppedIDs)}
	rec := &durable.Record{Op: durable.OpFail, Fabric: plane, Middle: middle}
	for _, mig := range migrations {
		s := f.byConn[mig.ID]
		s.Migrations.Add(1)
		f.rec.Migrated(mig.ID, s.Conn)
		rep.Migrated = append(rep.Migrated, s.ID)
		route, _ := f.net.RouteRecord(mig.ID)
		rec.Migrated = append(rec.Migrated, durable.SessionRoute{
			Session: s.ID, Fabric: plane,
			Branches: s.Branches, Migrations: int(s.Migrations.Load()), Route: route,
		})
		msp := sp.StartChild("session.migrate")
		msp.SetAttr("session", s.ID)
		msp.SetAttr("from", mig.From)
		msp.SetAttr("to", mig.To)
		msp.End()
	}
	dropped := make([]*session, 0, len(droppedIDs))
	for _, id := range droppedIDs {
		s := f.byConn[id]
		delete(f.byConn, id)
		f.rec.Released(id)
		dropped = append(dropped, s)
		rep.Dropped = append(rep.Dropped, s.ID)
		dsp := sp.StartChild("session.drop")
		dsp.SetAttr("session", s.ID)
		dsp.SetError("no spare middle capacity")
		dsp.End()
	}
	rec.Dropped = rep.Dropped
	failedNow := len(f.net.FailedMiddles())
	tk, walErr := ctl.enqueue(sp, nil, rec)
	f.mu.Unlock()

	// Admission and the derater stop counting the module.
	ctl.metrics.perFabric[plane].failedMiddles.Store(int64(failedNow))
	ctl.recomputeDegradedLocked()
	// Dropped sessions leave the table. Lock order is shard -> fabric,
	// so this runs after the plane lock is released and locks only the
	// dropped sessions' shards; session ids are never reused.
	for _, s := range dropped {
		sh := ctl.sessions.shardFor(s.ID)
		sh.mu.Lock()
		delete(sh.m, s.ID)
		sh.mu.Unlock()
		ctl.active.Add(-1)
		ctl.admitted.Add(-1)
	}
	ctl.metrics.migrated.Add(int64(len(rep.Migrated)))
	ctl.metrics.dropped.Add(int64(len(rep.Dropped)))
	rep.Health = ctl.Health()
	ctl.logger.Info("middle module failed",
		"fabric", plane, "middle", middle,
		"migrated", len(rep.Migrated), "dropped", len(rep.Dropped),
		"health", rep.Health.Status, "effective_max", rep.Health.EffectiveMaxSessions)
	// The failure and migration stand even when the log did not record
	// them: the in-memory state is authoritative until restart, and the
	// poisoned log fails every later mutation anyway.
	if err := ctl.wait(sp, nil, durable.OpFail, tk, walErr); err != nil {
		return api.FailReport{}, err
	}
	return rep, nil
}

// RepairMiddle returns a failed middle module to service and lifts
// whatever share of the admission derating it caused.
func (ctl *Controller) RepairMiddle(ctx context.Context, plane, middle int) (api.RepairReport, error) {
	_, sp := span.Start(ctx, "switchd.repair_middle")
	defer sp.End()
	sp.SetAttr("fabric", plane)
	sp.SetAttr("middle", middle)

	if plane < 0 || plane >= len(ctl.fabrics) {
		err := &api.Error{Code: api.CodeNotFound, Message: fmt.Sprintf("fabric %d out of range (have %d)", plane, len(ctl.fabrics))}
		sp.SetError(err.Error())
		return api.RepairReport{}, err
	}
	ctl.failMu.Lock()
	defer ctl.failMu.Unlock()

	f := ctl.fabrics[plane]
	if err := ctl.lockPlane(nil, f); err != nil {
		sp.SetError(err.Error())
		return api.RepairReport{}, err
	}
	if err := f.net.RepairMiddle(middle); err != nil {
		f.mu.Unlock()
		apiErr := &api.Error{Code: api.CodeNotFound, Message: err.Error()}
		sp.SetError(apiErr.Error())
		return api.RepairReport{}, apiErr
	}
	failedNow := len(f.net.FailedMiddles())
	tk, walErr := ctl.enqueue(sp, nil, &durable.Record{Op: durable.OpRepair, Fabric: plane, Middle: middle})
	f.mu.Unlock()
	ctl.metrics.perFabric[plane].failedMiddles.Store(int64(failedNow))
	ctl.recomputeDegradedLocked()
	if err := ctl.wait(sp, nil, durable.OpRepair, tk, walErr); err != nil {
		return api.RepairReport{}, err
	}
	rep := api.RepairReport{Fabric: plane, Middle: middle, Health: ctl.Health()}
	ctl.logger.Info("middle module repaired",
		"fabric", plane, "middle", middle,
		"health", rep.Health.Status, "effective_max", rep.Health.EffectiveMaxSessions)
	return rep, nil
}

// recomputeDegradedLocked recomputes the degraded flag and the
// effective admission cap from the per-plane failed counts. Caller
// holds failMu.
//
// Derating model: the reference capacity of a plane is
// min(m, sufficient bound) working middles — a plane provisioned above
// the bound has spares, and spares absorb failures for free; a plane at
// or below the bound loses serving headroom with every failure. Each
// plane keeps the fraction eff/reference (capped at 1) of its share of
// the configured cap. With MaxSessions unlimited the derating still
// needs a base to derate from; replicas*N*K (every input slot of every
// plane lit) is the physical ceiling and serves as that base, so an
// unlimited controller stays unlimited until the first failure bites
// into a bound.
func (ctl *Controller) recomputeDegradedLocked() {
	planes := len(ctl.fabrics)
	reference := ctl.params.M
	if ctl.suffM < reference {
		reference = ctl.suffM
	}
	if reference < 1 {
		reference = 1
	}
	base := ctl.cfg.MaxSessions
	unlimited := base <= 0
	if unlimited {
		base = planes * ctl.params.N * ctl.params.K
	}
	anyFailed := false
	derated := false
	total := 0
	for i := range ctl.fabrics {
		failed := int(ctl.metrics.perFabric[i].failedMiddles.Load())
		if failed > 0 {
			anyFailed = true
		}
		eff := ctl.params.M - failed
		share := base / planes
		if i < base%planes {
			share++
		}
		if eff >= reference {
			total += share
			continue
		}
		derated = true
		total += share * eff / reference
	}
	ctl.degraded.Store(anyFailed)
	switch {
	case unlimited && !derated:
		ctl.effectiveCap.Store(0)
	default:
		ctl.effectiveCap.Store(int64(total))
	}
}

// EffectiveMaxSessions returns the admission cap currently enforced
// (0 = unlimited). It equals Config.MaxSessions unless degraded-mode
// derating has pulled it down.
func (ctl *Controller) EffectiveMaxSessions() int { return int(ctl.effectiveCap.Load()) }

// Degraded reports whether any middle module is currently failed.
func (ctl *Controller) Degraded() bool { return ctl.degraded.Load() }

// Health snapshots the failure plane: per-plane failed middle modules,
// the effective admission cap, and the ok/degraded/critical rollup.
func (ctl *Controller) Health() api.Health {
	h := api.Health{
		Status:               api.HealthOK,
		Degraded:             ctl.degraded.Load(),
		M:                    ctl.params.M,
		SufficientM:          ctl.suffM,
		MigratedSessions:     ctl.metrics.migrated.Load(),
		DroppedSessions:      ctl.metrics.dropped.Load(),
		MaxSessions:          ctl.cfg.MaxSessions,
		EffectiveMaxSessions: int(ctl.effectiveCap.Load()),
	}
	for i, f := range ctl.fabrics {
		var failed []int
		func() {
			f.mu.Lock()
			defer f.mu.Unlock()
			failed = f.net.FailedMiddles()
		}()
		fh := api.FabricHealth{
			Replica:       i,
			FailedMiddles: failed,
			EffectiveM:    ctl.params.M - len(failed),
			Status:        api.HealthOK,
		}
		if len(failed) > 0 {
			fh.Status = api.HealthDegraded
			h.FailedMiddles += len(failed)
		}
		if fh.EffectiveM <= 0 {
			fh.Status = api.HealthCritical
		}
		if fh.Status == api.HealthCritical {
			h.Status = api.HealthCritical
		} else if fh.Status == api.HealthDegraded && h.Status == api.HealthOK {
			h.Status = api.HealthDegraded
		}
		h.Fabrics = append(h.Fabrics, fh)
	}
	if d := ctl.durabilityHealth(); d != nil {
		h.Durability = d
		// A poisoned log means every mutation 503s even though the
		// fabric is fine — that is a degraded controller.
		if !d.Healthy && h.Status == api.HealthOK {
			h.Status = api.HealthDegraded
		}
	}
	h.Replication = ctl.replicationHealth()
	h.Federation = ctl.federationHealth()
	for _, p := range h.Federation {
		// A down peer means federated views (fleet metrics, fleet range
		// queries) are incomplete — degraded, not critical: this
		// instance itself still serves.
		if !p.Up && h.Status == api.HealthOK {
			h.Status = api.HealthDegraded
			break
		}
	}
	return h
}
