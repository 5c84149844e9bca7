package switchd

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/obs/tsdb"
	"repro/internal/switchd/api"
)

// Prometheus text exposition for GET /metrics, assembled from the
// registry's Snapshot counters, its latency histograms (each writes its
// own buckets) and the per-stage link occupancy of every fabric plane.
// The headline series is
// wdm_blocked_total: at or above the sufficient bound it must stay 0 —
// the paper's theorem as a scrape-and-alert rule.

// WriteProm writes the controller's full metric exposition into w.
func (ctl *Controller) WriteProm(w *obs.PromWriter) {
	snap := ctl.metrics.Snapshot()
	st := ctl.Status()

	w.Gauge("wdm_fabric_info", "Fabric parameters as labels; value is the configured middle-stage size m.",
		float64(st.M),
		obs.Label{Name: "model", Value: st.Model},
		obs.Label{Name: "construction", Value: st.Construction},
		obs.Label{Name: "n", Value: strconv.Itoa(st.N)},
		obs.Label{Name: "k", Value: strconv.Itoa(st.K)},
		obs.Label{Name: "r", Value: strconv.Itoa(st.R)},
		obs.Label{Name: "x", Value: strconv.Itoa(st.X)},
	)
	w.Gauge("wdm_sufficient_m", "Theorem 1/2 sufficient middle-stage bound for the configured construction.", float64(st.SufficientM))

	vi := BuildInfo()
	w.Gauge("wdm_build_info", "Build metadata as labels; value is always 1.", 1,
		obs.Label{Name: "version", Value: vi.Version},
		obs.Label{Name: "go_version", Value: vi.GoVersion},
	)
	w.Gauge("wdm_uptime_seconds", "Seconds since the controller was built.", time.Since(ctl.startTime).Seconds())
	// The STATIC margin of the configuration: configured m minus the
	// sufficient bound. Deliberately not derated by failures — the
	// shipped blocked-in-nonblocking-regime alert guards on it, so the
	// alert keeps firing when failures push effective capacity below
	// the bound while the configuration promised nonblocking.
	w.Gauge("wdm_m_margin", "Configured middle-stage margin above the sufficient bound (m - sufficient_m; static, not derated by failures).",
		float64(st.M-st.SufficientM))

	w.Counter("wdm_connect_total", "Successfully routed Connect requests.", float64(snap.ConnectOK))
	w.Counter("wdm_branch_total", "Successfully routed AddBranch requests.", float64(snap.BranchOK))
	w.Counter("wdm_disconnect_total", "Successful Disconnect requests.", float64(snap.DisconnectOK))
	w.Counter("wdm_blocked_total", "Admissible requests the fabric could not route (zero forever at sufficient m).", float64(snap.Blocked))
	w.Counter("wdm_inadmissible_total", "Requests rejected before routing (busy slots, model violations).", float64(snap.Inadmissible))
	w.Counter("wdm_cap_rejects_total", "Connects rejected by the MaxSessions admission cap (HTTP 429).", float64(snap.CapRejects))
	w.Counter("wdm_drain_rejects_total", "Requests rejected while draining (HTTP 503).", float64(snap.DrainRejects))
	w.Counter("wdm_route_ops_total", "Admissible routing operations offered to a fabric (routed + blocked); the availability SLO's denominator.",
		float64(snap.ConnectOK+snap.BranchOK+snap.Blocked))

	w.Gauge("wdm_active_sessions", "Live multicast sessions across all fabric planes.", float64(st.Active))
	w.Gauge("wdm_draining", "1 while the controller is draining.", b2f(st.Draining))

	// Failure plane: failed middles per plane, live migrations, drops,
	// degraded flag, and the derated admission cap (0 = unlimited).
	w.Counter("wdm_migrated_sessions_total", "Sessions live-migrated off failed middle modules (ids preserved).", float64(snap.MigratedSessions))
	w.Counter("wdm_dropped_sessions_total", "Sessions dropped by the failure plane for lack of spare middle capacity.", float64(snap.DroppedSessions))
	w.Gauge("wdm_degraded", "1 while any middle module is failed.", b2f(ctl.Degraded()))
	w.Gauge("wdm_effective_max_sessions", "Admission cap currently enforced (MaxSessions, derated in degraded mode; 0 = unlimited).", float64(ctl.EffectiveMaxSessions()))
	for i, f := range snap.PerFabric {
		lbl := obs.Label{Name: "fabric", Value: strconv.Itoa(i)}
		w.Gauge("wdm_failed_middles", "Failed middle modules per fabric plane.", float64(f.FailedMiddles), lbl)
	}

	for i, f := range snap.PerFabric {
		lbl := obs.Label{Name: "fabric", Value: strconv.Itoa(i)}
		w.Counter("wdm_fabric_routed_total", "Per-plane routed connections.", float64(f.Routed), lbl)
	}
	for i, f := range snap.PerFabric {
		lbl := obs.Label{Name: "fabric", Value: strconv.Itoa(i)}
		w.Counter("wdm_fabric_blocked_total", "Per-plane blocking events.", float64(f.Blocked), lbl)
	}
	for i, f := range snap.PerFabric {
		lbl := obs.Label{Name: "fabric", Value: strconv.Itoa(i)}
		w.Gauge("wdm_fabric_active", "Per-plane live connections.", float64(f.Active), lbl)
	}

	// Per-stage link-wavelength occupancy, from each plane's utilization
	// snapshot (stage "in" = input->middle links, "out" = middle->output).
	for _, fs := range st.Fabrics {
		u := fs.Utilization
		fab := strconv.Itoa(fs.Replica)
		for _, stage := range []struct {
			name        string
			busy, total int
		}{
			{"in", u.InBusy, u.InTotal},
			{"out", u.OutBusy, u.OutTotal},
		} {
			labels := []obs.Label{{Name: "fabric", Value: fab}, {Name: "stage", Value: stage.name}}
			w.Gauge("wdm_link_busy", "Busy link wavelengths per stage.", float64(stage.busy), labels...)
			w.Gauge("wdm_link_capacity", "Total link wavelengths per stage.", float64(stage.total), labels...)
			if stage.total > 0 {
				w.Gauge("wdm_link_busy_ratio", "Busy fraction of link wavelengths per stage.",
					float64(stage.busy)/float64(stage.total), labels...)
			}
		}
	}

	// Operation latency histograms, in seconds per convention. In
	// OpenMetrics mode each bucket carries its most recent traced
	// observation as an exemplar, joining /metrics to /v1/debug/spans.
	const opHelp = "Fabric operation latency (time inside the fabric lock)."
	ctl.metrics.connectLat.writeProm(w, "wdm_op_latency_seconds", opHelp, obs.Label{Name: "op", Value: "connect"})
	ctl.metrics.branchLat.writeProm(w, "wdm_op_latency_seconds", opHelp, obs.Label{Name: "op", Value: "branch"})
	ctl.metrics.disconnectLat.writeProm(w, "wdm_op_latency_seconds", opHelp, obs.Label{Name: "op", Value: "disconnect"})

	// Phase attribution: where each request's wall time actually went.
	// The series share the operation-latency bounds so the panels line
	// up; summing wdm_phase_seconds over phase approximates end-to-end
	// request time, and the lock_wait series is the direct measure of
	// the per-fabric mutex convoy that caps multi-core throughput.
	for p := phase(0); p < numPhases; p++ {
		ctl.metrics.phase[p].writeProm(w, "wdm_phase_seconds", "Per-request phase attribution of serving time.",
			obs.Label{Name: "phase", Value: phaseNames[p]})
	}

	// Runtime telemetry essentials (GC pause, scheduler latency, heap,
	// goroutines) from runtime/metrics.
	prof.WriteRuntimeProm(w)

	if ctl.tracer != nil {
		kept, dropped := ctl.tracer.Stats()
		w.Counter("wdm_traces_kept_total", "Completed traces kept by tail sampling.", float64(kept))
		w.Counter("wdm_traces_dropped_total", "Routine traces sampled out.", float64(dropped))
	}

	// SLO gauges (present only with a history interval, which holds the
	// window baselines): availability is 1 - P_block over each sliding
	// window — at or above the sufficient bound it reads exactly 1 with
	// zero burn.
	if ss, ok := ctl.SLO(); ok {
		w.Gauge("wdm_slo_objective", "Availability objective.", ss.Objective)
		w.Gauge("wdm_slo_latency_objective", "Latency-SLI objective (fraction under threshold).", ss.LatencyObjective)
		w.Gauge("wdm_slo_latency_threshold_us", "Latency-SLI threshold in microseconds.", ss.LatencyThresholdUs)
		w.Gauge("wdm_slo_healthy", "1 while no burn-rate alert fires.", b2f(ss.Healthy))
		for _, win := range ss.Windows {
			w.Gauge("wdm_slo_availability", "Availability SLI (1 - P_block) per window.",
				win.Availability, obs.Label{Name: "window", Value: win.Window})
		}
		for _, win := range ss.Windows {
			w.Gauge("wdm_slo_availability_burn", "Availability burn rate per window.",
				win.AvailabilityBurn, obs.Label{Name: "window", Value: win.Window})
		}
		for _, win := range ss.Windows {
			w.Gauge("wdm_slo_latency_ok", "Latency SLI (fraction under threshold) per window.",
				win.LatencyOK, obs.Label{Name: "window", Value: win.Window})
		}
		for _, win := range ss.Windows {
			w.Gauge("wdm_slo_latency_burn", "Latency burn rate per window.",
				win.LatencyBurn, obs.Label{Name: "window", Value: win.Window})
		}
		for _, a := range ss.Alerts {
			w.Gauge("wdm_slo_alert_firing", "1 while the multiwindow burn alert fires on either SLI.",
				b2f(a.AvailabilityFiring || a.LatencyFiring), obs.Label{Name: "alert", Value: a.Name})
		}
	}

	// Metrics history plane (present only with a history interval).
	// The store's own health is scraped into itself, so history gaps
	// are diagnosable from the history.
	if ctl.store != nil {
		ts := ctl.store.Stats()
		w.Gauge("wdm_tsdb_series", "Distinct series retained by the embedded metrics history.", float64(ts.Series))
		w.Counter("wdm_tsdb_samples_total", "Samples appended to the embedded metrics history.", float64(ts.SamplesTotal))
		w.Counter("wdm_tsdb_scrapes_total", "Self-scrapes of the in-process registry.", float64(ts.Scrapes))
		w.Counter("wdm_tsdb_dropped_series_total", "Series dropped by the MaxSeries cap.", float64(ts.DroppedSeries))
		w.Gauge("wdm_tsdb_scrape_duration_seconds", "Duration of the most recent self-scrape.", ts.LastScrape.Seconds())
		w.Gauge("wdm_tsdb_bytes", "Approximate bytes retained across every tier of every series.", float64(ts.Bytes))
	}
	if ctl.alertEng != nil {
		for _, a := range ctl.alertEng.Snapshot() {
			w.Gauge("wdm_alert_firing", "1 while the alerting rule fires.",
				b2f(a.State == tsdb.StateFiring), obs.Label{Name: "rule", Value: a.Rule.Name})
		}
	}

	// Federation plane (present only with configured peers): per-peer
	// reachability as seen by the background prober.
	for _, p := range ctl.federationHealth() {
		w.Gauge("wdm_federation_peer_up", "1 while the federation peer answers health probes.",
			b2f(p.Up), obs.Label{Name: "shard", Value: p.Shard})
	}

	// Durable state plane (present only with a data directory).
	if ctl.wal != nil {
		ws := ctl.wal.Stats()
		w.Counter("wdm_wal_appends_total", "Records appended to the write-ahead log.", float64(ws.Appends))
		w.Counter("wdm_wal_fsyncs_total", "Group-commit fsync batches.", float64(ws.Syncs))
		w.Gauge("wdm_wal_last_seq", "Newest assigned WAL record sequence.", float64(ws.LastSeq))
		w.Gauge("wdm_wal_synced_seq", "Newest WAL record made durable by group commit.", float64(ws.SyncedSeq))
		w.Gauge("wdm_wal_unsynced_bytes", "Appended bytes not yet covered by an fsync (WAL lag).", float64(ws.UnsyncedBytes))
		w.Gauge("wdm_wal_segments", "Live WAL segment files.", float64(ws.Segments))
		w.Gauge("wdm_wal_healthy", "1 while the WAL accepts appends; 0 once poisoned (fail-stop).", b2f(ctl.wal.Err() == nil))
		if ws.LastSnapshotUnixNs > 0 {
			w.Gauge("wdm_snapshot_age_seconds", "Seconds since the last durable checkpoint.",
				time.Since(time.Unix(0, ws.LastSnapshotUnixNs)).Seconds())
			w.Gauge("wdm_snapshot_last_seq", "WAL sequence covered by the last checkpoint.", float64(ws.LastSnapshotSeq))
		}
		w.Counter("wdm_recovered_sessions_total", "Sessions reinstalled from the durable log at startup.", float64(ctl.metrics.recovered.Load()))
		ctl.metrics.walFsync.writeProm(w, "wdm_wal_fsync_seconds", "Group-commit fsync latency.")
	}

	// Replication plane (present only in cluster mode).
	if rh := ctl.replicationHealth(); rh != nil {
		WriteReplicationProm(w, rh)
	}
}

// WriteReplicationProm emits the wdm_replication_* series for one
// node's replication row. Shared by the primary's full exposition and
// the standby's minimal /metrics (which has no Controller yet).
func WriteReplicationProm(w *obs.PromWriter, rh *api.ReplicationHealth) {
	role := obs.Label{Name: "role", Value: rh.Role}
	seq := rh.SyncedSeq
	if rh.Role != "primary" {
		seq = rh.AppliedSeq
	}
	w.Gauge("wdm_replication_seq", "Durable log sequence per role: a primary's synced sequence, a standby's applied sequence.", float64(seq), role)
	w.Gauge("wdm_replication_lag_seconds", "Replication staleness: ack age on the primary, heartbeat age on the standby (0 when caught up).", rh.LagSeconds, role)
	w.Gauge("wdm_replication_lag_records", "Durable records the standby trails the primary by.", float64(rh.LagRecords), role)
	w.Gauge("wdm_replication_connected", "1 while the replication stream is attached.", b2f(rh.Connected), role)
	if rh.Role == "primary" {
		w.Gauge("wdm_replication_standbys", "Attached standby streams.", float64(rh.Standbys), role)
		w.Counter("wdm_replication_sync_timeouts_total", "Group commits that degraded to async after a standby ack timeout.", float64(rh.SyncTimeouts), role)
	} else {
		w.Counter("wdm_replication_reconnects_total", "Standby stream re-dials.", float64(rh.Reconnects), role)
		w.Counter("wdm_replication_snapshots_total", "Standby snapshot bootstraps (resume point pruned on the primary).", float64(rh.Snapshots), role)
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// handlePromMetrics serves GET /metrics. Clients that accept
// OpenMetrics (Accept: application/openmetrics-text, or ?exemplars=1)
// get the exemplar-carrying exposition; everyone else the classic
// 0.0.4 text format.
func (ctl *Controller) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	var pw obs.PromWriter
	openMetrics := strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") ||
		r.URL.Query().Get("exemplars") == "1"
	if openMetrics {
		pw.SetExemplars(true)
	}
	ctl.WriteProm(&pw)
	if openMetrics {
		w.Header().Set("Content-Type", obs.ContentTypeOpenMetrics)
	} else {
		w.Header().Set("Content-Type", obs.ContentType)
	}
	_, _ = pw.WriteTo(w)
}

// blockingResponse is the GET /v1/debug/blocking payload.
type blockingResponse struct {
	// Total counts every blocking incident since start; Incidents holds
	// the most recent, oldest first, up to the ring capacity.
	Total     int64           `json:"total"`
	Incidents []BlockIncident `json:"incidents"`
}

func (ctl *Controller) handleDebugBlocking(w http.ResponseWriter, r *http.Request) {
	if ctl.blockLog == nil {
		writeErrorCode(w, http.StatusNotFound, api.CodeNotFound, "blocking forensics disabled (Config.BlockLog < 0)")
		return
	}
	incidents, total := ctl.blockLog.snapshot()
	writeJSON(w, http.StatusOK, blockingResponse{Total: total, Incidents: incidents})
}

// handleDebugTrace serves GET /v1/debug/trace?fabric=N as a replayable
// internal/trace text document (wdmtrace's input format).
func (ctl *Controller) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	fab := 0
	if q := r.URL.Query().Get("fabric"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil {
			writeErrorCode(w, http.StatusBadRequest, api.CodeBadRequest, "want ?fabric=<replica>")
			return
		}
		fab = n
	}
	t, ok := ctl.Trace(fab)
	if !ok {
		writeErrorCode(w, http.StatusNotFound, api.CodeNotFound, "trace capture disabled (Config.CaptureTrace) or fabric out of range")
		return
	}
	p := ctl.params
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "# wdmserve live trace: fabric %d, backend=%s model=%s n=%d k=%d r=%d m=%d x=%d\n",
		fab, ctl.backendName, p.Model, p.N, p.K, p.R, p.M, p.X)
	fmt.Fprintf(w, "# replay: wdmtrace -replay <this file> -model %s -fabric %s -n %d -k %d -r %d -m %d -x %d\n",
		p.Model, ctl.backendName, p.N, p.K, p.R, p.M, p.X)
	_ = t.Write(w)
}
